"""Tests for the per-thread block workspace that validity reports draw on.

CI also runs this file on its own, in a fresh interpreter, with the memory
guards of ``test_supermaps.py``, so the order of other tests can neither warm
nor empty a workspace under them.
"""

import sys
import threading

import numpy as np
import pytest

from pmx import operator_core
from pmx.operator_core import _POOLED_BLOCK
from pmx.supermaps import v_lambda, validate_supermap

WS = operator_core._WORKSPACE


@pytest.fixture(autouse=True)
def empty_workspace():
    WS.clear()
    yield
    WS.clear()


def test_repeated_validation_takes_no_fresh_block():
    s = v_lambda(0.7)
    start = WS.misses
    validate_supermap(s)
    # on a cold workspace: six blocks of 256^2, one of 128^2 and five of
    # 64^2 (blocks, buffers and factor tables)
    assert WS.misses - start == 12
    validate_supermap(s)
    validate_supermap(v_lambda(0.3))
    assert WS.misses - start == 12


def test_a_block_still_referenced_is_never_handed_out_again():
    shape = (256, 256)
    with WS.report():
        first = WS.empty(shape)
        second = WS.empty(shape)
        assert not np.shares_memory(first, second)
        # a view alone keeps the block it reads
        view = first.T[3:]
        del first
        third = WS.empty(shape)
        assert not np.shares_memory(view, third)
        assert not np.shares_memory(second, third)
        misses = WS.misses
        del view
        # now that nothing refers to it, the first block serves a new request
        fourth = WS.empty((64, 1024))
        assert WS.misses == misses
        assert not np.shares_memory(fourth, second)
        assert not np.shares_memory(fourth, third)
    # a block held past the end of its report is not handed out in the next
    with WS.report():
        fifth = WS.empty(shape)
        assert not any(np.shares_memory(fifth, b) for b in (second, third, fourth))


def test_best_fit_and_only_the_last_report_blocks_are_kept():
    with WS.report():
        small = WS.empty((_POOLED_BLOCK,))
        large = WS.empty((4 * _POOLED_BLOCK,))
        del small, large
    assert sorted(b.size for b in WS.blocks) == [_POOLED_BLOCK, 4 * _POOLED_BLOCK]
    with WS.report():
        misses = WS.misses
        block = WS.empty((64, _POOLED_BLOCK // 64))
        # the smallest held block that fits serves the request
        assert WS.misses == misses
        assert np.shares_memory(block, min(WS.blocks, key=len))
        del block
    assert [b.size for b in WS.blocks] == [_POOLED_BLOCK]


def test_small_blocks_and_blocks_outside_a_report_are_plain():
    misses = WS.misses
    outside = WS.empty((256, 256))
    with WS.report():
        small = WS.empty((_POOLED_BLOCK - 1,))
    assert outside.base is None and small.base is None
    assert WS.misses == misses and WS.blocks == []


def test_concurrent_validations_match_serial_ones():
    angles = (0.7, 2.1)
    serial = {lam: validate_supermap(v_lambda(lam)) for lam in angles}
    barrier = threading.Barrier(len(angles))
    seen = {lam: [] for lam in angles}

    def run(lam):
        s = v_lambda(lam)
        barrier.wait()
        for _ in range(4):
            seen[lam].append(validate_supermap(s))

    threads = [threading.Thread(target=run, args=(lam,)) for lam in angles]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for lam in angles:
        want = [c.residual for c in serial[lam].conditions]
        assert len(seen[lam]) == 4
        for report in seen[lam]:
            # bit-identical residuals, not merely close ones
            assert [c.residual for c in report.conditions] == want


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux minor faults")
def test_warm_validation_faults_few_pages():
    import resource

    s = v_lambda(0.7)
    validate_supermap(s)
    validate_supermap(s)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    validate_supermap(s)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # about 1,570 when every block came fresh from the heap
    assert faults <= 64
