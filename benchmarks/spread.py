"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads sweep,files --seeds 1-10 --label set-a

Each run is ``benchmarks/run.py`` in a fresh process, one after another.  For
every metric the table gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread ``(Q3 - Q1) / median``;
the raw result lines go to ``benchmarks/results/<label>/``.  With
``--trace 1`` the table also lists the traced runs' timing figures, whose
ratio to an untraced set is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    timing = [line for line in proc.stderr.splitlines() if line.startswith("timing ")]
    result["timing"] = json.loads(timing[-1].split(" ", 2)[2])
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="sweep,files,supermap,certify")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()
    out_dir = HERE / "results" / args.label
    out_dir.mkdir(parents=True, exist_ok=True)
    print("| workload | metric | unit | median | Q1 | Q3 | spread |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            result = one_run(workload, seed, args.seconds, args.trace)
            (out_dir / f"{workload}-seed{seed}-trace{args.trace}.json").write_text(
                json.dumps(result) + "\n"
            )
            results.append(result)
        units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
        rows = {name: [r["metrics"][name]["value"] for r in results] for name in units}
        if args.trace:
            for name in ("ops_per_s", "op_p50_ms"):
                units[f"traced {name}"] = "1/s" if name == "ops_per_s" else "ms"
                rows[f"traced {name}"] = [r["timing"][name] for r in results]
        for name, values in rows.items():
            med, q1, q3, spread = summarize(values)
            print(
                f"| {workload} | {name} | {units[name]} | {med:.4g} | {q1:.4g} | "
                f"{q3:.4g} | {spread:.3f} |"
            )
        shares = {r["failed"] / r["attempted"] for r in results}
        ops = [r["attempted"] for r in results]
        print(
            f"| {workload} | failed share | | {sorted(shares)} | "
            f"ops per run {min(ops)}-{max(ops)} | correct "
            f"{all(r['correct'] for r in results)} | |",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
