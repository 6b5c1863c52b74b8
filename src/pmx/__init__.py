"""Process matrices with indefinite causal order.

Construction, validation, and transformation of higher-order quantum
processes: multi-party process matrices, the supermaps acting on them, and
numerical certificates for rigidity and extremality questions.
"""

from .operator_core import (
    DEFAULT_TOL,
    Factor,
    Party,
    SpaceLayout,
    partial_trace,
    tensor,
)
from .process_space import (
    CausalOrderFlag,
    HierarchyLevel,
    Instrument,
    ProcessMatrix,
    TermClass,
    ValidationReport,
    allowed_mask,
    bipartite_qubit_layout,
    born_probabilities,
    causal_order_flags,
    cj_of_unitary,
    classify_term,
    comb_order_satisfied,
    extended_switch,
    extended_switch_layout,
    grandfather_instrument,
    memory_channel,
    quantum_switch,
    shared_state,
    single_party_layout,
    switch_input_channel,
    switch_layout,
    validate,
    w_ll,
    w_ocb,
)
from .supermaps import (
    Supermap,
    apply,
    c_swap_unitary,
    c_swap_v,
    constant_map,
    hierarchy_projector,
    instrument_reduction,
    interpolation_map,
    unitary_supermap,
    v_lambda,
    validate_order_n,
    validate_supermap,
)
from .rigidity import (
    RigidityReport,
    generator_kernel,
    single_body_patterns,
    verify_rigidity,
)
from .extremality import (
    DarianoReport,
    ExtremalityCertificate,
    ReachabilityReport,
    dariano_test,
    is_extremal,
    non_reachability_report,
    support_intersection_dim,
)
from .cli import load_pmx, write_pmx

__version__ = "0.1.0"
