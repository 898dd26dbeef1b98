"""Hybrid residue/floating-exponent arithmetic with a cycle-accurate pipeline model.

Exact integer mantissas live in carry-free residue channels; a shared
power-of-two exponent provides dynamic range; a bounded-error
normalization engine keeps mantissas inside the representable window; and
a timing model reproduces the pipelined datapath's latency behavior.
"""

from hrfna.arithmetic import (
    ALIGN_IDENTITY,
    ALIGN_SCALE_UP,
    ALIGN_SHIFT_DOWN,
    AuditFailure,
    hrfna_add,
    hrfna_mul,
)
from hrfna.errors import HrfnaError
from hrfna.hybrid import (
    DEFAULT_CONFIG,
    EQUAL,
    GREATER,
    LESS,
    HybridConfig,
    HybridNum,
    exact_value,
    from_real,
    hybrid_compare,
    make_hybrid,
    signed_value,
    tau_int,
    to_real,
    validate_config,
)
from hrfna.normalization import (
    DegenerateResult,
    NormalizationEvent,
    needs_normalization,
    normalize,
    shift_round_half_even,
)
from hrfna.pipeline import (
    DEFAULT_PIPELINE,
    Fsm,
    IncompleteTrace,
    InvalidProgram,
    MetricsSummary,
    Op,
    PipelineConfig,
    SimResult,
    SimState,
    TraceEvent,
    metrics_report,
    scheduler_step,
    simulate,
)
from hrfna.rns import (
    DEFAULT_MODULI,
    MismatchedSet,
    ModulusSet,
    ModulusTooLarge,
    ModulusTooSmall,
    NotCoprime,
    OutOfRange,
    ResidueVector,
    crt_reconstruct,
    encode_residues,
    encode_signed,
    make_modulus_set,
    mod_add,
    mod_mul,
    mod_sub,
)
from hrfna.workloads import (
    DriftBoundExceeded,
    ExactZero,
    LengthMismatch,
    chained_mac,
    dot_product,
    run_mac_chain,
)

__version__ = "0.1.0"
