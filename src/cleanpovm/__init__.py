"""cleanpovm: cleanness of quasi-qubit POVMs under channel pre-processing.

A POVM P is *clean* when no strictly-less-noisy POVM Q maps onto it through
a quantum channel (Heisenberg picture). For quasi-qubit POVMs (every
element rank one or full rank) this package decides cleanness, cross-checks
the verdict with an independent nullspace oracle, and constructs a
verifiable counter-witness (Q, E) with E(Q) = P and a strictly wider
spectrum whenever P is not clean.

The names below are the documented entry points and the types a caller
must name; everything else is reached through its submodule.
"""

from .channel import KrausChannel, apply
from .cleanness import (
    CleannessVerdict,
    VerdictReason,
    decide_clean,
    separating_pair,
    totally_determined_nullspace,
)
from .errors import CleanPovmError
from .linalg import DEFAULT_TOL, Tolerances
from .povm import (
    Povm,
    classify,
    random_povm,
    random_split_povm,
    rank_one_supports,
    validate,
)
from .witness import (
    Witness,
    WitnessReport,
    build_witness,
    verify_witness,
    witness_case_a,
)

__version__ = "0.1.0"

__all__ = [
    "CleanPovmError",
    "CleannessVerdict",
    "DEFAULT_TOL",
    "KrausChannel",
    "Povm",
    "Tolerances",
    "VerdictReason",
    "Witness",
    "WitnessReport",
    "apply",
    "build_witness",
    "classify",
    "decide_clean",
    "random_povm",
    "random_split_povm",
    "rank_one_supports",
    "separating_pair",
    "totally_determined_nullspace",
    "validate",
    "verify_witness",
    "witness_case_a",
]
