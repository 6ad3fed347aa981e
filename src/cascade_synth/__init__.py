"""Cascade synthesis for linear quantum stochastic systems.

Tests whether a system (S, K, R) of n harmonic oscillators is realizable as
a pure cascade of one-mode stages, constructs the cascade when it is, and,
for passive systems, builds the symplectic change of variables that always
yields a transfer-function-equivalent cascade realization.  A verification
layer certifies every result numerically, and a JSON document format plus
CLI make the pipeline scriptable.
"""

from .composition import (
    CascadeChain,
    cascade,
    one_mode_stages,
    residual_interaction,
)
from .documents import (
    RealizationDocument,
    SystemDocument,
    canonical_json,
)
from .errors import (
    BadResidual,
    CascadeSynthError,
    ConvergenceFailure,
    FieldCountMismatch,
    NonHermitianRtilde,
    NonSymmetricR,
    NonUnitaryInput,
    NonUnitaryScattering,
    NotCascadeRealizable,
    NotPassive,
    ParseError,
    ResolventSingular,
    ScatteringMismatch,
)
from .model import (
    DEFAULT_TOL,
    DoubledStateSpace,
    PassiveForm,
    SlhSystem,
    build_state_space,
    drift_matrix,
    from_passive_form,
    is_passive,
    max_abs,
    to_passive_form,
)
from .passive import (
    PassiveRealization,
    SymplecticTransform,
    build_symplectic,
    mode_matrix,
    passive_realize,
    schur_lower,
)
from .realizability import (
    TriangularityReport,
    decompose_cascade,
    is_cascade_realizable,
)
from .verification import (
    EquivalenceReport,
    RealizationCertificate,
    ccr_preservation,
    certify_equivalence,
    certify_realization,
    certify_symplectic,
    transfer_function,
)

__version__ = "0.1.0"

__all__ = [
    "BadResidual",
    "CascadeChain",
    "CascadeSynthError",
    "ConvergenceFailure",
    "DEFAULT_TOL",
    "DoubledStateSpace",
    "EquivalenceReport",
    "FieldCountMismatch",
    "NonHermitianRtilde",
    "NonSymmetricR",
    "NonUnitaryInput",
    "NonUnitaryScattering",
    "NotCascadeRealizable",
    "NotPassive",
    "ParseError",
    "PassiveForm",
    "PassiveRealization",
    "RealizationCertificate",
    "RealizationDocument",
    "ResolventSingular",
    "ScatteringMismatch",
    "SlhSystem",
    "SymplecticTransform",
    "SystemDocument",
    "TriangularityReport",
    "build_state_space",
    "build_symplectic",
    "canonical_json",
    "cascade",
    "ccr_preservation",
    "certify_equivalence",
    "certify_realization",
    "certify_symplectic",
    "decompose_cascade",
    "drift_matrix",
    "from_passive_form",
    "is_cascade_realizable",
    "is_passive",
    "max_abs",
    "mode_matrix",
    "one_mode_stages",
    "passive_realize",
    "residual_interaction",
    "schur_lower",
    "to_passive_form",
    "transfer_function",
]
