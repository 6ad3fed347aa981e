"""Exception types raised across the package."""


class CascadeSynthError(Exception):
    """Base class for every error raised by this package."""


class NonUnitaryScattering(CascadeSynthError):
    """Scattering matrix fails the unitarity tolerance."""


class NonSymmetricR(CascadeSynthError):
    """Hamiltonian matrix fails the symmetry tolerance."""


class NonHermitianRtilde(CascadeSynthError):
    """Passive-form Hamiltonian matrix fails the Hermiticity tolerance."""


class NotPassive(CascadeSynthError):
    """System couples to creation directions or its Hamiltonian is not
    expressible in annihilation variables alone."""


class FieldCountMismatch(CascadeSynthError):
    """Composed systems do not share the same number of input/output fields."""


class BadResidual(CascadeSynthError):
    """Residual interaction matrix is not symmetric with zero diagonal blocks."""


class NotCascadeRealizable(CascadeSynthError):
    """Drift matrix is not lower 2x2-block triangular, so the system admits
    no pure cascade decomposition in its current coordinates.

    Carries the failed triangularity report as ``report``.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(
            "drift matrix is not lower 2x2-block triangular: "
            f"max upper-block residual {report.max_upper_residual:.3e} exceeds "
            f"{report.tolerance_used:.1e} * scale {report.scale:.3e}"
        )


class ConvergenceFailure(CascadeSynthError):
    """Iterative eigenvalue computation did not converge."""


class NonUnitaryInput(CascadeSynthError):
    """Matrix expected to be unitary fails the unitarity tolerance."""


class ResolventSingular(CascadeSynthError):
    """Requested frequency lies on (or numerically too close to) the spectrum
    of the drift matrix."""


class ScatteringMismatch(CascadeSynthError):
    """Two systems under comparison have different scattering matrices."""


class ParseError(CascadeSynthError):
    """Document cannot be parsed or fails schema validation."""

    def __init__(self, message, path=None):
        self.path = path
        super().__init__(message if path is None else f"{path}: {message}")
