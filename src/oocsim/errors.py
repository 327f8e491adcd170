"""Exception types raised by the simulation library."""


class OocError(Exception):
    """Base class for all library errors."""


class SchemaError(OocError):
    """Scenario file failed validation; message names the offending field."""


class NotStronglyConnected(OocError):
    """Graph operation requires a strongly connected digraph."""


class BracketNotFound(OocError):
    """Sign change of the aggregate gradient not located; input likely non-convex."""


class NonConvexDetected(OocError):
    """A cost's curvature (exact for a quadratic, scanned otherwise) is below 1e-9 or not finite."""


class GradientNotVectorized(OocError):
    """A cost gradient failed on the array of grid points the curvature scan passes it."""


class InvalidSpectrum(OocError):
    """Gain selection needs lambda2 > 0 and rho_min > 0."""


class _TimedError(OocError):
    """A failure at simulation time t (None when unknown)."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class XiUnderflow(_TimedError):
    """A xi self-component dropped below the positivity floor."""


class NotHurwitz(OocError):
    """Companion matrix has an eigenvalue with nonnegative real part."""


class DegenerateRoots(OocError):
    """Internal-model mode frequencies must be distinct."""


class SingularSystem(OocError):
    """Vectorized Sylvester operator is numerically singular (spectra overlap)."""


class SingularT(OocError):
    """Sylvester solution matrix is not invertible."""


class Unsupported(OocError):
    """Operation not available for this plant kind."""


class Diverged(_TimedError):
    """Integration produced a non-finite state."""
