"""Exception types shared across the package."""


class CtsgError(Exception):
    """Base class for package-specific errors."""


class SchemaError(CtsgError):
    """A JSON artifact lacks a field, or has a field or top level of the wrong JSON type."""


class StructureError(CtsgError):
    """Model tensors are dimensionally inconsistent or structurally malformed."""


class CertificateError(CtsgError):
    """A Lyapunov certificate violates its own invariants."""


class ModelScaleError(CtsgError):
    """Model constants overflow double precision before iteration can start."""


class NumericsError(CtsgError):
    """A numeric invariant broke down mid-computation."""


class DiscretizationError(CtsgError):
    """A density or kernel cannot be discretized on the requested grid."""
