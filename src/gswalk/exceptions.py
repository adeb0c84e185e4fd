"""Exception types shared across the package."""


class GswError(Exception):
    """Base class for all domain errors raised by gswalk."""


class ParameterError(GswError, ValueError):
    """An argument is outside the range the operation accepts."""


class InstanceFormatError(GswError):
    """Instance file could not be parsed."""


class ReportFormatError(GswError):
    """Report file could not be parsed."""


class DimensionError(GswError):
    """Shapes or sizes are inconsistent with the requested operation."""


class NormViolationError(GswError):
    """A column exceeds the unit Euclidean norm budget."""


class ContractViolationError(GswError):
    """An internal invariant was violated (indicates a bug upstream)."""


class DomainOverflowError(GswError):
    """Arguments would overflow double precision exponentials."""


class DegeneratePairError(GswError):
    """Sign vectors are equal or opposite; the comparison factor diverges."""
