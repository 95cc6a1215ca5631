"""Exception hierarchy for the toolkit."""


class CknError(Exception):
    """Base class for all toolkit errors."""


class DimensionTooSmall(CknError):
    pass


class AlphaOutOfRange(CknError):
    pass


class MOutOfRange(CknError):
    pass


class NegativeMode(CknError):
    pass


class NonpositiveScale(CknError):
    pass


class NotEvenCase(CknError):
    pass


class OddDimension(CknError):
    pass


class NonIntegrable(CknError):
    pass


class NoClosedForm(CknError):
    """An integral that the term algebra does not take exactly."""


class QuadratureFailure(CknError):
    """A quadrature overflows, or an exact value leaves the float range."""


class ZeroFunction(CknError):
    pass


class GridTooCoarse(CknError):
    pass


class EigensolveFailure(CknError):
    pass


class InconsistentKernel(CknError):
    pass


class ContractionFailure(CknError):
    pass


class NoInteriorExtremum(CknError):
    pass
