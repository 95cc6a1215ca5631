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


class NonpositiveRadius(CknError):
    pass


class OddDimension(CknError):
    pass


class NonIntegrable(CknError):
    pass


class QuadratureFailure(CknError):
    """A corrected quadrature of a nonnegative integrand is not finite and nonnegative."""


class ZeroFunction(CknError):
    pass


class GridTooCoarse(CknError):
    pass


class EigensolveFailure(CknError):
    pass


class InconsistentKernel(CknError):
    pass


class OnManifold(CknError):
    pass


class ContractionFailure(CknError):
    pass


class NoInteriorExtremum(CknError):
    pass
