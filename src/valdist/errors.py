"""Exception types raised by the toolkit."""


class ValdistError(Exception):
    """Base class for all toolkit-specific failures."""


class IdenticallyZeroDenominator(ValdistError):
    """A rational function was built with the zero polynomial as denominator."""


class ConstantPolynomial(ValdistError):
    """The operation needs a non-constant polynomial."""


class ConstantFunction(ValdistError):
    """The operation needs a non-constant rational function."""


class ContourTooClose(ValdistError):
    """A zero or pole sits within the guard band of the integration contour."""


class QuadratureNotConverged(ValdistError):
    """The quadrature hit its resolution/subdivision cap while still moving."""


class RootOnBoundary(ValdistError):
    """A root lies on a contour the caller chose, or on every split line tried."""


class SubdivisionDepthExceeded(ValdistError):
    """Region subdivision reached its depth cap without isolating the roots."""


class LocalizationFailed(ValdistError):
    """A root could not be localized (or certified) to the requested tolerance."""


class FunctionIdenticallyA(ValdistError):
    """The function is identically equal to the requested target value."""


class BoundaryCoincidence(ValdistError):
    """An a-point lies within the guard band of the counting circle; nudge r."""


class TooFewTargets(ValdistError):
    """The second fundamental theorem needs at least three target values."""


class DuplicateTargets(ValdistError):
    """Target values for the second fundamental theorem must be distinct."""


class LinearCoefficientNonzero(ValdistError):
    """The shifted polynomial still has a nonzero coefficient of z."""


class DegreeTooSmall(ValdistError):
    """The restricted-shape check needs degree strictly greater than two."""


class BinomialShape(ValdistError):
    """All middle coefficients vanish: b0*z^m + bm.

    Not a failure of the input; it marks a polynomial that is rooted in
    closed form instead of going through the restricted-shape chain.
    Carries (degree, leading, constant) so callers can take that path.
    """

    def __init__(self, degree, leading, constant):
        super().__init__(f"binomial shape of degree {degree}")
        self.degree = degree
        self.leading = leading
        self.constant = constant
