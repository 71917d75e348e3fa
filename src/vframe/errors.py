"""Exception hierarchy shared across the package."""


class VframeError(Exception):
    """Base class for every error raised by this package."""


class DuplicateNode(VframeError):
    """Two Vandermonde nodes coincide (within the relative tolerance)."""


class ZeroNode(VframeError):
    """A Vandermonde node is zero (or negligibly small relative to the rest)."""


class TooFewNodes(VframeError):
    """Fewer nodes than the ambient dimension: M < N."""


class LengthMismatch(VframeError):
    """A vector or coefficient sequence has the wrong length for the frame."""


class BudgetExceeded(VframeError):
    """A combinatorial enumeration would exceed the configured subset budget."""


class DegenerateSupport(VframeError):
    """The chosen N+1 rows contain a singular N-row subset."""


class DivideByZeroPoly(VframeError):
    """Polynomial division by the (effectively) zero polynomial."""


class NumericBreakdown(VframeError):
    """The key-equation recursion lost its pivot; no stable solution exists."""


class RootCountMismatch(VframeError):
    """Accepted locator roots do not match the locator degree."""


class DomainError(VframeError):
    """Scalar argument outside its mathematical domain."""


class BranchError(VframeError):
    """Sparsity count L outside the range the requested formula covers."""


class ConfigMismatch(VframeError):
    """Estimate and bound were computed for different (N, M, L) configurations."""
