"""Exception types shared across the package."""


class QuadtexError(Exception):
    """Base class for every error raised by quadtex."""


class InvalidMatrix(QuadtexError):
    """Matrix is not square or has a negative entry."""


class NonCommuting(QuadtexError):
    """A*B != B*A; carries the first violated entry."""

    def __init__(self, entry, lhs, rhs):
        self.entry = entry
        self.lhs = lhs
        self.rhs = rhs
        i, j = entry
        super().__init__(
            f"matrices do not commute at entry ({i},{j}): (A*B)={lhs}, (B*A)={rhs}"
        )


class NotABijection(QuadtexError):
    """Pairing is not a bijection between the composable pair sets."""


class BlockViolation(QuadtexError):
    """A pairing breaks a source/range constraint; carries the pair."""

    def __init__(self, pair, reason):
        self.pair = pair
        super().__init__(f"pairing violates block constraints for {pair}: {reason}")


class ExchangeUnavailable(QuadtexError):
    """The exchange pairing (a,b) -> (b,a) only exists on one vertex."""


class UnknownEdge(QuadtexError):
    """Edge does not belong to the system."""


class LayerMismatch(QuadtexError):
    """Operand lives over the wrong edge layer."""


class BasisTooLarge(QuadtexError):
    """A graded level exceeds the configured word cap."""


class TruncationTooShallow(QuadtexError):
    """Requested identity needs more levels than the truncation has."""


class PatternSpaceTooLarge(QuadtexError):
    """A patch or specification count has more digits than ``str`` prints
    (``sys.get_int_max_str_digits()``)."""


class CrossCheckFailure(QuadtexError):
    """Two independent computations of the same quantity disagree."""

    def __init__(self, message, details=None):
        self.details = details or {}
        super().__init__(message)
