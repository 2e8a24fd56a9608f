"""Exception hierarchy shared by every module.

Each error carries a stable ``code`` string that the command-line layer
prints in its machine-parsable ``error:<code>:`` diagnostic prefix.
"""


class EfracError(Exception):
    """Base class for all package errors."""

    code = "Error"


class ParseError(EfracError):
    """Text that does not match the rational or integer-list formats."""

    code = "Malformed"


class InvalidTuple(EfracError):
    """A denominator tuple that fails validation."""

    code = "InvalidTuple"


class NotSorted(InvalidTuple):
    code = "NotSorted"


class TermNotInteger(InvalidTuple):
    code = "TermNotInteger"


class TermTooSmall(InvalidTuple):
    code = "TermTooSmall"


class SumNotBelowOne(InvalidTuple):
    code = "SumNotBelowOne"


class CapExceeded(EfracError):
    """A size cap (term count, permutation width, bit length) was exceeded."""

    code = "CapExceeded"


class InvalidInstance(EfracError):
    """A malformed majorization or symmetric-mean instance."""

    code = "InvalidInstance"


class LengthMismatch(InvalidInstance):
    code = "LengthMismatch"


class HypothesesViolated(EfracError):
    """Prefix-product domination does not hold, so augmentation is unsound."""

    code = "HypothesesViolated"


class DepthCapExceeded(EfracError):
    """Requested search depth beyond the fixed exhaustive-search cap."""

    code = "DepthCapExceeded"


class VerificationFailed(EfracError):
    """A mathematical check that must hold did not; indicates a bug."""

    code = "VerificationFailed"
