"""Exception types shared across the toolkit.

ParameterError subclasses signal bad inputs (CLI exit code 2);
BudgetExceeded / CapExceeded signal refused work (exit code 3);
InvariantViolation signals a broken internal identity (exit code 4).
"""


class CycloseqError(Exception):
    pass


class ParameterError(CycloseqError, ValueError):
    pass


class NoSuchRoot(ParameterError):
    """No primitive root satisfies the requested constraint for this prime."""


class NotPrimitive(ParameterError):
    """Powers of g repeat before exponent p-1."""


class BadOrder(ParameterError):
    """Coset/character order does not divide p-1."""


class ZeroArgument(ParameterError):
    """Operation requires a nonzero residue."""


class BadPrime(ParameterError):
    pass


class BadSubset(ParameterError):
    pass


class BadShifts(ParameterError):
    """Shift tuple not strictly increasing or out of range."""


class NoPeriod(ParameterError):
    """Sequence has no declared period."""


class InvariantViolation(CycloseqError):
    """Two independent computations that must agree do not."""


class BudgetExceeded(CycloseqError):
    """Exact enumeration would exceed the configured budget."""

    def __init__(self, estimate: int, budget: int, hint: str = "use the sampled variant"):
        self.estimate = estimate
        self.budget = budget
        super().__init__(f"estimated {estimate} window evaluations exceed budget {budget}; {hint}")


class CapExceeded(CycloseqError):
    """Input length exceeds the configured cap for a naive oracle."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"length {n} exceeds cap {cap}")
