"""Exception types shared across the toolkit.

CycloseqError is the base of the five others:
- ParameterError: a bad input (CLI exit code 2);
- NoSuchRoot: a ParameterError for a root policy that no primitive root
  satisfies, which `verify` and `scan` report per prime instead of exiting;
- BudgetExceeded and CapExceeded: refused work (exit code 3);
- InvariantViolation: a broken internal identity (exit code 4).
"""


class CycloseqError(Exception):
    pass


class ParameterError(CycloseqError, ValueError):
    pass


class NoSuchRoot(ParameterError):
    """No primitive root satisfies the requested constraint for this prime."""


class InvariantViolation(CycloseqError):
    """Two independent computations that must agree do not."""


# An estimate past 2**SHOWN_BITS is shown by its size: str() refuses ints past
# 4300 digits, and C_k's comb(N, k) * N gets there at N = 10**5, k = 3000.
SHOWN_BITS = 4096


class BudgetExceeded(CycloseqError):
    """Exact enumeration would exceed the configured budget."""

    def __init__(self, estimate: int, budget: int, hint: str = "use the sampled variant"):
        self.estimate = estimate
        self.budget = budget
        bits = estimate.bit_length()
        shown = estimate if bits <= SHOWN_BITS else f"at least 2**{bits - 1}"
        super().__init__(f"estimated {shown} window evaluations exceed budget {budget}; {hint}")


class CapExceeded(CycloseqError):
    """A period past the 2-adic measure's cap, which keeps its record printable."""

    def __init__(self, n: int, cap: int):
        self.n = n
        self.cap = cap
        super().__init__(f"length {n} exceeds cap {cap}")
