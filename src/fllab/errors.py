"""Shared exception types.

Every failure mode of the math core has a dedicated class so callers can
distinguish "this input is a legitimate degenerate case" from "the working
precision cannot decide the question".
"""


class FLLabError(Exception):
    """Base class for all package errors."""


class PrecisionExhausted(FLLabError, ArithmeticError):
    """A quantity is indistinguishable from zero (or undecidable) at working precision."""


class DivisionByZero(FLLabError, ZeroDivisionError):
    """Inversion of an exact zero."""


class OddValuation(FLLabError, ValueError):
    """Norm equation target has odd valuation (not a norm in the unramified case)."""


class NotSplit(FLLabError, ValueError):
    """Hermitian matrix is not congruent to the identity form (odd determinant valuation)."""


class SingularSystem(FLLabError, ValueError):
    """Linear solve against an exactly singular matrix."""


class NotRss(FLLabError, ValueError):
    """Element (or invariant tuple) is not relatively regular semi-simple."""


class SideError(FLLabError, TypeError):
    """Operation applied to the wrong side (unitary vs. general-linear)."""


class NoHermitianOrbit(FLLabError, ValueError):
    """Invariant point has no hermitian preimage (odd Hankel determinant valuation)."""


class SamplingExhausted(FLLabError, RuntimeError):
    """Rejection sampling failed to produce an admissible element."""


class ZeroModule(FLLabError, ValueError):
    """Module closure of the zero vector requested."""


class ExplosionGuard(FLLabError, RuntimeError):
    """Lattice enumeration quotient exceeds the configured bound."""


class OracleTooLarge(FLLabError, RuntimeError):
    """Brute-force oracle requested beyond its supported rank/size."""


class NormalFormFailure(FLLabError, RuntimeError):
    """Could not move an element to its expected normal form (bug or precision loss)."""


class ConductorExceeded(FLLabError, ValueError):
    """Character argument falls outside the supported conductor range."""


class CoefficientOverflow(FLLabError, ArithmeticError):
    """An int64 coefficient table could wrap around in the next step."""
