"""Truncated p-adic arithmetic in F = Q_p and its unramified quadratic extension E.

Values carry explicit precision.  A scalar is either *exact* (it remembers the
rational number it came from, so cancellation is detected exactly) or a
truncation ``p^val * unit + O(p^abs_prec)``.  Exact zero (valuation +inf) is a
first-class citizen; a value that is merely zero at working precision is kept
distinct, and any operation forced to tell the two apart raises
:class:`PrecisionExhausted`.

E = F(w) with w^2 = u for a non-residue unit u, so E/F is unramified, the
Galois action is sigma(a + b*w) = a - b*w, trace is 2a and norm is a^2 - u*b^2.

All values are immutable after construction; they can be shared freely between
concurrent tasks.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByZero,
    OddValuation,
    PrecisionExhausted,
)

INF = math.inf


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def is_nonresidue(u: int, p: int) -> bool:
    """Euler criterion: u is a quadratic non-residue unit mod p."""
    um = u % p
    if um == 0:
        return False
    return pow(um, (p - 1) // 2, p) == p - 1


def smallest_nonresidue(p: int) -> int:
    for u in range(2, p):
        if is_nonresidue(u, p):
            return u
    raise ValueError(f"no quadratic non-residue mod {p}")


@dataclass(frozen=True)
class FieldConfig:
    """Arithmetic context: odd prime p, non-residue u with w^2 = u, working digits D."""

    p: int
    u: int
    precision: int = 48

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError("p must be an odd prime")
        if not is_nonresidue(self.u, self.p):
            raise ValueError("u must be a quadratic non-residue unit mod p")
        if self.precision < 8:
            raise ValueError("precision must be at least 8 digits")

    @property
    def D(self) -> int:
        return self.precision

    def scalar(self, value) -> "PAdicScalar":
        """Exact scalar from an int or Fraction."""
        if isinstance(value, PAdicScalar):
            return value
        value = Fraction(value)
        return from_rational(value.numerator, value.denominator, self)

    def quad(self, a=0, b=0) -> "QuadScalar":
        return QuadScalar(self.scalar(a), self.scalar(b))

    def zero(self) -> "PAdicScalar":
        return self.scalar(0)

    def one(self) -> "PAdicScalar":
        return self.scalar(1)


def _val_int(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _frac_val(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of exact zero")
    return _val_int(x.numerator, p) - _val_int(x.denominator, p)


class PAdicScalar:
    """Element of F at working precision.

    Exactly one of two states:
      * exact: ``frac`` holds the rational value (possibly 0);
      * truncated: ``frac is None`` and the value is ``p^val * unit + O(p^abs_prec)``
        with ``unit`` a unit mod ``p^(abs_prec - val)``, or (``val is None``)
        just ``O(p^abs_prec)`` -- zero at precision.
    """

    __slots__ = ("cfg", "frac", "val", "_unit", "abs_prec")

    def __init__(self, cfg, frac, val, unit, abs_prec):
        self.cfg = cfg
        self.frac = frac
        self.val = val
        self._unit = unit
        self.abs_prec = abs_prec

    @property
    def unit(self) -> int:
        """Unit part mod p^D (computed lazily for exact values)."""
        if self._unit is None and self.frac is not None and self.frac != 0:
            self._unit = self.lift_scaled(self.val, self.val + self.cfg.D)
        return self._unit if self._unit is not None else 0

    # -- constructors -------------------------------------------------

    @staticmethod
    def exact(cfg: FieldConfig, value) -> "PAdicScalar":
        if not isinstance(value, Fraction):
            value = Fraction(value)
        if value == 0:
            return PAdicScalar(cfg, value, None, None, INF)
        v = _frac_val(value, cfg.p)
        return PAdicScalar(cfg, value, v, None, INF)

    @staticmethod
    def inexact(cfg: FieldConfig, val, unit: int, abs_prec) -> "PAdicScalar":
        if val is not None:
            rel = abs_prec - val
            if rel <= 0:
                return PAdicScalar(cfg, None, None, 0, abs_prec)
            rel = min(rel, cfg.D)
            unit %= cfg.p ** rel
            if unit % cfg.p == 0:
                raise ValueError("unit part must be a unit")
            return PAdicScalar(cfg, None, val, unit, val + rel)
        return PAdicScalar(cfg, None, None, 0, abs_prec)

    # -- queries ------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.frac is not None

    def is_exact_zero(self) -> bool:
        return self.frac is not None and self.frac == 0

    def is_zero_at_precision(self) -> bool:
        return self.is_exact_zero() or (self.frac is None and self.val is None)

    def valuation(self):
        """Exact valuation; +inf for exact zero; raises if only O(p^k) is known."""
        if self.is_exact_zero():
            return INF
        if self.val is None:
            raise PrecisionExhausted(
                f"valuation undecidable: value is O(p^{self.abs_prec})"
            )
        return self.val

    def valuation_lower_bound(self):
        if self.is_exact_zero():
            return INF
        if self.val is None:
            return self.abs_prec
        return self.val

    @property
    def known_digits(self) -> int:
        """Relative digits of the unit part known (capped at the working precision)."""
        if self.is_exact:
            return self.cfg.D
        if self.val is None:
            return 0
        return min(self.cfg.D, self.abs_prec - self.val)

    def is_integral(self) -> bool:
        """val >= 0, raising when the truncation cannot decide."""
        lb = self.valuation_lower_bound()
        if lb >= 0:
            return True
        if self.val is not None:
            return False
        raise PrecisionExhausted("integrality undecidable for O(p^%s)" % self.abs_prec)

    # -- digit access -------------------------------------------------

    def lift_scaled(self, base: int, k_abs) -> int:
        """Integer N with value = p^base * N + O(p^k_abs), 0 <= N < p^(k_abs-base).

        Requires base <= valuation and k_abs <= abs_prec.
        """
        p = self.cfg.p
        if k_abs <= base:
            return 0
        width = k_abs - base
        mod = p**width
        if self.is_exact:
            if self.frac == 0:
                return 0
            v = self.val
            if v >= k_abs:
                return 0
            if v < base:
                raise ValueError("base above valuation")
            num, den = self.frac.numerator, self.frac.denominator  # p^v times a unit
            num, den = (num // p**v, den) if v >= 0 else (num, den // p**-v)
            return num * pow(den, -1, mod) * p ** (v - base) % mod
        if self.val is None:
            if self.abs_prec < k_abs:
                raise PrecisionExhausted("not enough digits for lift")
            return 0
        if self.abs_prec < k_abs:
            raise PrecisionExhausted("not enough digits for lift")
        if self.val >= k_abs:
            return 0
        if self.val < base:
            raise ValueError("base above valuation")
        return (self.unit * self.cfg.p ** (self.val - base)) % mod

    def truncate_below(self, k: int) -> "PAdicScalar":
        """Exact scalar congruent to this one mod p^k (digits below p^k kept)."""
        if self.is_exact_zero():
            return self
        lb = self.valuation_lower_bound()
        if lb >= k:
            return PAdicScalar.exact(self.cfg, Fraction(0))
        base = self.val  # finite because lb < k
        n = self.lift_scaled(base, k)
        return PAdicScalar.exact(self.cfg, Fraction(n) * Fraction(self.cfg.p) ** base)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PAdicScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return PAdicScalar.exact(self.cfg, Fraction(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if isinstance(other, QuadScalar):  # pragma: no cover - promoted elsewhere
            return NotImplemented
        a, b = self, other
        if a.is_exact and b.is_exact:
            return PAdicScalar.exact(a.cfg, a.frac + b.frac)
        cfg = a.cfg
        target = min(a.abs_prec, b.abs_prec)
        if a.is_zero_at_precision() and b.is_zero_at_precision():
            t = min(a.valuation_lower_bound(), b.valuation_lower_bound())
            return PAdicScalar.inexact(cfg, None, 0, t)
        base = min(a.valuation_lower_bound(), b.valuation_lower_bound())
        base = min(base, target)
        n = a.lift_scaled(base, target) + b.lift_scaled(base, target)
        n %= cfg.p ** (target - base)
        if n == 0:
            return PAdicScalar.inexact(cfg, None, 0, target)
        dv = _val_int(n, cfg.p)
        return PAdicScalar.inexact(cfg, base + dv, n // cfg.p**dv, target)

    __radd__ = __add__

    def __neg__(self):
        if self.is_exact:
            return PAdicScalar.exact(self.cfg, -self.frac)
        if self.val is None:
            return self
        rel = self.abs_prec - self.val
        return PAdicScalar.inexact(
            self.cfg, self.val, (-self.unit) % self.cfg.p**rel, self.abs_prec
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QuadScalar):
            return other * self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self, other
        cfg = a.cfg
        if a.is_exact and b.is_exact:
            return PAdicScalar.exact(cfg, a.frac * b.frac)
        if a.is_exact_zero() or b.is_exact_zero():
            return PAdicScalar.exact(cfg, Fraction(0))
        if a.is_zero_at_precision() or b.is_zero_at_precision():
            x, z = (a, b) if b.is_zero_at_precision() else (b, a)
            # x * O(p^t): known to be O(p^(t + val x)); nothing else
            t = z.valuation_lower_bound() + x.valuation_lower_bound()
            return PAdicScalar.inexact(cfg, None, 0, t)
        v = a.val + b.val
        rel = min(
            a.abs_prec - a.val if not a.is_exact else INF,
            b.abs_prec - b.val if not b.is_exact else INF,
        )
        rel = min(rel, cfg.D)
        rel = int(rel)
        mod = cfg.p**rel
        ua = a.lift_scaled(a.val, a.val + rel)
        ub = b.lift_scaled(b.val, b.val + rel)
        return PAdicScalar.inexact(cfg, v, (ua * ub) % mod, v + rel)

    __rmul__ = __mul__

    def inv(self) -> "PAdicScalar":
        cfg = self.cfg
        if self.is_exact:
            if self.frac == 0:
                raise DivisionByZero("inverse of exact zero")
            return PAdicScalar.exact(cfg, 1 / self.frac)
        if self.val is None:
            raise PrecisionExhausted("inverse of a value that is zero at precision")
        rel = self.abs_prec - self.val
        mod = cfg.p**rel
        return PAdicScalar.inexact(cfg, -self.val, pow(self.unit, -1, mod), -self.val + rel)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    # -- comparison ---------------------------------------------------

    def agrees(self, other, slack: int = 0) -> bool:
        """Equal to min(shared absolute precision) - slack digits."""
        other = self._coerce(other)
        d = self - other
        target = min(self.abs_prec, other.abs_prec)
        if target is INF:
            return d.is_exact_zero()
        return d.valuation_lower_bound() >= target - slack

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None or not isinstance(other, PAdicScalar):
            return NotImplemented
        return self.agrees(other, 0)

    __hash__ = None

    # -- Galois-compatible interface shared with QuadScalar -----------

    def sigma(self) -> "PAdicScalar":
        return self

    def as_fraction(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("not an exact value")
        return self.frac

    def __repr__(self):
        if self.is_exact_zero():
            return "0"
        if self.is_exact:
            return f"{self.frac}"
        if self.val is None:
            return f"O({self.cfg.p}^{self.abs_prec})"
        return f"{self.cfg.p}^{self.val}*{self.unit} + O({self.cfg.p}^{self.abs_prec})"


class QuadScalar:
    """Element a + b*w of E = F(w), w^2 = u.  Unramified: val = min(val a, val b)."""

    __slots__ = ("a", "b")

    def __init__(self, a: PAdicScalar, b: PAdicScalar):
        self.a = a
        self.b = b

    @property
    def cfg(self) -> FieldConfig:
        return self.a.cfg

    def _coerce(self, other):
        if isinstance(other, QuadScalar):
            return other
        if isinstance(other, PAdicScalar):
            return QuadScalar(other, PAdicScalar.exact(other.cfg, Fraction(0)))
        if isinstance(other, (int, Fraction)):
            cfg = self.cfg
            return QuadScalar(cfg.scalar(other), cfg.zero())
        return None

    # -- queries ------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.a.is_exact and self.b.is_exact

    def is_exact_zero(self) -> bool:
        return self.a.is_exact_zero() and self.b.is_exact_zero()

    def is_zero_at_precision(self) -> bool:
        return self.a.is_zero_at_precision() and self.b.is_zero_at_precision()

    def valuation(self):
        if self.is_exact_zero():
            return INF
        la, lb = self.a.valuation_lower_bound(), self.b.valuation_lower_bound()
        va = None if self.a.is_zero_at_precision() else self.a.val
        vb = None if self.b.is_zero_at_precision() else self.b.val
        if va is not None and (va <= lb):
            return va
        if vb is not None and (vb <= la):
            return vb
        if va is None and vb is None:
            raise PrecisionExhausted("valuation undecidable (both parts zero at precision)")
        raise PrecisionExhausted("valuation undecidable at working precision")

    def valuation_lower_bound(self):
        return min(self.a.valuation_lower_bound(), self.b.valuation_lower_bound())

    @property
    def abs_prec(self):
        return min(self.a.abs_prec, self.b.abs_prec)

    @property
    def known_digits(self) -> int:
        return min(self.a.known_digits, self.b.known_digits)

    def is_integral(self) -> bool:
        return self.a.is_integral() and self.b.is_integral()

    # -- Galois structure ----------------------------------------------

    def sigma(self) -> "QuadScalar":
        return QuadScalar(self.a, -self.b)

    def trace(self) -> PAdicScalar:
        return self.a + self.a

    def norm(self) -> PAdicScalar:
        u = self.cfg.u
        return self.a * self.a - self.b * self.b * u

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        u = self.cfg.u
        a = self.a * other.a + self.b * other.b * u
        b = self.a * other.b + self.b * other.a
        return QuadScalar(a, b)

    __rmul__ = __mul__

    def inv(self) -> "QuadScalar":
        n = self.norm()
        if n.is_exact_zero():
            raise DivisionByZero("inverse of exact zero in E")
        ninv = n.inv()
        s = self.sigma()
        return QuadScalar(s.a * ninv, s.b * ninv)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def agrees(self, other, slack: int = 0) -> bool:
        other = self._coerce(other)
        return self.a.agrees(other.a, slack) and self.b.agrees(other.b, slack)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    __hash__ = None

    def f_part(self, slack: int = 4) -> PAdicScalar:
        """Coerce to F, requiring the w-part to vanish (see negligible)."""
        if not negligible(self.b, slack):
            raise ValueError(f"w-part does not vanish: {self.b!r}")
        return self.a

    def truncate_below(self, k: int) -> "QuadScalar":
        return QuadScalar(self.a.truncate_below(k), self.b.truncate_below(k))

    def __repr__(self):
        return f"({self.a!r}) + ({self.b!r})*w"


# ----------------------------------------------------------------------
# module-level operations


def negligible(x, slack: int) -> bool:
    """x (PAdicScalar or QuadScalar) is zero: exactly when x is exact, so an
    exact input is never rounded; else to within `slack` digits of its
    precision, capped at D."""
    if x.is_exact:
        return x.is_exact_zero()
    return (x.is_zero_at_precision()
            or x.valuation_lower_bound() >= min(x.abs_prec, x.cfg.D) - slack)


def from_rational(num: int, den: int, cfg: FieldConfig) -> PAdicScalar:
    """Exact image of num/den in F; valuation val_p(num) - val_p(den)."""
    if den == 0:
        raise DivisionByZero("zero denominator")
    return PAdicScalar.exact(cfg, Fraction(num, den))


def solve_norm_equation(mu, cfg: FieldConfig) -> QuadScalar:
    """nu with N(nu) = mu, for mu of even valuation.

    Solves the residue-field norm equation (the norm map of the quadratic
    residue extension is onto) and Hensel-lifts one coordinate of
    a^2 - u*b^2 = mu; the other coordinate stays a small exact integer.
    Rational square roots are detected and returned exactly.
    """
    p, u, D = cfg.p, cfg.u, cfg.D
    mu = cfg.scalar(mu) if isinstance(mu, (int, Fraction)) else mu
    if mu.is_exact_zero():
        return cfg.quad(0, 0)
    v = mu.valuation()
    if v % 2 != 0:
        raise OddValuation(f"val(mu) = {v} is odd; mu is not a norm")
    s = v // 2
    scale = PAdicScalar.exact(cfg, Fraction(p) ** (-v))
    mu0 = mu * scale  # unit
    mu_res = mu0.lift_scaled(0, 1) % p

    # deterministic smallest (a0, b0) with a0^2 - u*b0^2 = mu_res (mod p)
    found = None
    for a0 in range(p):
        if found:
            break
        for b0 in range(p):
            if (a0 * a0 - u * b0 * b0 - mu_res) % p == 0:
                found = (a0, b0)
                break
    a0, b0 = found

    if a0 % p != 0:
        # lift a: a^2 = mu0 + u*b0^2
        w = mu0 + cfg.scalar(u * b0 * b0)
        a = _hensel_sqrt(w, a0, cfg)
        nu0 = QuadScalar(a, cfg.scalar(b0))
    else:
        # lift b: b^2 = (a0^2 - mu0)/u
        w = (cfg.scalar(a0 * a0) - mu0) * cfg.scalar(Fraction(1, u))
        b = _hensel_sqrt(w, b0, cfg)
        nu0 = QuadScalar(cfg.scalar(a0), b)
    ps = cfg.scalar(Fraction(p) ** s)
    return QuadScalar(nu0.a * ps, nu0.b * ps)


def _hensel_sqrt(w: PAdicScalar, r0: int, cfg: FieldConfig) -> PAdicScalar:
    """Square root of the unit w with residue r0 (Newton lifting, p odd)."""
    p, D = cfg.p, cfg.D
    if w.is_exact:
        # exact rational square root when available
        fr = w.as_fraction()
        n, d = fr.numerator, fr.denominator
        if n > 0:
            rn, rd = math.isqrt(n), math.isqrt(d)
            if rn * rn == n and rd * rd == d:
                r = Fraction(rn, rd)
                if (r.numerator * pow(r.denominator, -1, p) - r0) % p != 0:
                    r = -r
                return PAdicScalar.exact(cfg, r)
    digits = min(D, w.known_digits)
    target = p**digits
    wl = w.lift_scaled(0, digits)
    x = r0 % p
    k = 1
    while k < digits:
        k = min(2 * k, digits)
        mod = p**k
        x = (x + (wl % mod) * pow(x, -1, mod)) % mod
        x = (x * pow(2, -1, mod)) % mod
    return PAdicScalar.inexact(cfg, 0, x % target, digits)


# ----------------------------------------------------------------------
# scalar literal grammar:  entry := term (('+'|'-') term)*
#                          term  := rational ('*'? 'w')? | '-'? 'w'
#                          rational := int ('/' int)?

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:"
    r"(?P<rat>\d+(?:/\d+)?)\s*(?:\*?\s*(?P<w1>w))?"
    r"|(?P<w2>w)"
    r")\s*"
)


def parse_scalar(text: str, cfg: FieldConfig, quad: bool | None = None):
    """Parse the scalar literal grammar; returns PAdicScalar or QuadScalar.

    ``quad=True`` forces a QuadScalar result, ``quad=False`` rejects w-terms.
    """
    a = Fraction(0)
    b = Fraction(0)
    saw_w = False
    pos = 0
    text = text.strip()
    if not text:
        raise ValueError("empty scalar literal")
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad scalar literal {text!r} at position {pos}")
        if not first and m.group("sign") == "":
            raise ValueError(f"missing +/- between terms in {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("w2") or m.group("w1"):
            saw_w = True
            coeff = Fraction(m.group("rat")) if m.group("rat") else Fraction(1)
            b += sign * coeff
        else:
            a += sign * Fraction(m.group("rat"))
        pos = m.end()
        first = False
    if saw_w and quad is False:
        raise ValueError(f"w-term not allowed here: {text!r}")
    if saw_w or quad:
        return QuadScalar(cfg.scalar(a), cfg.scalar(b))
    return cfg.scalar(a)


def format_scalar(x) -> str:
    """Canonical string for an exact-enough scalar, in the literal grammar."""

    def fmt_frac(f: Fraction) -> str:
        return str(f)

    def part(x: PAdicScalar) -> Fraction:
        if x.is_exact:
            return x.as_fraction()
        # truncated values serialize at full known precision
        if x.is_zero_at_precision():
            return Fraction(0)
        n = x.lift_scaled(x.val, x.abs_prec)
        return Fraction(n) * Fraction(x.cfg.p) ** x.val

    if isinstance(x, PAdicScalar):
        return fmt_frac(part(x))
    a, b = part(x.a), part(x.b)
    if b == 0:
        return fmt_frac(a)
    if b == 1:
        wterm = "w"
    elif b == -1:
        wterm = "-w"
    else:
        wterm = f"{fmt_frac(b)}*w"
    if a == 0:
        return wterm
    if wterm.startswith("-"):
        return f"{fmt_frac(a)}{wterm}"
    return f"{fmt_frac(a)}+{wterm}"
