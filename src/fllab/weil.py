"""Finite models of test functions in the off-diagonal block coordinates,
the two partial Fourier transforms, and the SL_2 generator actions.

Functions are supported in p^-a * M and constant on cosets of p^b * M, where
M = O_E^{n-1} (unitary side, coordinates b_i = x_i + y_i w) or
M = O_F^{n-1} x O_F^{n-1} (general-linear side, coordinates (b, c)); the
(X', lambda) block is a frozen spectator and none of the operators here
touch it.  Values live in the exact ring Z[zeta_{p^mc}, 1/p] (conductor
exponent mc = a + b + 2), internally as integer coefficient vectors in the
group-ring basis zeta^0..zeta^{p^mc - 1} plus a power-of-p denominator;
canonical comparison folds through the cyclotomic relation.  Everything is
exact: no floating point anywhere.

The transform factors through one-dimensional transforms along each
F-coordinate axis (the general-linear kernel psi(c'b + cb') swaps the two
blocks; the unitary kernel psi_E(t(c)^sigma b) acts coordinate-wise with
unit twists 2 and -2u), with autodual normalization vol(M) = 1.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .errors import ConductorExceeded
from .padic import FieldConfig, PAdicScalar, QuadScalar, _frac_val, _val_int


def psi_exponent_fraction(x: Fraction, p: int, m: int) -> int:
    """k with psi(x) = zeta_{p^m}^k; requires val_p(x) >= -m."""
    if x == 0:
        return 0
    num, den = x.numerator, x.denominator
    e = _val_int(den, p)
    if e > m:
        raise ConductorExceeded(f"val = -{e} below conductor exponent -{m}")
    pm = p**m
    d0 = den // p**e
    return (num * p ** (m - e) * pow(d0, -1, pm)) % pm


class CharacterRing:
    """Exact cyclotomic values: Z[zeta]/(Phi_{p^m}) with p-power denominators."""

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.q = p**m
        self.phi = p ** (m - 1) * (p - 1)

    def fold(self, arr: np.ndarray) -> np.ndarray:
        """Group-ring coefficients (last axis length q) -> canonical phi basis."""
        p, q, phi = self.p, self.q, self.phi
        step = p ** (self.m - 1)
        out = arr[..., :phi].copy()
        for r in range(step):
            high = arr[..., phi + r]
            for s in range(p - 1):
                out[..., r + s * step] -= high
        return out

    def normalize(self, arr: np.ndarray, den: int):
        """Strip common p factors from a folded array and its denominator."""
        while den > 0 and (arr % self.p == 0).all():
            arr = arr // self.p
            den -= 1
        if not arr.any():
            den = 0
        return arr, den

    def monomial(self, k: int, den: int = 0) -> "CycNumber":
        coeffs = np.zeros(self.q, dtype=np.int64)
        coeffs[k % self.q] = 1
        return CycNumber(self, coeffs, den)

    def zero(self) -> "CycNumber":
        return CycNumber(self, np.zeros(self.q, dtype=np.int64), 0)

    def one(self) -> "CycNumber":
        return self.monomial(0)

    def __eq__(self, other):
        return isinstance(other, CharacterRing) and (self.p, self.m) == (other.p, other.m)

    def __repr__(self):
        return f"CharacterRing(p={self.p}, m={self.m})"


class CycNumber:
    """One exact cyclotomic value: coefficient vector / p^den."""

    __slots__ = ("ring", "coeffs", "den")

    def __init__(self, ring: CharacterRing, coeffs: np.ndarray, den: int = 0):
        self.ring = ring
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self.den = den

    def canonical(self):
        arr, den = self.ring.normalize(self.ring.fold(self.coeffs), self.den)
        return tuple(int(x) for x in arr), den

    def __eq__(self, other):
        if not isinstance(other, CycNumber) or self.ring != other.ring:
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def _common(self, other):
        den = max(self.den, other.den)
        a = self.coeffs * self.ring.p ** (den - self.den)
        b = other.coeffs * other.ring.p ** (den - other.den)
        return a, b, den

    def __add__(self, other):
        a, b, den = self._common(other)
        return CycNumber(self.ring, a + b, den)

    def __sub__(self, other):
        a, b, den = self._common(other)
        return CycNumber(self.ring, a - b, den)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycNumber(self.ring, self.coeffs * other, self.den)
        q = self.ring.q
        conv = np.zeros(q, dtype=np.int64)
        for i, ci in enumerate(self.coeffs):
            if ci:
                conv += ci * np.roll(other.coeffs, i)
        return CycNumber(self.ring, conv, self.den + other.den)

    __rmul__ = __mul__

    def conj(self) -> "CycNumber":
        idx = (-np.arange(self.ring.q)) % self.ring.q
        out = np.zeros(self.ring.q, dtype=np.int64)
        np.add.at(out, idx, self.coeffs)
        return CycNumber(self.ring, out, self.den)

    def is_zero(self) -> bool:
        return not self.ring.fold(self.coeffs).any()

    def __repr__(self):
        c, d = self.canonical()
        return f"Cyc({c}, p^-{d})"


def psi_value(x, ring: CharacterRing, cfg: FieldConfig | None = None) -> CycNumber:
    """psi(x) as a ring element; psi_E(x) = psi(Tr x) for quadratic arguments."""
    if isinstance(x, QuadScalar):
        x = x.trace()
    if isinstance(x, PAdicScalar):
        if not x.is_exact:
            raise ValueError("psi_value needs an exact argument")
        x = x.as_fraction()
    return ring.monomial(psi_exponent_fraction(Fraction(x), ring.p, ring.m))


# ----------------------------------------------------------------------
# finite-level functions


class SpectatorBox:
    """Frozen (X', lambda) coset box; carried through untouched."""

    def __repr__(self):
        return "SpectatorBox(X' in M(O), lambda in O)"


class FiniteLevelFunction:
    """Table model of a test function on p^-a M / p^b M in the (b, c) block.

    Axes are the 2(n-1) F-coordinates; axis digit k in [0, p^(a+b))
    represents the coset k * p^-a + p^b M.  The table has shape
    (P,)*axes + (p^mc,): one group-ring coefficient vector per coset,
    shared denominator exponent `den`.
    """

    __slots__ = ("side", "n", "p", "u", "a", "b", "table", "den", "spectator")

    def __init__(self, side, n, p, u, a, b, table, den=0, spectator=None):
        assert side in ("u", "gl")
        self.side = side
        self.n = n
        self.p = p
        self.u = u
        self.a = a
        self.b = b
        self.table = table
        self.den = den
        self.spectator = spectator if spectator is not None else SpectatorBox()
        m = n - 1
        P = p ** (a + b)
        assert table.shape == (P,) * (2 * m) + (self.ring.q,)

    # -- derived parameters ------------------------------------------------

    @property
    def m(self) -> int:
        return self.n - 1

    @property
    def axes(self) -> int:
        return 2 * (self.n - 1)

    @property
    def P(self) -> int:
        return self.p ** (self.a + self.b)

    @property
    def mc(self) -> int:
        return self.a + self.b + 2

    @property
    def ring(self) -> CharacterRing:
        return CharacterRing(self.p, self.mc)

    @property
    def coset_count(self) -> int:
        return self.P ** self.axes

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(side, n, cfg: FieldConfig, a, b) -> "FiniteLevelFunction":
        p, u = cfg.p, cfg.u
        P = p ** (a + b)
        q = p ** (a + b + 2)
        table = np.zeros((P,) * (2 * (n - 1)) + (q,), dtype=np.int64)
        return FiniteLevelFunction(side, n, p, u, a, b, table)

    @staticmethod
    def unit_box(side, n, cfg: FieldConfig, a, b) -> "FiniteLevelFunction":
        """Indicator of M itself (cosets with all coordinates in O)."""
        f = FiniteLevelFunction.zero(side, n, cfg, a, b)
        P, pa = f.P, cfg.p**a
        for idx in np.ndindex(*((P,) * f.axes)):
            if all(k % pa == 0 for k in idx):
                f.table[idx + (0,)] = 1
        return f

    @staticmethod
    def random(side, n, cfg: FieldConfig, a, b, rng: random.Random,
               density: int = 24) -> "FiniteLevelFunction":
        f = FiniteLevelFunction.zero(side, n, cfg, a, b)
        q = f.ring.q
        N = f.coset_count
        for _ in range(min(density, N)):
            idx = tuple(rng.randrange(f.P) for _ in range(f.axes))
            f.table[idx + (rng.randrange(q),)] += rng.choice((-2, -1, 1, 2))
        return f

    # -- structure -----------------------------------------------------------

    def copy(self) -> "FiniteLevelFunction":
        return FiniteLevelFunction(self.side, self.n, self.p, self.u, self.a,
                                   self.b, self.table.copy(), self.den, self.spectator)

    def canonical(self):
        ring = self.ring
        folded = ring.fold(self.table)
        arr, den = ring.normalize(folded, self.den)
        return (self.side, self.n, self.a, self.b, den, arr.tobytes(), arr.shape)

    def equals(self, other: "FiniteLevelFunction") -> bool:
        return self.canonical() == other.canonical()

    def coset_value(self, idx) -> CycNumber:
        return CycNumber(self.ring, self.table[tuple(idx)], self.den)

    def coordinates(self, idx, shift=None):
        """Exact coordinates of the representative of coset idx (optionally
        shifted by full-period multiples, for representative-independence
        checks)."""
        pa = Fraction(1, self.p**self.a)
        out = []
        for t, k in enumerate(idx):
            s = 0 if shift is None else shift[t]
            out.append((k + s * self.P) * pa)
        return out

    def q_of(self, coords) -> Fraction:
        """q restricted to the block coordinates: c.b or sum of norms."""
        m = self.m
        if self.side == "gl":
            bs, cs = coords[:m], coords[m:]
            return sum((bi * ci for bi, ci in zip(bs, cs)), Fraction(0))
        acc = Fraction(0)
        for i in range(m):
            x, y = coords[2 * i], coords[2 * i + 1]
            acc += x * x - self.u * y * y
        return acc

    # -- operators -------------------------------------------------------------

    def pointwise_psi(self, phase, shift=None) -> "FiniteLevelFunction":
        """Multiply by psi(phase(coords)); phase maps coordinates to Fraction."""
        out = self.copy()
        q = self.ring.q
        for idx in np.ndindex(*((self.P,) * self.axes)):
            e = psi_exponent_fraction(phase(self.coordinates(idx, shift)), self.p, self.mc)
            if e:
                out.table[idx] = np.roll(self.table[idx], e)
        return out

    def reflect(self) -> "FiniteLevelFunction":
        """f(-x) on the grid."""
        out = self.copy()
        for t in range(self.axes):
            out.table = np.flip(np.roll(out.table, -1, axis=t), axis=t)
        return out

    def translate(self, v) -> "FiniteLevelFunction":
        """(T_v f)(x) = f(x - v) for an integer digit vector v."""
        out = self.copy()
        for t, vt in enumerate(v):
            out.table = np.roll(out.table, vt, axis=t)
        return out


def _axis_kernel_exponents(f: FiniteLevelFunction, axis: int, kernel_shift: int,
                           kernel_sign: int = 1):
    """E(k, l) table for the 1-dim transform along one axis."""
    p, P, mc = f.p, f.P, f.mc
    if f.side == "gl":
        alpha = 1
    else:
        alpha = 2 if axis % 2 == 0 else (-2 * f.u)
    scale = p ** (mc - (f.a + f.b) + kernel_shift)
    q = p**mc
    ks = np.arange(P)
    E = (kernel_sign * alpha * scale * np.outer(ks, ks)) % q
    return E


def partial_fourier(f: FiniteLevelFunction, kernel_shift: int = 0,
                    kernel_sign: int = 1) -> FiniteLevelFunction:
    """The partial Fourier transform; output lives on the dual grid (b, a).

    kernel_shift simulates a character of different conductor (test hook);
    kernel_sign = -1 gives the inverse transform; the autodual normalization
    contributes p^-b per F-axis.
    """
    if f.mc < f.a + f.b:
        raise ConductorExceeded("grid finer than the character conductor")
    table = f.table
    q = f.ring.q
    P = f.P
    for axis in range(f.axes):
        E = _axis_kernel_exponents(f, axis, kernel_shift, kernel_sign)
        work = np.moveaxis(table, axis, 0)
        out = np.zeros_like(work)
        for l in range(P):
            acc = out[l]
            for k in range(P):
                block = work[k]
                e = int(E[k, l])
                if e:
                    acc += np.roll(block, e, axis=-1)
                else:
                    acc += block
        table = np.moveaxis(out, 0, axis)
    if f.side == "gl":
        m = f.m
        perm = list(range(m, 2 * m)) + list(range(m)) + [2 * m]
        table = np.transpose(table, perm)
    den = f.den + f.axes * f.b
    out_f = FiniteLevelFunction(f.side, f.n, f.p, f.u, f.b, f.a, table, den, f.spectator)
    return out_f


def weil_apply(word, f: FiniteLevelFunction, fourier_scale: int = 0) -> FiniteLevelFunction:
    """Apply a word of SL_2 generators, left to right.

    Generators: ("n", t) acts by the phase psi(t * q(x)); "w" applies the
    partial Fourier transform with the inverse kernel orientation (the pair
    (psi(+tq), inverse kernel) is the assignment that satisfies the SL_2
    relations as a homomorphism; the forward orientation pairs with
    psi(-tq) instead, and both differ only by the harmless outer twist).
    t must satisfy val(t) >= a - b so the phase is constant on grid cosets
    (ConductorExceeded otherwise).
    fourier_scale (test hook) multiplies every "w" output by zeta^scale.
    """
    cur = f
    for gen in word:
        if gen == "w":
            cur = partial_fourier(cur, kernel_sign=-1)
            if fourier_scale:
                nxt = cur.copy()
                nxt.table = np.roll(cur.table, fourier_scale, axis=-1)
                cur = nxt
        else:
            tag, t = gen
            assert tag == "n"
            t = Fraction(t)
            if t != 0 and (tval := _frac_val(t, cur.p)) < cur.a - cur.b:
                raise ConductorExceeded(
                    f"n(t) with val(t) = {tval} is not defined on grid ({cur.a},{cur.b})"
                )
            cur = cur.pointwise_psi(lambda coords, tt=t: tt * cur.q_of(coords))
    return cur


# ----------------------------------------------------------------------
# self-checks


def unit_selfdual_check(cfg: FieldConfig, n: int, level=None, kernel_shift: int = 0) -> bool:
    """F(1) = 1 on both finite models.

    The level defaults to (1,1) when the table fits comfortably and to the
    asymmetric (0,1) -> (1,0) check otherwise (large p and n).
    """
    if level is None:
        a = b = 1
        if (cfg.p ** (a + b)) ** (2 * (n - 1)) > 20000:
            a, b = 0, 1
    else:
        a, b = level
    ok = True
    for side in ("u", "gl"):
        box = FiniteLevelFunction.unit_box(side, n, cfg, a, b)
        got = partial_fourier(box, kernel_shift=kernel_shift)
        want = FiniteLevelFunction.unit_box(side, n, cfg, b, a)
        ok = ok and got.equals(want)
    return ok


def fourier_order_four_check(cfg: FieldConfig, n: int, level, trials: int, seed) -> bool:
    """F^2 = point reflection and F^4 = id on random finite-level functions."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    a, b = level
    ok = True
    for side in ("u", "gl"):
        for _ in range(trials):
            f = FiniteLevelFunction.random(side, n, cfg, a, b, rng)
            f2 = partial_fourier(partial_fourier(f))
            ok = ok and f2.equals(f.reflect())
            f4 = partial_fourier(partial_fourier(f2))
            ok = ok and f4.equals(f)
    return ok


def sl2_relation_check(cfg: FieldConfig, n: int, level, trials: int, seed,
                       fourier_scale: int = 0) -> bool:
    """Defining SL_2 relations of the generator action, exactly.

    (W(w) W(n(1)))^3 = W(w)^2 and W(w)^4 = id; these pin the normalization
    of the transform (the Weil constant is 1), and any scalar twist of F
    breaks them.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    a, b = level
    if a != b:
        raise ValueError("relation words need a self-dual grid (a = b)")
    ok = True
    braid_lhs = [("n", 1), "w"] * 3
    for side in ("u", "gl"):
        for _ in range(trials):
            f = FiniteLevelFunction.random(side, n, cfg, a, b, rng)
            lhs = weil_apply(braid_lhs, f, fourier_scale)
            rhs = weil_apply(["w", "w"], f, fourier_scale)
            ok = ok and lhs.equals(rhs)
            f4 = weil_apply(["w", "w", "w", "w"], f, fourier_scale)
            ok = ok and f4.equals(f)
    return ok


def plancherel_sum(f: FiniteLevelFunction) -> CycNumber:
    """Integral of f * conj(f) over the grid (with coset volumes)."""
    ring = f.ring
    total = ring.zero()
    vol_den = f.axes * f.b  # vol of each p^b M coset is p^(-b) per axis
    for idx in np.ndindex(*((f.P,) * f.axes)):
        v = f.coset_value(idx)
        total = total + v * v.conj()
    return CycNumber(ring, total.coeffs, total.den + vol_den)


def modulation_for_translation(f: FiniteLevelFunction, v):
    """The phase x -> psi(<v, x>) matching F(T_v f) = phase * F f."""
    m = f.m
    pa = Fraction(1, f.p**f.a)

    def phase(coords):
        if f.side == "gl":
            bs, cs = coords[:m], coords[m:]
            vb = [v[t] * pa for t in range(m)]
            vc = [v[m + t] * pa for t in range(m)]
            return sum((vc[i] * bs[i] + cs[i] * vb[i] for i in range(m)), Fraction(0))
        acc = Fraction(0)
        for i in range(m):
            vx, vy = v[2 * i] * pa, v[2 * i + 1] * pa
            x, y = coords[2 * i], coords[2 * i + 1]
            acc += 2 * (vx * x - f.u * vy * y)
        return acc

    return phase
