"""Seeded inputs, the call under test and the answer check of every workload.

A workload is a list of *blocks*, each a list of ``Op``.  A block is a fixed
mix of op kinds (strata), so a run made of whole blocks has the same mix at
every seed: the seed changes the random inputs inside each stratum, never
the mix.  Strata
are ordered cheapest first, and warm-up runs the first op of each family.

Inputs are stored as plain fractions and turned into fresh fllab objects by
``Op.build`` outside the timer, so no cached state (``InvariantPoint`` keeps
its derived corner data) carries over from one op to the next.  ``Op.call``
looks every fllab function up on its module at call time, so wrappers that
the tracer or the self-test install on those modules take effect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from fllab import geometry, orbital, weil
from fllab.errors import ExplosionGuard, OracleTooLarge, PrecisionExhausted
from fllab.linalg import Matrix, charpoly, val_det
from fllab.padic import INF, FieldConfig, smallest_nonresidue

# Raised by the call under test: the op is counted as refused, not retried.
REFUSALS = (ExplosionGuard, PrecisionExhausted, OracleTooLarge)

# Explosion bound passed to every deep fl_compare, per (n, p).  Each one admits
# the Hankel shapes that finish within about a second and refuses the next
# shape up (vd = 6 at n=3, p=3; vd = 4 at n=3, p=5 and at n=4, p=3) in
# milliseconds, so the refused share is fixed by the block mix.
DEEP_BOUND = {(3, 3): 10, (3, 5): 6, (4, 3): 6}
# Walk bound for the oracle's reference values; every oracle box fits under it.
REFERENCE_BOUND = 12


class WrongAnswer(Exception):
    """An identity or cross-check failed: the program gave a wrong answer."""


@dataclass
class Op:
    kind: str  # "<family> <stratum>", e.g. "fl_compare n=3 p=3 vd=4 e1=2"
    build: Callable[[], tuple]  # fresh arguments for call, built outside the timer
    call: Callable[..., Any]  # the call under test
    check: Callable[[Any], Any]  # raises WrongAnswer; returns the histogram value

    @property
    def family(self) -> str:
        return self.kind.split()[0]


def cfg_for(p: int) -> FieldConfig:
    return FieldConfig(p, smallest_nonresidue(p))


# ----------------------------------------------------------------------
# input storage: plain fractions in, fresh fllab objects out


def _store_point(a) -> tuple:
    return a.n, [c.as_fraction() for c in a.charpoly], [m.as_fraction() for m in a.moments]


def _point_maker(data, cfg):
    n, cp, mo = data

    def build():
        return (geometry.InvariantPoint(
            n, [cfg.scalar(c) for c in cp], [cfg.scalar(m) for m in mo], cfg),)

    return build


def _store_quad_matrix(mat) -> list:
    return [[(x.a.as_fraction(), x.b.as_fraction()) for x in row] for row in mat.entries]


def _hermitian(cfg, rows):
    return geometry.HnElement(
        Matrix(cfg, [[cfg.quad(a, b) for a, b in row] for row in rows]), check=False)


def _hermitian_maker(rows, cfg):
    return lambda: (_hermitian(cfg, rows),)


def _gl_maker(rows, cfg):
    return lambda: (geometry.GlnElement(Matrix.from_rows(cfg, rows)),)


# ----------------------------------------------------------------------
# deep-orbit generator


def deep_hermitian(n: int, cfg: FieldConfig, rng: random.Random, height: int = 3):
    """Fraction rows of a random integral hermitian matrix whose off-diagonal
    entries carry a factor p^0, p^1 or p^2."""
    p = cfg.p
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = (Fraction(rng.randint(-height, height)), Fraction(0))
        for j in range(i + 1, n):
            s = p ** rng.randint(0, 2)
            x = Fraction(rng.randint(-height, height) * s)
            y = Fraction(rng.randint(-height, height) * s)
            rows[i][j] = (x, y)
            rows[j][i] = (x, -y)
    return rows


@dataclass(frozen=True)
class Stratum:
    """Deep elements of one shape.  The Hankel form H = (c X'^(i+j) b) fixes
    the quotient L^dual / L of the Krylov lattice by its val det `vd` and its
    least entry valuation `e1`.  At n = 3, the valuation `disc` of the
    discriminant of the corner polynomial, and for a unit discriminant whether
    it is a square mod p (`split`), fix how X' acts on that quotient mod p.
    Together they set most of the cost of walking the lattices in between
    (and, for vd=4, e1=2, disc=0 at p=3, the count: 1 when split, 3 if not)."""

    vd: int  # with `up`, this val det or more
    count: int
    e1: int | None = None  # None: any
    disc: int | None = None  # None: any
    split: bool | None = None  # None: any
    up: bool = False

    def matches(self, vd, e1, disc, split) -> bool:
        return ((vd >= self.vd) if self.up else (vd == self.vd)) and \
            self.e1 in (None, e1) and self.disc in (None, disc) and self.split in (None, split)

    def label(self) -> str:
        out = f"vd>={self.vd}" if self.up else f"vd={self.vd}"
        if self.e1 is not None:
            out += f" e1={self.e1}"
        if self.disc is not None:
            out += f" disc={self.disc}"
        if self.split is not None:
            out += " split" if self.split else " nonsplit"
        return out


S = Stratum


def shape(X):
    """(vd, e1, disc, split) of X as in Stratum, or None when X is not rss."""
    m = X.n - 1
    d = geometry.moment_list(X, 2 * m - 1)
    vd = val_det(Matrix(X.cfg, [[d[i + j] for j in range(m)] for i in range(m)]))
    if vd is INF:
        return None
    e1 = min(int(x.valuation()) for x in d if not x.is_exact_zero())
    disc = split = None
    if m == 2:
        c0, c1, _ = charpoly(X.corner())
        delta = (c1 * c1 - c0 * 4).a.as_fraction()  # in F: the w-part vanishes
        if delta:
            p = X.cfg.p
            disc = int(X.cfg.scalar(delta).valuation())
            unit = delta / Fraction(p) ** disc
            residue = unit.numerator * pow(unit.denominator, -1, p) % p
            split = pow(residue, (p - 1) // 2, p) == 1
    return int(vd), e1, disc, split


def draw_strata(n: int, p: int, strata, rng: random.Random, tries: int = 50000):
    """Fill each stratum with `count` rss deep elements of its shape.

    Returns one list of (rows, element, invariant point) per stratum, in order.
    """
    cfg = cfg_for(p)
    out = [[] for _ in strata]
    for _ in range(tries):
        if all(len(got) == st.count for got, st in zip(out, strata)):
            return out
        rows = deep_hermitian(n, cfg, rng)
        X = _hermitian(cfg, rows)
        sh = shape(X)
        if sh is None:
            continue
        for got, st in zip(out, strata):
            if len(got) < st.count and st.matches(*sh):
                got.append((rows, X, geometry.invariants_of(X)))
                break
    raise RuntimeError(f"could not fill the deep strata for n={n}, p={p}")


# ----------------------------------------------------------------------
# answer checks


def _check_comparison(c):
    if c.o_u != c.o_gl:
        raise WrongAnswer(f"fl_compare: o_u = {c.o_u} but o_gl = {c.o_gl}")
    return (c.o_u, c.o_gl)


def _check_lemma1(rep):
    if not rep.ok:
        raise WrongAnswer(f"lemma1_check failed: {rep}")
    return (rep.o_u, rep.o_gl)


def _check_true(name):
    def check(ok):
        if ok is not True:
            raise WrongAnswer(f"{name} returned {ok!r}")
        return True

    return check


def _fl_op(label, data, cfg, bound):
    return Op(f"fl_compare {label}", _point_maker(data, cfg),
              lambda a: orbital.fl_compare(a, bound), _check_comparison)


# ----------------------------------------------------------------------
# campaign: verify- and lemma1-style traffic


# (family, n, p, height, count) per block; one verify point in five has no
# hermitian orbit, as in `fl-lab verify`.  Sorted by time, the median falls
# among the sixteen n=2 fl_compare ops with an orbit, and p90 in the middle of
# the five n=3 lemma1 ops, the slowest kind.  Points of the deep regime
# (about three n=3 draws in a hundred) are redrawn: one of them can cost as
# much as a whole block, so a pool that happens to hold one would set the
# run's speed.  The deep workload measures that regime.
CAMPAIGN_BLOCK = (
    ("fl_compare", 2, 3, 50, 10),
    ("fl_compare", 2, 5, 50, 10),
    ("lemma1_check", 2, 3, 12, 3),
    ("fl_compare", 3, 3, 20, 5),
    ("lemma1_check", 3, 3, 12, 5),
)
CAMPAIGN_BLOCKS = 14


def in_deep_regime(a) -> bool:
    """Integral lambda and Hankel val det >= 2: lattice counts above 1 possible."""
    return a.lam().is_integral() and val_det(a.hankel()) >= 2


def vanishing_point(n, cfg, height, rng):
    """An rss invariant point with odd Hankel valuation (no hermitian orbit)."""
    while True:
        rows = [[Fraction(rng.randint(-height, height), cfg.p ** rng.choice((0, 1)))
                 for _ in range(n)] for _ in range(n)]
        y = geometry.GlnElement(Matrix.from_rows(cfg, rows))
        if not geometry.is_rss(y):
            continue
        a = geometry.invariants_of(y)
        if not a.hermitian_exists() and not in_deep_regime(a):
            return a


def unit_q_hermitian(n, cfg, height, rng):
    """A random rss hermitian element with |q| = 1, as `fl-lab lemma1` draws them."""
    while True:
        x = geometry.sample_hermitian(n, cfg, height, rng)
        if not geometry.is_rss(x):
            continue
        q = geometry.block_q(x)
        if q.is_zero_at_precision() or q.valuation() != 0:
            continue
        if not in_deep_regime(geometry.invariants_of(x)):
            return x


def verify_point(n, cfg, height, rng):
    """An invariant point drawn as `fl-lab verify` draws it."""
    while True:
        a = geometry.sample_matched_pair(n, cfg, height, rng)[2]
        if not in_deep_regime(a):
            return a


def campaign(seed: int) -> list:
    rng = random.Random(f"campaign:{seed}")
    blocks = []
    for _ in range(CAMPAIGN_BLOCKS):
        block = []
        for family, n, p, height, count in CAMPAIGN_BLOCK:
            cfg = cfg_for(p)
            for i in range(count):
                if family == "lemma1_check":
                    x = unit_q_hermitian(n, cfg, height, rng)
                    block.append(Op(
                        f"lemma1_check n={n} p={p}",
                        _hermitian_maker(_store_quad_matrix(x.mat), cfg),
                        lambda X: orbital.lemma1_check(X, 12), _check_lemma1))
                elif i % 5 == 0:
                    a = vanishing_point(n, cfg, max(height, 8), rng)
                    block.append(_fl_op(f"n={n} p={p} vanishing", _store_point(a), cfg, 12))
                else:
                    a = verify_point(n, cfg, height, rng)
                    block.append(_fl_op(f"n={n} p={p}", _store_point(a), cfg, 12))
        blocks.append(block)
    return blocks


# ----------------------------------------------------------------------
# deep: fl_compare where the lattice counts exceed 1


# (n, p) -> strata of one block.  Per block: 19 answered ops and 3 refused
# ones.  The three vd=4, e1=2 ops take most of the walk time, and two of them
# have count 3.  Sorted by time, six answered ops sit below the seven
# vd=4, e1=0 and n=3, p=5, vd=2 ops and six above them, so the median falls
# in the middle of those seven and p90 among the vd=4, e1=2 ops.  Rare shapes
# that cost several times their stratum's median (vd=2 with e1=1, vd=4, e1=2
# with disc>0) are left out to keep runs steady.
DEEP_BLOCK = {
    (3, 3): [S(0, 2), S(2, 2, e1=0), S(4, 3, e1=0), S(4, 1, e1=2, disc=0, split=True),
             S(4, 2, e1=2, disc=0, split=False), S(6, 1, up=True)],
    (3, 5): [S(0, 1), S(2, 4, e1=0), S(4, 1, up=True)],
    (4, 3): [S(0, 1), S(2, 3), S(4, 1, up=True)],
}
DEEP_BLOCKS = 6


def deep(seed: int) -> list:
    rng = random.Random(f"deep:{seed}")
    blocks = [[] for _ in range(DEEP_BLOCKS)]
    for (n, p), strata in DEEP_BLOCK.items():
        cfg = cfg_for(p)
        bound = DEEP_BOUND[(n, p)]
        for block in blocks:
            for st, items in zip(strata, draw_strata(n, p, strata, rng)):
                label = f"n={n} p={p} {st.label()}"
                for _, _, a in items:
                    block.append(_fl_op(label, _store_point(a), cfg, bound))
    return blocks


# ----------------------------------------------------------------------
# oracle: box enumeration cross-checked against the walk


# (side, p) -> strata of one block, n = 3.  Per block: 38 answered ops and
# 2 refused ones.  Sorted by time, ten gl vd=0 ops of about 3 ms come first,
# then eleven of 10-12 ms (gl vd=2 at p=3, u vd=0); the median falls among the
# last of these, the four u, p=3, vd=0 ops.  p90 falls among the eight u, p=3,
# vd=2 ops, below the single gl, p=5, vd=4 op that is 2-3 times slower.
ORACLE_BLOCK = {
    ("gl", 3): [S(0, 5), S(2, 4), S(4, 2, e1=0), S(4, 4, e1=2), S(6, 1, up=True)],
    ("u", 3): [S(0, 4), S(2, 8), S(4, 1, up=True)],
    ("gl", 5): [S(0, 5), S(2, 2), S(4, 1)],
    ("u", 5): [S(0, 3)],
}
ORACLE_BLOCKS = 6


def _oracle_op(side, label, rows, cfg):
    make = _hermitian_maker(rows, cfg) if side == "u" else _gl_maker(rows, cfg)
    walk = orbital.orbital_u_unit if side == "u" else orbital.orbital_gl_unit
    reference = []

    def check(value):
        if not reference:  # the walk value, computed once and outside the timer
            reference.append(walk(*make(), REFERENCE_BOUND).value)
        if value != reference[0]:
            raise WrongAnswer(f"orbital_oracle({side}) = {value}, walk = {reference[0]}")
        return value

    return Op(f"orbital_oracle {side} {label}", make,
              lambda elt: orbital.orbital_oracle(side, elt), check)


def oracle(seed: int) -> list:
    rng = random.Random(f"oracle:{seed}")
    blocks = [[] for _ in range(ORACLE_BLOCKS)]
    for (side, p), strata in ORACLE_BLOCK.items():
        cfg = cfg_for(p)
        for block in blocks:
            for st, items in zip(strata, draw_strata(3, p, strata, rng)):
                label = f"n=3 p={p} {st.label()}"
                for rows, X, a in items:
                    if side == "gl":
                        Y = geometry.gl_representative(a)
                        rows = [[x.as_fraction() for x in row] for row in Y.mat.entries]
                    block.append(_oracle_op(side, label, rows, cfg))
    return blocks


# ----------------------------------------------------------------------
# weil: finite-level Fourier and SL2 identities


# (check, p, n, count) per block, level (1,1), one trial: one random function
# per side and call.  Cost is set by (check, p, n), so the counts also place the
# percentiles: the median falls in the middle of the order-four p=3 ops, p90
# in the middle of the SL2 p=3, n=2 ops, and the four slow checks stay above.
WEIL_BLOCK = (
    ("unit_selfdual", 3, 2, 16),
    ("order_four", 3, 2, 68),
    ("sl2", 3, 2, 12),
    ("unit_selfdual", 5, 2, 1),
    ("order_four", 5, 2, 1),
    ("sl2", 5, 2, 1),
    ("sl2", 3, 3, 1),
)
WEIL_BLOCKS = 2


def _weil_call(check, n):
    if check == "unit_selfdual":
        return lambda cfg, s: weil.unit_selfdual_check(cfg, n, (1, 1))
    if check == "order_four":
        return lambda cfg, s: weil.fourier_order_four_check(cfg, n, (1, 1), 1, s)
    return lambda cfg, s: weil.sl2_relation_check(cfg, n, (1, 1), 1, s)


def weil_workload(seed: int) -> list:
    rng = random.Random(f"weil:{seed}")
    blocks = []
    for _ in range(WEIL_BLOCKS):
        block = []
        for check, p, n, count in WEIL_BLOCK:
            cfg = cfg_for(p)
            for _ in range(count):
                s = rng.randrange(2**32)
                block.append(Op(f"{check} p={p} n={n}", lambda cfg=cfg, s=s: (cfg, s),
                                _weil_call(check, n), _check_true(check)))
        blocks.append(block)
    return blocks


WORKLOADS = {
    "campaign": campaign,
    "deep": deep,
    "oracle": oracle,
    "weil": weil_workload,
}
