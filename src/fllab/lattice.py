"""Canonical lattices over O_F and O_E and stable-lattice enumeration.

A lattice is stored by its canonical triangular basis (columns generate,
exact entries), so equality of lattices is bit-equality of bases.  The walk
finds the T-stable lattices O^m <= L <= H^-1 O^m, for integral T and H with
sigma(T)^T H = H T, by going up the poset of stable modules: each stable
L > M holds a closure M + O[T] v of some v in the p-layer of M, and it only
depends on the residue-field line of v.  Over O_E it keeps to the lattices
integral for h(v, w) = sigma(v)^T H w (L <= L^dual), which reach every
self-dual one, as all lattices below an integral one are integral.

For M with basis B the p-layer is p^-1 M /\\ H^-1 O^m over O_F, and
p^-1 M /\\ M^dual over O_E, as M^dual lies in (O^m)^dual = H^-1 O^m.  B x / p
is in it iff K x = 0 mod p, for K = H B, resp. the Gram matrix sigma(B)^T H B,
so the layer is the kernel of K on k^m: the walk's only per-layer algebra.
A structurally independent box enumeration backs the oracles.

Distinct calls are independent and freely parallelizable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import ExplosionGuard, ZeroModule
from .linalg import Matrix, _dot, hnf_basis, inverse, val_det
from .padic import FieldConfig, QuadScalar


class Lattice:
    """Full-rank O-lattice in F^m or E^m with canonical exact basis."""

    __slots__ = ("basis", "kind", "_key")

    def __init__(self, basis: Matrix, kind: str, canonical: bool = False):
        if kind not in ("F", "E"):
            raise ValueError("kind must be F or E")
        if not canonical:
            mat, pivots = hnf_basis(
                [basis.col(j) for j in range(basis.cols)], basis.cfg, quad=(kind == "E")
            )
            if len(pivots) != basis.rows:
                raise ValueError("generators do not span a full-rank lattice")
            basis = mat
        self.basis = basis
        self.kind = kind
        self._key = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def standard(cfg: FieldConfig, m: int, kind: str = "F") -> "Lattice":
        return Lattice(Matrix.identity(cfg, m, quad=(kind == "E")), kind, canonical=True)

    @staticmethod
    def from_generators(cols, cfg: FieldConfig, kind: str = "F") -> "Lattice":
        return Lattice(Matrix(cfg, list(zip(*cols))), kind)

    # -- basic data -------------------------------------------------------

    @property
    def cfg(self) -> FieldConfig:
        return self.basis.cfg

    @property
    def rank(self) -> int:
        return self.basis.rows

    def val_det(self) -> int:
        """Sum of the diagonal exponents of the triangular canonical basis."""
        return sum(int(self.basis[j, j].valuation()) for j in range(self.rank))

    def index_sign(self) -> int:
        return -1 if self.val_det() % 2 else 1

    def key(self) -> tuple:
        """Canonical hashable key (exact basis entries as fractions)."""
        if self._key is None:
            entries = []
            for row in self.basis.entries:
                for x in row:
                    if isinstance(x, QuadScalar):
                        entries.append((x.a.as_fraction(), x.b.as_fraction()))
                    else:
                        entries.append((x.as_fraction(),))
            self._key = (self.kind, self.rank, tuple(entries))
        return self._key

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Lattice({self.kind}, {self.basis!r})"

    # -- membership and comparison -----------------------------------------

    def coords(self, v):
        """Coordinates of v against the (lower-triangular) canonical basis."""
        B = self.basis
        m = self.rank
        out = []
        rem = list(v)
        for j in range(m):
            xj = rem[j] / B[j, j]
            out.append(xj)
            for i in range(j + 1, m):
                rem[i] = rem[i] - xj * B[i, j]
        return out

    def contains(self, v) -> bool:
        """True iff v has integral coordinates against the basis."""
        if len(v) != self.rank:
            raise ValueError("dimension mismatch")
        return all(x.is_integral() for x in self.coords(v))

    def contains_lattice(self, other: "Lattice") -> bool:
        return all(self.contains(other.basis.col(j)) for j in range(other.rank))

    def scaled(self, k: int) -> "Lattice":
        """p^k * L (canonical form scales with it)."""
        pk = Fraction(self.cfg.p) ** k
        s = self.cfg.scalar(pk)
        mat = Matrix(self.cfg, [[x * s for x in row] for row in self.basis.entries])
        return Lattice(mat, self.kind, canonical=True)

    # -- duality ------------------------------------------------------------

    def _pairing_rows(self, form: Matrix | None) -> Matrix:
        """sigma(B)^T H over E, B^T H over F, for the basis B (H = identity if None)."""
        B = self.basis
        G = B.sigma_transpose() if self.kind == "E" else B.transpose()
        return G if form is None else G * form

    def dual(self, form: Matrix | None = None) -> "Lattice":
        """Dual under the pairing v^T H w over F, hermitian sigma(v)^T H w over E;
        H = form, or the identity when form is None."""
        return Lattice(inverse(self._pairing_rows(form)), self.kind)

    def gram(self, form: Matrix | None = None) -> Matrix:
        """Gram matrix of the pairing of dual() on the basis."""
        return self._pairing_rows(form) * self.basis

    def is_selfdual(self) -> bool:
        """L = L^dual: the Gram matrix is integral (L <= L^dual) and unimodular."""
        G = self.gram()
        return G.is_integral() and val_det(G) == 0


class ModuleBasis:
    """Canonical basis of a possibly lower-rank O-module (flagged)."""

    def __init__(self, mat: Matrix, pivots, kind: str):
        self.mat = mat
        self.pivots = list(pivots)
        self.kind = kind

    @property
    def full_rank(self) -> bool:
        return len(self.pivots) == self.mat.rows

    def to_lattice(self) -> Lattice:
        if not self.full_rank:
            raise ValueError("module is not full rank")
        return Lattice(self.mat, self.kind, canonical=True)


def module_closure(T: Matrix, v, kind: str = "F") -> ModuleBasis:
    """Canonical basis of span_O(v, Tv, ..., T^{m-1}v); full rank iff v is cyclic."""
    if all(x.is_exact_zero() for x in v):
        raise ZeroModule("closure of the zero vector")
    m = T.rows
    cols = []
    w = list(v)
    for _ in range(m):
        cols.append(list(w))
        w = T.apply(w)
    mat, pivots = hnf_basis(cols, T.cfg, quad=(kind == "E"))
    return ModuleBasis(mat, pivots, kind)


def stabilizes(T: Matrix, L: Lattice) -> bool:
    """T L <= L."""
    return all(L.contains(T.apply(L.basis.col(j))) for j in range(L.rank))


def quotient_reps(M: Lattice, K: Matrix):
    """One vector B x / p per line of the kernel of K mod p on k^m (k = k_F, or
    k_E over O_E), for M with basis B and an integral K.

    With K = H B over O_F these are the lines of the p-layer
    (p^-1 M /\\ H^-1 O^m) / M, as H B x / p is integral iff K x = 0 mod p; with
    the Gram matrix K = sigma(B)^T H B over O_E, of (p^-1 M /\\ M^dual) / M,
    which holds the rest of the layer as M^dual <= H^-1 O^m.  B x / p depends
    on x only up to M, and the x with leading nonzero digit 1 are one per line
    of k^m; those whose integer residues (pairs a + b w, w^2 = u, over k_E)
    pass K x = 0 are one per line of the kernel, (Q^d - 1)/(Q - 1) of them for
    dimension d and Q = |k|.  The walk needs no more: M + O[T] v only depends
    on the line of v.
    """
    cfg, m, quad = M.cfg, M.rank, M.kind == "E"
    p, u = cfg.p, cfg.u
    parts = (lambda x: (x.a, x.b)) if quad else (lambda x: (x, cfg.zero()))
    res = [[tuple(y.lift_scaled(0, 1) for y in parts(x)) for x in row] for row in K.entries]
    digits = list(product(range(p), range(p) if quad else (0,)))

    def in_kernel(x):
        for row in res:
            a = sum(r * s + u * rw * sw for (r, rw), (s, sw) in zip(row, x))
            b = sum(r * sw + rw * s for (r, rw), (s, sw) in zip(row, x))
            if a % p or b % p:
                return False
        return True

    out = []
    for lead in range(m):
        for rest in product(digits, repeat=m - 1 - lead):
            x = [(0, 0)] * lead + [(1, 0)] + list(rest)
            if in_kernel(x):
                coeffs = [cfg.quad(Fraction(a, p), Fraction(b, p)) if quad
                          else cfg.scalar(Fraction(a, p)) for a, b in x]
                out.append([_dot(row, coeffs) for row in M.basis.entries])
    return out


def enumerate_stable_between(T: Matrix, H: Matrix, bound_exp: int = 12):
    """All lattices L with O^m <= L <= H^-1 O^m and T L <= L, complete,
    duplicate-free and sorted by key; over O_E (T with E entries) only the ones
    integral for h(v, w) = sigma(v)^T H w (L <= L^dual).

    T and H must be integral with sigma(T)^T H = H T: then T O^m <= O^m, and
    H T v = sigma(T)^T H v is integral for H v integral, so both bounds are
    T-stable.  The walk goes up from O^m, extending each found M by the
    closures M + O[T] v of one v per line of its p-layer, the kernel of K mod p
    (see quotient_reps).  A wanted L > M meets that layer outside M, as
    L <= H^-1 O^m (and L <= L^dual <= M^dual), in a v whose closure lies in L;
    over O_E the chain up to L stays integral, as N <= L <= L^dual <= N^dual.
    A closure is integral iff all h(v, T^k v), k < m, are (v is in M^dual, T is
    self-adjoint and integral), and the others are dropped.  The walk ends
    where the kernel is 0: K is then unimodular, so M = H^-1 O^m over O_F and
    M = M^dual, with no integral lattice above it, over O_E.
    ExplosionGuard bounds all of H^-1 O^m / O^m, before the walk.
    """
    if not (T.is_integral() and H.is_integral() and (T.sigma_transpose() * H).agrees(H * T)):
        raise ValueError("T and H must be integral, with sigma(T)^T H = H T")
    cfg, m, kind, quad = T.cfg, T.rows, T.kind, T.kind == "E"
    e = val_det(H) * (2 if quad else 1)  # INF for a singular H
    if e > bound_exp:
        raise ExplosionGuard(f"quotient size p^{e} exceeds p^{bound_exp}")
    std = Lattice.standard(cfg, m, kind)
    found = {std.key(): std}
    frontier = [std]
    while frontier:
        M = frontier.pop()
        base = [M.basis.col(j) for j in range(m)]
        for v in quotient_reps(M, M.gram(H) if quad else H * M.basis):
            new = [v]
            for _ in range(m - 1):
                new.append(T.apply(new[-1]))
            if quad:
                hv = [x.sigma() for x in H.apply(v)]  # h(v, w) = hv . w
                if not all(_dot(hv, w).is_integral() for w in new):
                    continue
            N = Lattice.from_generators(base + new, cfg, kind)
            if N.key() not in found:
                found[N.key()] = N
                frontier.append(N)
    return sorted(found.values(), key=lambda L: L.key())


def enumerate_selfdual_stable(T: Matrix, H: Matrix, bound_exp: int = 12):
    """All L with O_E^m <= L <= H^-1 O_E^m and T L <= L that are self-dual for
    h(v, w) = sigma(v)^T H w: among the H-integral ones the walk finds, those
    with [L^dual : L] = 1, i.e. val det L = -val det H / 2.

    Empty when H is not integral (no self-dual lattice can contain O_E^m).
    T must be integral and self-adjoint for h.
    """
    if not H.is_integral():
        return []
    half = Fraction(-val_det(H), 2)
    return [L for L in enumerate_stable_between(T.to_quad(), H, bound_exp)
            if L.val_det() == half]


# ----------------------------------------------------------------------
# independent box enumeration (oracle support)


def enumerate_all_between(L0: Lattice, L1: Lattice, max_quotient_exp: int = 8):
    """Every lattice between L0 and L1, by direct generation of canonical
    triangular matrices relative to L1 (no stability logic).

    Diagonal exponents are chosen first (so the canonical below-diagonal
    ranges (i, j) -> [0, p^{k_i}) are known), then each candidate digit matrix
    is filtered by containment of L0 in L1 coordinates; only the survivors are
    mapped back and put in canonical form.  Each lattice in the box appears
    exactly once.
    """
    if not L1.contains_lattice(L0):
        raise ValueError("L0 must be contained in L1")
    e = L0.val_det() - L1.val_det()
    mult = 2 if L0.kind == "E" else 1
    if mult * e > max_quotient_exp:
        raise ExplosionGuard(f"box quotient p^{mult * e} too large")
    m = L0.rank
    cfg = L0.cfg
    p = cfg.p
    quad = L0.kind == "E"
    rel_L0 = [L1.coords(L0.basis.col(j)) for j in range(m)]

    def scalars(exp):
        if quad:
            return [cfg.quad(x, y) for x in range(p**exp) for y in range(p**exp)]
        return [cfg.scalar(x) for x in range(p**exp)]

    # diagonal exponent vectors with sum <= e (det divisibility bound)
    kvecs = [[]]
    for _ in range(m):
        kvecs = [kv + [k] for kv in kvecs for k in range(e + 1) if sum(kv) + k <= e]

    out = {}
    for kv in kvecs:
        # columns j = 0..m-1, entry (i, j) for i > j ranges mod p^{k_i}
        cols_choices = [[]]
        for j in range(m):
            col_base = [cfg.quad(0, 0) if quad else cfg.zero()] * m
            col_base[j] = cfg.quad(Fraction(p) ** kv[j], 0) if quad else cfg.scalar(
                Fraction(p) ** kv[j])
            variants = [list(col_base)]
            for i in range(j + 1, m):
                variants = [
                    c[:i] + [v] + c[i + 1:] for c in variants for v in scalars(kv[i])
                ]
            cols_choices = [cc + [c] for cc in cols_choices for c in variants]
        for cols in cols_choices:
            digits = Lattice(Matrix(cfg, list(zip(*cols))), L0.kind, canonical=True)
            if not all(digits.contains(v) for v in rel_L0):
                continue
            gens = []
            for col in cols:
                vec = None
                for i, x in enumerate(col):
                    term = [y * x for y in L1.basis.col(i)]
                    vec = term if vec is None else [a + b for a, b in zip(vec, term)]
                gens.append(vec)
            L = Lattice.from_generators(gens, cfg, L0.kind)
            out[L.key()] = L
    return sorted(out.values(), key=lambda L: L.key())
