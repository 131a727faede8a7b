"""Canonical lattices over O_F and O_E and stable-lattice enumeration.

A lattice is stored by its canonical triangular basis (columns generate,
exact entries), so equality of lattices is bit-equality of bases.  The
T-stable lattices between two bounds are found by a walk up the poset of
stable modules: each stable L > M holds a closure M + O[T] v of some v in
the p-layer p^-1 M, and it only depends on the residue-field line of v.  For
a hermitian form the walk keeps to integral lattices (L <= L^dual), which
reach every self-dual one, as all lattices below an integral one are
integral.  A structurally independent box enumeration backs the oracles.

Distinct calls are independent and freely parallelizable.
"""

from __future__ import annotations

from fractions import Fraction

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

    def is_selfdual(self, form: Matrix | None = None) -> bool:
        """L = L^dual: the Gram matrix is integral (L <= L^dual) and unimodular."""
        G = self.gram(form)
        return G.is_integral() and val_det(G) == 0

    # -- lattice operations -----------------------------------------------

    def sum(self, other: "Lattice") -> "Lattice":
        cols = [self.basis.col(j) for j in range(self.rank)]
        cols += [other.basis.col(j) for j in range(other.rank)]
        return Lattice.from_generators(cols, self.cfg, self.kind)


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


def quotient_reps(sub: Lattice, layer: Lattice):
    """One vector per line of layer/sub, a vector space over the residue field k
    (k_F, or k_E over O_E) when layer is a p-layer: sub <= layer <= p^-1 sub.

    Against layer's basis b_j, sub has canonical diagonal 1 or p.  The vectors
    sum t_j b_j, t_j in k on the p columns, are one per coset and, as
    p.layer <= sub, add and scale like the quotient; those whose leading
    nonzero digit is 1 are one per line, (Q^d - 1)/(Q - 1) for dimension d and
    Q = |k|.  The walk needs no more: M + O[T] v only depends on the line of v.
    """
    cfg, quad = sub.cfg, sub.kind == "E"
    rel_cols = [layer.coords(sub.basis.col(j)) for j in range(sub.rank)]
    mat, pivots = hnf_basis(rel_cols, cfg, quad=quad)
    assert len(pivots) == sub.rank
    exps = [(mat[i, j].a if quad else mat[i, j]).valuation() for j, i in enumerate(pivots)]
    if max(exps) > 1:
        raise ValueError("layer is not a p-layer of sub")
    free = [layer.basis.col(j) for j, e in enumerate(exps) if e == 1]
    r = range(cfg.p)
    digits = [cfg.quad(x, y) for x in r for y in r] if quad else [cfg.scalar(x) for x in r]
    out = []
    for lead, col in enumerate(free):
        vecs = [col]
        for b in free[lead + 1:]:
            vecs = [[x + t * y for x, y in zip(v, b)] for v in vecs for t in digits]
        out += vecs
    return out


def quotient_size_exp(sub: Lattice, sup: Lattice) -> int:
    """e with [sup : sub] = p^e."""
    return sub.val_det() - sup.val_det()


def enumerate_stable_between(L0: Lattice, L1: Lattice, T: Matrix, bound_exp: int = 12,
                             form: Matrix | None = None):
    """All lattices L with L0 <= L <= L1 and T L <= L, complete, duplicate-free and
    sorted by key; with a hermitian form H, for which T must be self-adjoint,
    only the H-integral ones (L <= L^dual(H)).

    Walks up from L0, extending each found M by the closures M + O[T] v of one
    v per line of its p-layer p^-1 M /\\ L1 (/\\ M^dual(H) with a form).  A
    wanted L > M meets it outside M, as L <= L1 (and L <= L^dual <= M^dual),
    in a v whose closure lies in L; with a form the chain up to L stays integral,
    as N <= L <= L^dual <= N^dual.  A closure is integral iff all h(v, T^k v),
    k < m, are (v is in M^dual, T is self-adjoint and integral), and the others
    are dropped.  The walk ends at L1, or at a self-dual M, whose layer is M.
    ExplosionGuard bounds all of L1/L0, before the walk.
    """
    if not L1.contains_lattice(L0):
        raise ValueError("L0 must be contained in L1")
    if not stabilizes(T, L0) or not stabilizes(T, L1):
        raise ValueError("both bounds must be T-stable")
    e = quotient_size_exp(L0, L1) * (2 if L0.kind == "E" else 1)
    if e > bound_exp:
        raise ExplosionGuard(f"quotient size p^{e} exceeds p^{bound_exp}")
    if form is not None and not L0.gram(form).is_integral():
        return []
    m, cfg, p = L0.rank, L0.cfg, L0.cfg.scalar(L0.cfg.p)
    # the layer is the dual of p M^dual + L1^dual (+ sigma(H)^T M); it is M at
    # M = L1, or where val det M^dual = -val det M - val det H equals val det M
    top = [list(c) for c in inverse(L1._pairing_rows(None)).transpose().entries]
    end_vd = L1.val_det() if form is None else Fraction(-val_det(form), 2)
    found = {L0.key(): L0}
    frontier = [L0]
    while frontier:
        M = frontier.pop()
        if M.val_det() == end_vd:
            continue
        gens = [[x * p for x in c] for c in inverse(M._pairing_rows(None)).transpose().entries]
        if form is not None:
            gens += [[x.sigma() for x in row] for row in M._pairing_rows(form).entries]
        base = [M.basis.col(j) for j in range(m)]
        for v in quotient_reps(M, Lattice.from_generators(gens + top, cfg, L0.kind).dual()):
            new = [v]
            for _ in range(m - 1):
                new.append(T.apply(new[-1]))
            if form is not None:
                hv = [x.sigma() for x in form.apply(v)]  # h(v, w) = hv . w
                if not all(_dot(hv, w).is_integral() for w in new):
                    continue
            N = Lattice.from_generators(base + new, cfg, L0.kind)
            if N.key() not in found:
                found[N.key()] = N
                frontier.append(N)
    return sorted(found.values(), key=lambda L: L.key())


def enumerate_selfdual_stable(T: Matrix, H: Matrix, bound_exp: int = 12):
    """All L with O_E^m <= L <= H^-1 O_E^m and T L <= L that are self-dual for
    h(v, w) = sigma(v)^T H w: among the H-integral ones the walk finds, those
    with [L^dual : L] = 1, i.e. val det L = -val det H / 2.

    Empty when H is not integral (no self-dual lattice can contain O_E^m).
    T must be integral and self-adjoint for h, which makes H^-1 O_E^m T-stable.
    """
    if not H.is_integral():
        return []
    std = Lattice.standard(H.cfg, H.rows, kind="E")
    half = Fraction(-val_det(H), 2)
    return [L for L in enumerate_stable_between(std, std.dual(H), T, bound_exp, form=H)
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
    e = quotient_size_exp(L0, L1)
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
