"""Canonical lattices over O_F and O_E and stable-lattice enumeration.

A lattice is stored by its canonical triangular basis (columns generate,
exact entries), so equality of lattices is bit-equality of bases.  The
enumeration of T-stable lattices between two bounds walks the poset of
stable modules through minimal extensions (cyclic closures of p-layer
vectors), de-duplicating by canonical form; a structurally independent
box enumeration backs the test oracles.

Distinct calls are independent and freely parallelizable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExplosionGuard, ZeroModule
from .linalg import Matrix, hnf_basis, inverse, val_det
from .padic import INF, FieldConfig, QuadScalar


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
        mat, pivots = hnf_basis(cols, cfg, quad=(kind == "E"))
        if len(pivots) != len(cols[0]):
            raise ValueError("generators do not span a full-rank lattice")
        return Lattice(mat, kind, canonical=True)

    # -- basic data -------------------------------------------------------

    @property
    def cfg(self) -> FieldConfig:
        return self.basis.cfg

    @property
    def rank(self) -> int:
        return self.basis.rows

    def val_det(self) -> int:
        v = val_det(self.basis)
        assert v is not INF
        return int(v)

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

    def intersect(self, other: "Lattice") -> "Lattice":
        return self.dual().sum(other.dual()).dual()


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


def quotient_reps(sub: Lattice, sup: Lattice):
    """Exact coset representatives of sup/sub (triangular digit vectors)."""
    rel_cols = [sup.coords(sub.basis.col(j)) for j in range(sub.rank)]
    mat, pivots = hnf_basis(rel_cols, sub.cfg, quad=(sub.kind == "E"))
    assert len(pivots) == sub.rank
    p = sub.cfg.p
    exps = []
    for j in range(mat.cols):
        d = mat[pivots[j], j]
        dv = d.a.valuation() if isinstance(d, QuadScalar) else d.valuation()
        exps.append(int(dv))
    quad = sub.kind == "E"

    def digit_values(e):
        if quad:
            return [
                sub.cfg.quad(x, y) for x in range(p**e) for y in range(p**e)
            ]
        return [sub.cfg.scalar(x) for x in range(p**e)]

    reps = [[]]
    for e in exps:
        vals = digit_values(e)
        reps = [r + [v] for r in reps for v in vals]
    out = []
    for digits in reps:
        vec = None
        for j, t in enumerate(digits):
            col = sup.basis.col(j)
            term = [x * t for x in col]
            vec = term if vec is None else [a + b for a, b in zip(vec, term)]
        out.append(vec)
    return out


def quotient_size_exp(sub: Lattice, sup: Lattice) -> int:
    """e with [sup : sub] = p^e."""
    return sub.val_det() - sup.val_det()


def p_layer(M: Lattice, top: Lattice) -> Lattice:
    """{v in top : p v in M} = (p^-1 M) /\\ top."""
    return M.scaled(-1).intersect(top)


def enumerate_stable_between(L0: Lattice, L1: Lattice, T: Matrix, bound_exp: int = 12):
    """All lattices L with L0 <= L <= L1 and T L <= L, complete and duplicate-free.

    Walks upward from L0 by cyclic closures M + O[T] v of p-layer vectors
    (every minimal stable extension is of this shape), de-duplicating by
    canonical form; output sorted by canonical key.
    """
    if not L1.contains_lattice(L0):
        raise ValueError("L0 must be contained in L1")
    if not stabilizes(T, L0) or not stabilizes(T, L1):
        raise ValueError("both bounds must be T-stable")
    e = quotient_size_exp(L0, L1) * (2 if L0.kind == "E" else 1)
    if e > bound_exp:
        raise ExplosionGuard(f"quotient size p^{e} exceeds p^{bound_exp}")
    m = L0.rank
    found = {L0.key(): L0}
    frontier = [L0]
    top_key = L1.key()
    while frontier:
        M = frontier.pop()
        if M.key() == top_key:
            continue
        layer = p_layer(M, L1)
        for v in quotient_reps(M, layer):
            if all(x.is_exact_zero() for x in v):
                continue
            gens = [M.basis.col(j) for j in range(m)]
            w = list(v)
            for _ in range(m):
                gens.append(list(w))
                w = T.apply(w)
            N = Lattice.from_generators(gens, L0.cfg, L0.kind)
            k = N.key()
            if k not in found:
                found[k] = N
                frontier.append(N)
    return sorted(found.values(), key=lambda L: L.key())


def enumerate_selfdual_stable(T: Matrix, H: Matrix, bound_exp: int = 12):
    """All L with O_E^m <= L <= H^-1 O_E^m and T L <= L that are self-dual for
    h(v, w) = sigma(v)^T H w.

    Empty when H is not integral (no self-dual lattice can contain O_E^m).
    T must be integral and self-adjoint for h, which makes H^-1 O_E^m T-stable.
    """
    if not H.is_integral():
        return []
    std = Lattice.standard(H.cfg, H.rows, kind="E")
    cands = enumerate_stable_between(std, std.dual(H), T, bound_exp)
    return [L for L in cands if L.is_selfdual(H)]


# ----------------------------------------------------------------------
# independent box enumeration (oracle support)


def enumerate_all_between(L0: Lattice, L1: Lattice, max_quotient_exp: int = 8):
    """Every lattice between L0 and L1, by direct generation of canonical
    triangular matrices relative to L1 (no stability logic).

    Diagonal exponents are chosen first (so the canonical below-diagonal
    ranges (i, j) -> [0, p^{k_i}) are known), then each candidate is filtered
    by containment of L0.  Each lattice in the box appears exactly once.
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
            gens = []
            for col in cols:
                vec = None
                for i, x in enumerate(col):
                    term = [y * x for y in L1.basis.col(i)]
                    vec = term if vec is None else [a + b for a, b in zip(vec, term)]
                gens.append(vec)
            L = Lattice.from_generators(gens, cfg, L0.kind)
            if L.contains_lattice(L0):
                out[L.key()] = L
    return sorted(out.values(), key=lambda L: L.key())
