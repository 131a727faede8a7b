"""Invariant theory of the two conjugation actions.

Block decomposition X = (X' b; c lambda), the invariant q = c*b, the
rss test via the moment Hankel matrix, the invariant map to the common
quotient (characteristic polynomial plus corner moments), the transfer
sign, constructive representatives on both sides, matching, and seeded
random sampling of matched pairs.

Everything is pure and deterministic given (cfg, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    NoHermitianOrbit,
    NotRss,
    PrecisionExhausted,
    SamplingExhausted,
    SideError,
)
from .linalg import Matrix, _dot, charpoly, hermitian_split, inverse, val_det
from .padic import INF, FieldConfig, PAdicScalar, QuadScalar, parse_scalar, format_scalar


class GlnElement:
    """Element of gl_n(F) under the conjugation action of embedded GL_{n-1}(F)."""

    def __init__(self, mat: Matrix):
        if mat.rows != mat.cols or mat.rows < 1:
            raise ValueError("need a square matrix of size >= 1")
        if mat.kind != "F":
            raise SideError("general-linear side elements live over F")
        self.mat = mat
        self.n = mat.rows

    @property
    def cfg(self):
        return self.mat.cfg

    def corner(self) -> Matrix:
        return self.mat.block(0, self.n - 1, 0, self.n - 1)

    def b_col(self):
        return [self.mat[i, self.n - 1] for i in range(self.n - 1)]

    def c_row(self):
        return [self.mat[self.n - 1, j] for j in range(self.n - 1)]

    def lam(self):
        return self.mat[self.n - 1, self.n - 1]

    def conjugate_small(self, g: Matrix) -> "GlnElement":
        """Conjugation by diag(g, 1) for g in GL_{n-1}(F)."""
        G = _embed(g, self.n)
        return GlnElement(G * self.mat * inverse(G))


class HnElement:
    """Hermitian element X = t(X)^sigma in gl_n(E), under embedded U_{n-1}(F)."""

    def __init__(self, mat: Matrix, check: bool = True):
        if mat.rows != mat.cols or mat.rows < 1:
            raise ValueError("need a square matrix of size >= 1")
        mat = mat.to_quad()
        if check and not mat.is_hermitian():
            raise ValueError("matrix is not hermitian at working precision")
        self.mat = mat
        self.n = mat.rows

    @property
    def cfg(self):
        return self.mat.cfg

    def corner(self) -> Matrix:
        return self.mat.block(0, self.n - 1, 0, self.n - 1)

    def b_col(self):
        return [self.mat[i, self.n - 1] for i in range(self.n - 1)]

    def c_row(self):
        return [self.mat[self.n - 1, j] for j in range(self.n - 1)]

    def lam(self) -> PAdicScalar:
        return self.mat[self.n - 1, self.n - 1].f_part()

    def conjugate_small(self, g: Matrix) -> "HnElement":
        G = _embed(g.to_quad(), self.n)
        return HnElement(G * self.mat * inverse(G), check=False)


def _embed(g: Matrix, n: int) -> Matrix:
    """diag(g, 1) in size n."""
    cfg = g.cfg
    quad = g.kind == "E"
    one = cfg.quad(1, 0) if quad else cfg.one()
    zero = cfg.quad(0, 0) if quad else cfg.zero()
    return Matrix(cfg, [[g[i, j] if (i < n - 1 and j < n - 1) else (one if i == j else zero)
                         for j in range(n)] for i in range(n)])


@dataclass(frozen=True)
class TransferSign:
    v: int
    omega: int

    def __post_init__(self):
        assert self.omega == (-1 if self.v % 2 else 1)


class InvariantPoint:
    """Point of the common quotient: charpoly coefficients plus corner moments.

    Coordinates: the n non-leading coefficients of det(tI - X) (ascending) and
    the moments a_i = e_n^* X^i e_n for i = 1..n-1, all in F.  The corner data
    (lambda, d_j = c X'^j b) is recovered by a triangular change of variables;
    q = d_0.
    """

    def __init__(self, n: int, charpoly_coeffs, moments, cfg: FieldConfig):
        if len(charpoly_coeffs) != n or len(moments) != n - 1:
            raise ValueError("need n charpoly coefficients and n-1 moments")
        self.n = n
        self.cfg = cfg
        self.charpoly = list(charpoly_coeffs)  # c_0..c_{n-1}, leading 1 implicit
        self.moments = list(moments)  # a_1..a_{n-1}
        self._derived = None

    # -- derived corner data -------------------------------------------

    def _derive(self):
        """(lam, d_0..d_{2m-1}, chi') with m = n - 1, via the power-sum recursion."""
        if self._derived is not None:
            return self._derived
        n, m, cfg = self.n, self.n - 1, self.cfg
        if n == 1:
            lam = -self.charpoly[0]
            self._derived = (lam, [], [])
            return self._derived
        lam = self.moments[0]
        # r_i = e* X^i e, extended by the charpoly recursion
        r = [cfg.one()] + list(self.moments)
        need = 2 * m + 2
        while len(r) < need:
            r.append(-_dot(self.charpoly, r[len(r) - n:]))
        # recursion r_{i+1} = lam r_i + sum_k gamma_{i,k} d_k with gamma_{i,i-1} = 1
        d = []
        gamma = [cfg.one()]  # coefficients of c X'^k inside e* X^i restricted row
        for i in range(1, 2 * m + 1):
            acc = r[i + 1] - lam * r[i]
            for k in range(len(d)):
                if k < len(gamma) and k != i - 1:
                    acc = acc - gamma[k] * d[k]
            d.append(acc)
            gamma = [r[i]] + gamma  # shift and add r_i at position 0
        d = d[: 2 * m]
        # chi' degree-by-degree from the resolvent identity
        chi = self.charpoly + [cfg.one()]
        chi_p = [None] * m + [cfg.one()]
        for j in range(m, 0, -1):
            acc = chi[j] + lam * chi_p[j]
            for l in range(j + 1, m + 1):
                acc = acc + chi_p[l] * d[l - 1 - j]
            chi_p[j - 1] = acc
        chi_p = chi_p[:m]
        # consistency: the d's must satisfy the chi' recursion (proved identity,
        # asserted here to catch implementation drift)
        for kk in range(m):
            acc = d[kk + m]
            for jj in range(m):
                acc = acc + chi_p[jj] * d[kk + jj]
            if not (acc.is_zero_at_precision() or acc.valuation_lower_bound() >= cfg.D - 6):
                raise AssertionError("corner-moment recursion inconsistent")
        self._derived = (lam, d, chi_p)
        return self._derived

    def lam(self):
        return self._derive()[0]

    def d_list(self):
        return self._derive()[1]

    def corner_charpoly(self):
        return self._derive()[2]

    def q(self):
        if self.n < 2:
            raise ValueError("q needs n >= 2")
        return self.d_list()[0]

    def hankel(self) -> Matrix:
        return Matrix.hankel(self.cfg, self.d_list(), self.n - 1)

    def is_rss(self) -> bool:
        if self.n == 1:
            return True
        return val_det(self.hankel()) is not INF

    def hermitian_exists(self) -> bool:
        """A hermitian preimage exists iff val_det of the Hankel form is even."""
        if self.n == 1:
            return True
        vd = val_det(self.hankel())
        if vd is INF:
            raise NotRss("invariant point is not rss")
        return vd % 2 == 0

    # -- comparison and serialization ------------------------------------

    def coords(self):
        return self.charpoly + self.moments

    def agrees(self, other: "InvariantPoint", slack: int = 2) -> bool:
        if self.n != other.n:
            return False
        return all(x.agrees(y, slack) for x, y in zip(self.coords(), other.coords()))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "charpoly": [format_scalar(c) for c in self.charpoly],
            "moments": [format_scalar(a) for a in self.moments],
        }

    @staticmethod
    def from_json_dict(obj: dict, cfg: FieldConfig) -> "InvariantPoint":
        n = int(obj["n"])
        cp = [parse_scalar(s, cfg, quad=False) for s in obj["charpoly"]]
        mo = [parse_scalar(s, cfg, quad=False) for s in obj["moments"]]
        return InvariantPoint(n, cp, mo, cfg)

    def __repr__(self):
        return f"InvariantPoint(n={self.n}, chi={self.charpoly}, a={self.moments})"


# ----------------------------------------------------------------------
# invariant-theoretic operations


def block_q(x):
    """q(X) = c*b; lands in F on the hermitian side."""
    if x.n < 2:
        raise ValueError("q needs n >= 2")
    acc = _dot(x.c_row(), x.b_col())
    if isinstance(x, HnElement):
        return acc.f_part()
    return acc


def moment_list(x, count: int):
    """d_k = c X'^k b for k = 0..count-1, computed directly on the blocks."""
    Xp = x.corner()
    b = x.b_col()
    c = x.c_row()
    out = []
    w = list(b)
    for _ in range(count):
        out.append(_dot(c, w))
        w = Xp.apply(w)
    return out


def is_rss(x) -> bool:
    """Moment Hankel matrix (d_{i+j}) is nonsingular; n = 1 is always rss."""
    if x.n == 1:
        return True
    m = x.n - 1
    return val_det(Matrix.hankel(x.cfg, moment_list(x, 2 * m - 1), m)) is not INF


def _exact_rank(rows, ncols: int) -> int:
    work = [[x.as_fraction() for x in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        pr = work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col] / pr[col]
                work[r] = [a - f * bb for a, bb in zip(work[r], pr)]
        rank += 1
    return rank


def _commutator_rows(Yp: Matrix, m: int, cfg):
    rows = []
    for i in range(m):
        for j in range(m):
            row = [cfg.zero()] * (m * m)
            for k in range(m):
                row[i * m + k] = row[i * m + k] + Yp[k, j]
                row[k * m + j] = row[k * m + j] - Yp[i, k]
            rows.append(row)
    return rows


def centralizer_is_trivial(y) -> bool:
    """Brute-force rss oracle via one-sided centralizer systems.

    b is a cyclic column iff {g : [g, X'] = 0, g b = 0} = 0, and c is a cyclic
    row iff {g : [g, X'] = 0, c g = 0} = 0; rss is the conjunction.  (The joint
    system alone is weaker: c = 0 with cyclic b leaves a trivial stabilizer but
    a non-closed orbit.)  Exact entries required.
    """
    m = y.n - 1
    if m == 0:
        return True
    cfg = y.cfg
    Yp, b, c = y.corner(), y.b_col(), y.c_row()
    if isinstance(y, HnElement):
        # split E-linear systems into F-linear ones via the 1, w basis
        return _centralizer_trivial_quad(Yp, b, c, m, cfg)
    base = _commutator_rows(Yp, m, cfg)
    left = list(base)
    for i in range(m):
        row = [cfg.zero()] * (m * m)
        for k in range(m):
            row[i * m + k] = b[k]
        left.append(row)
    right = list(base)
    for j in range(m):
        row = [cfg.zero()] * (m * m)
        for k in range(m):
            row[k * m + j] = c[k]
        right.append(row)
    return _exact_rank(left, m * m) == m * m and _exact_rank(right, m * m) == m * m


def _centralizer_trivial_quad(Yp, b, c, m, cfg) -> bool:
    """Same computation over E with g = g0 + g1*w split into 2m^2 F-unknowns."""
    u = cfg.u

    def split_rows(rows_E):
        out = []
        for row in rows_E:
            re_row = [cfg.zero()] * (2 * m * m)
            im_row = [cfg.zero()] * (2 * m * m)
            for k, x in enumerate(row):
                # (a + bw)(g0 + g1 w) = (a g0 + u b g1) + (b g0 + a g1) w
                re_row[k] = x.a
                re_row[m * m + k] = x.b * u
                im_row[k] = x.b
                im_row[m * m + k] = x.a
            out.append(re_row)
            out.append(im_row)
        return out

    base = []
    for i in range(m):
        for j in range(m):
            row = [cfg.quad(0, 0)] * (m * m)
            for k in range(m):
                row[i * m + k] = row[i * m + k] + Yp[k, j]
                row[k * m + j] = row[k * m + j] - Yp[i, k]
            base.append(row)
    left_E = list(base)
    for i in range(m):
        row = [cfg.quad(0, 0)] * (m * m)
        for k in range(m):
            row[i * m + k] = b[k]
        left_E.append(row)
    right_E = list(base)
    for j in range(m):
        row = [cfg.quad(0, 0)] * (m * m)
        for k in range(m):
            row[k * m + j] = c[k]
        right_E.append(row)
    left = split_rows(left_E)
    right = split_rows(right_E)
    full = 2 * m * m
    return _exact_rank(left, full) == full and _exact_rank(right, full) == full


def embedded_centralizer_dim(y: GlnElement) -> int:
    """Dimension of {(g, t) : [diag(g, t), Y] = 0}; rss implies it equals 1."""
    m = y.n - 1
    cfg = y.cfg
    if m == 0:
        return 1
    Yp, b, c = y.corner(), y.b_col(), y.c_row()
    nvar = m * m + 1
    rows = []
    for base in _commutator_rows(Yp, m, cfg):
        rows.append(base + [cfg.zero()])
    for i in range(m):
        row = [cfg.zero()] * nvar
        for k in range(m):
            row[i * m + k] = b[k]
        row[m * m] = -b[i]
        rows.append(row)
    for j in range(m):
        row = [cfg.zero()] * nvar
        for k in range(m):
            row[k * m + j] = c[k]
        row[m * m] = -c[j]
        rows.append(row)
    return nvar - _exact_rank(rows, nvar)


def invariants_of(x) -> InvariantPoint:
    """(charpoly, a_i = e_n^* X^i e_n): the full invariant coordinate tuple."""
    cfg = x.cfg
    n = x.n
    cp = charpoly(x.mat)
    if isinstance(x, HnElement):
        cp_f = [c.f_part() for c in cp[:-1]]
    else:
        cp_f = list(cp[:-1])
    moments = []
    en = [cfg.quad(0, 0) if x.mat.kind == "E" else cfg.zero()] * (n - 1)
    v = en + [cfg.quad(1, 0) if x.mat.kind == "E" else cfg.one()]
    w = v
    for _ in range(n - 1):
        w = x.mat.apply(w)
        a = w[n - 1]
        moments.append(a.f_part() if isinstance(a, QuadScalar) else a)
    return InvariantPoint(n, cp_f, moments, cfg)


def transfer_sign(y: GlnElement) -> TransferSign:
    """v = val det of the Krylov matrix with rows e_n^* Y^i; omega = (-1)^v."""
    if isinstance(y, HnElement):
        raise SideError("transfer sign is defined on the general-linear side")
    if not isinstance(y, GlnElement):
        raise SideError("expected a general-linear side element")
    cfg = y.cfg
    n = y.n
    rows = []
    row = [cfg.zero()] * (n - 1) + [cfg.one()]
    for _ in range(n):
        rows.append(row)
        row = [_dot(row, y.mat.col(j)) for j in range(n)]
    K = Matrix(cfg, rows)
    v = val_det(K)
    if v is INF:
        raise NotRss("Krylov determinant vanishes exactly")
    return TransferSign(int(v), -1 if int(v) % 2 else 1)


def gl_representative(a: InvariantPoint) -> GlnElement:
    """Section of the invariant map: Y_a = (C(chi'), e_1; d-row, lambda).

    The corner moments of Y_a equal the derived d_j by construction, and the
    corner polynomial chi' solved from the resolvent identity forces
    charpoly(Y_a) = charpoly(a); both are re-checked at runtime.
    """
    if not a.is_rss():
        raise NotRss("invariant point is not rss")
    cfg = a.cfg
    n = a.n
    if n == 1:
        y = GlnElement(Matrix(cfg, [[-a.charpoly[0]]]))
        return y
    lam, d, chi_p = a._derive()
    m = n - 1
    C = Matrix.companion(cfg, chi_p)
    rows = []
    for i in range(m):
        rows.append([C[i, j] for j in range(m)] + [cfg.one() if i == 0 else cfg.zero()])
    rows.append([d[j] for j in range(m)] + [lam])
    y = GlnElement(Matrix(cfg, rows))
    chk = invariants_of(y)
    if not chk.agrees(a):
        raise AssertionError("representative does not reproduce its invariants")
    if not is_rss(y):
        raise NotRss("constructed representative is not rss")
    return y


def u_representative(a: InvariantPoint) -> HnElement:
    """Hermitian preimage of a, when the Hankel form has even val_det.

    Splits the Hankel Gram matrix as t(A)^sigma A and conjugates the
    general-linear normal form into hermitian shape:
    X' = A C(chi') A^-1, b = A e_1, X = (X' b; t(b)^sigma lambda).
    """
    if not a.is_rss():
        raise NotRss("invariant point is not rss")
    cfg = a.cfg
    n = a.n
    if n == 1:
        return HnElement(Matrix(cfg, [[-a.charpoly[0]]], ).to_quad(), check=False)
    if not a.hermitian_exists():
        raise NoHermitianOrbit(
            "odd Hankel determinant valuation: no hermitian orbit above this point"
        )
    lam, d, chi_p = a._derive()
    m = n - 1
    H = a.hankel()
    A = hermitian_split(H)
    C = Matrix.companion(cfg, chi_p, quad=True)
    Ainv = inverse(A)
    Xp = A * C * Ainv
    b = A.apply([cfg.quad(1, 0)] + [cfg.quad(0, 0)] * (m - 1))
    rows = []
    for i in range(m):
        rows.append([Xp[i, j] for j in range(m)] + [b[i]])
    rows.append([b[j].sigma() for j in range(m)] + [QuadScalar(lam, cfg.zero())])
    X = HnElement(Matrix(cfg, rows), check=False)
    if not X.mat.is_hermitian():
        raise PrecisionExhausted("hermitian residual too large in u_representative")
    chk = invariants_of(X)
    if not chk.agrees(a):
        raise AssertionError("hermitian representative does not reproduce invariants")
    return X


def matches(x: HnElement, y: GlnElement) -> bool:
    """X and Y match iff their invariant tuples coincide (rss locus)."""
    if not is_rss(x) or not is_rss(y):
        raise NotRss("matching is defined on the rss locus")
    return invariants_of(x).agrees(invariants_of(y))


# ----------------------------------------------------------------------
# random sampling


def _rand_fraction(rng: random.Random, height: int, p: int) -> Fraction:
    num = rng.randint(-height, height)
    e = rng.choice((0, 1))
    return Fraction(num, p**e)


def sample_hermitian(n: int, cfg: FieldConfig, height: int, rng: random.Random) -> HnElement:
    """One random element of h_n with entry valuations >= -1, numerators <= height."""
    m = n - 1
    p = cfg.p
    rows = [[None] * n for _ in range(n)]
    for i in range(m):
        rows[i][i] = cfg.quad(_rand_fraction(rng, height, p), 0)
        for j in range(i + 1, m):
            x = cfg.quad(_rand_fraction(rng, height, p), _rand_fraction(rng, height, p))
            rows[i][j] = x
            rows[j][i] = x.sigma()
    for i in range(m):
        bi = cfg.quad(_rand_fraction(rng, height, p), _rand_fraction(rng, height, p))
        rows[i][n - 1] = bi
        rows[n - 1][i] = bi.sigma()
    rows[n - 1][n - 1] = cfg.quad(_rand_fraction(rng, height, p), 0)
    return HnElement(Matrix(cfg, rows), check=False)


def sample_matched_pair(n: int, cfg: FieldConfig, height: int, seed):
    """Deterministic in seed: X in h_n^rss, a = invariants, Y = gl_representative(a)."""
    if n not in (1, 2, 3, 4):
        raise ValueError("supported sizes: n in {1, 2, 3, 4}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    for _ in range(1000):
        x = sample_hermitian(n, cfg, height, rng)
        if not is_rss(x):
            continue
        a = invariants_of(x)
        y = gl_representative(a)
        return x, y, a
    raise SamplingExhausted("no rss sample found in 1000 draws")


def random_unitary(m: int, cfg: FieldConfig, seed) -> Matrix:
    """Cayley transform g = (I + A)(I - A)^-1 of a random anti-hermitian A."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p = cfg.p
    for _ in range(64):
        rows = [[None] * m for _ in range(m)]
        for i in range(m):
            rows[i][i] = cfg.quad(0, _rand_fraction(rng, 5, p))
            for j in range(i + 1, m):
                x = cfg.quad(_rand_fraction(rng, 5, p), _rand_fraction(rng, 5, p))
                rows[i][j] = x
                rows[j][i] = -x.sigma()
        A = Matrix(cfg, rows)
        I = Matrix.identity(cfg, m, quad=True)
        if val_det(I - A) is INF:
            continue
        return (I + A) * inverse(I - A)
    raise SamplingExhausted("could not build a unitary matrix")


def random_gl(m: int, cfg: FieldConfig, seed, scale_parity=True) -> Matrix:
    """Random element of GL_m(F) with mixed determinant valuations."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p = cfg.p
    for _ in range(64):
        rows = [[cfg.scalar(_rand_fraction(rng, 9, p)) for _ in range(m)] for _ in range(m)]
        G = Matrix(cfg, rows)
        if val_det(G) is INF:
            continue
        if scale_parity and rng.random() < 0.5:
            scaled = [[G[i, j] * (p if i == 0 else 1) for j in range(m)] for i in range(m)]
            G = Matrix(cfg, scaled)
        return G
    raise SamplingExhausted("could not build an invertible matrix")
