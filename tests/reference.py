"""Reference code that only the tests call.

Brute-force oracles (the centralizer rss test, the cofactor characteristic
polynomial, lattice membership over exact scalars), the corner-data
recursion on p-adic scalars, random group elements for invariance checks,
and the map from the walk's integer pairs (k, S) to `Lattice`s, so that
walk-versus-box tests compare lattices by key.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fllab.errors import NotRss, SamplingExhausted
from fllab.geometry import GlnElement, HnElement, _rand_fraction, invariants_of, is_rss
from fllab.lattice import Lattice
from fllab.linalg import Matrix, _dot, inverse, val_det
from fllab.padic import INF, FieldConfig

# ----------------------------------------------------------------------
# lattices


def scalar(x, cfg: FieldConfig, den: int = 1):
    """The exact x / den for an int x, or a pair (a, b) for a + b w over O_E."""
    if isinstance(x, tuple):
        return cfg.quad(Fraction(x[0], den), Fraction(x[1], den))
    return cfg.scalar(Fraction(x, den))


def walk_lattices(pairs, H: Matrix) -> list:
    """The walk's pairs (k, S) for the form H as Lattices p^-e S, e = val det H,
    sorted by key; checks that k = [L : O^m] for each."""
    cfg, e = H.cfg, val_det(H)
    out = []
    for k, S in pairs:
        m = len(S)
        kind = "E" if isinstance(S[0][0], tuple) else "F"
        zero = scalar((0, 0) if kind == "E" else 0, cfg)
        rows = [[scalar(S[j][i], cfg, cfg.p ** e) if j <= i else zero for j in range(m)]
                for i in range(m)]
        L = Lattice(Matrix(cfg, rows), kind, canonical=True)
        assert L.val_det() == -k
        out.append(L)
    return sorted(out, key=Lattice.key)


def contains(L: Lattice, v) -> bool:
    """True iff v has integral coordinates against the basis of L."""
    if len(v) != L.rank:
        raise ValueError("dimension mismatch")
    return all(x.is_integral() for x in L.coords(v))


def contains_lattice(L: Lattice, other: Lattice) -> bool:
    return all(contains(L, other.basis.col(j)) for j in range(other.rank))


def scaled(L: Lattice, k: int) -> Lattice:
    """p^k * L (canonical form scales with it)."""
    s = L.cfg.scalar(Fraction(L.cfg.p) ** k)
    mat = Matrix(L.cfg, [[x * s for x in row] for row in L.basis.entries])
    return Lattice(mat, L.kind, canonical=True)


def index_sign(L: Lattice) -> int:
    return -1 if L.val_det() % 2 else 1


def stabilizes(T: Matrix, L: Lattice) -> bool:
    """T L <= L."""
    return all(contains(L, T.apply(L.basis.col(j))) for j in range(L.rank))


# ----------------------------------------------------------------------
# corner data


def derive_corner(a):
    """(lam, d_0..d_{2m-1}, chi') of the invariant point a, m = n - 1: the
    power-sum recursion run on p-adic scalars, with no scaling to integers
    as in InvariantPoint._derive; it also accepts truncated coordinates."""
    n, m, cfg = a.n, a.n - 1, a.cfg
    if n == 1:
        lam = -a.charpoly[0]
        return (lam, [], [])
    lam = a.moments[0]
    # r_i = e* X^i e, extended by the charpoly recursion
    r = [cfg.one()] + list(a.moments)
    need = 2 * m + 2
    while len(r) < need:
        r.append(-_dot(a.charpoly, r[len(r) - n:]))
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
    chi = a.charpoly + [cfg.one()]
    chi_p = [None] * m + [cfg.one()]
    for j in range(m, 0, -1):
        acc = chi[j] + lam * chi_p[j]
        for l in range(j + 1, m + 1):
            acc = acc + chi_p[l] * d[l - 1 - j]
        chi_p[j - 1] = acc
    chi_p = chi_p[:m]
    # consistency: the d's must satisfy the chi' recursion (proved identity,
    # asserted here to catch implementation drift), exactly on exact input
    for kk in range(m):
        acc = d[kk + m]
        for jj in range(m):
            acc = acc + chi_p[jj] * d[kk + jj]
        if acc.is_exact:
            ok = acc.is_exact_zero()
        else:
            ok = acc.is_zero_at_precision() or acc.valuation_lower_bound() >= cfg.D - 6
        if not ok:
            raise AssertionError("corner-moment recursion inconsistent")
    return (lam, d, chi_p)


# ----------------------------------------------------------------------
# characteristic polynomial


def charpoly_oracle(M: Matrix):
    """Cofactor-expansion det(tI - M) over polynomial lists (test oracle)."""
    n = M.rows
    cfg = M.cfg
    quad = M.kind == "E"
    zero = cfg.quad(0, 0) if quad else cfg.zero()
    one = cfg.quad(1, 0) if quad else cfg.one()

    def padd(p, q):
        out = []
        for i in range(max(len(p), len(q))):
            a = p[i] if i < len(p) else zero
            b = q[i] if i < len(q) else zero
            out.append(a + b)
        return out

    def pmul(p, q):
        out = [zero] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] = out[i + j] + x * y
        return out

    # entries of tI - M as linear polynomials
    P = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            diag = one if i == j else zero
            P[i][j] = [-(M.entries[i][j]), diag]

    def det(rows, cols):
        if len(rows) == 1:
            return P[rows[0]][cols[0]]
        acc = [zero]
        sign = 1
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = pmul(P[rows[0]][c], minor)
            if sign < 0:
                term = [-x for x in term]
            acc = padd(acc, term)
            sign = -sign
        return acc

    poly = det(list(range(n)), list(range(n)))
    while len(poly) < n + 1:
        poly.append(zero)
    return poly


# ----------------------------------------------------------------------
# the centralizer rss oracle


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


def _commutator_rows(Yp: Matrix, m: int, zero):
    rows = []
    for i in range(m):
        for j in range(m):
            row = [zero] * (m * m)
            for k in range(m):
                row[i * m + k] = row[i * m + k] + Yp[k, j]
                row[k * m + j] = row[k * m + j] - Yp[i, k]
            rows.append(row)
    return rows


def _split_quad_rows(rows_E, m: int, cfg):
    """E-linear rows in g = g0 + g1*w as F-linear rows in the 2m^2 unknowns (g0, g1)."""
    u = cfg.u
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
    quad = isinstance(y, HnElement)
    zero = cfg.quad(0, 0) if quad else cfg.zero()
    b, c = y.b_col(), y.c_row()
    base = _commutator_rows(y.corner(), m, zero)
    left = list(base)
    for i in range(m):
        row = [zero] * (m * m)
        for k in range(m):
            row[i * m + k] = b[k]
        left.append(row)
    right = list(base)
    for j in range(m):
        row = [zero] * (m * m)
        for k in range(m):
            row[k * m + j] = c[k]
        right.append(row)
    full = m * m
    if quad:  # over E, solve for g = g0 + g1*w in F-unknowns
        left, right = _split_quad_rows(left, m, cfg), _split_quad_rows(right, m, cfg)
        full *= 2
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
    for base in _commutator_rows(Yp, m, cfg.zero()):
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


# ----------------------------------------------------------------------
# matching and random group elements


def matches(x: HnElement, y: GlnElement) -> bool:
    """X and Y match iff their invariant tuples coincide (rss locus)."""
    if not is_rss(x) or not is_rss(y):
        raise NotRss("matching is defined on the rss locus")
    return invariants_of(x).agrees(invariants_of(y))


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
