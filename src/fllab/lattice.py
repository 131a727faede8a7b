"""Canonical lattices over O_F and O_E and stable-lattice enumeration.

A lattice is stored by its canonical triangular basis (columns generate,
exact entries), so equality of lattices is bit-equality of bases.  The walk
finds the T-stable lattices O^m <= L <= H^-1 O^m, for integral T and H with
sigma(T)^T H = H T and, over O_E, a hermitian H (both modulo p^(2e+1), see
below), by going up the poset of stable modules: each stable
L > M holds a closure M + O[T] v of some v in the p-layer of M, and it only
depends on the residue-field line of v.  Over O_E it keeps to the lattices
integral for h(v, w) = sigma(v)^T H w (L <= L^dual), which reach every
self-dual one, as all lattices below an integral one are integral.

For M with basis B the p-layer is p^-1 M /\\ H^-1 O^m over O_F, and
p^-1 M /\\ M^dual over O_E, as M^dual lies in (O^m)^dual = H^-1 O^m.  B x / p
is in it iff K x = 0 mod p, for K = H B, resp. the Gram matrix sigma(B)^T H B,
so the layer is the kernel of K on k^m: the walk's only per-layer algebra.

The walk runs on integers.  With e = val det H, p^e H^-1 is adj(H) times a
unit, so every lattice the walk meets lies in H^-1 O^m <= p^-e O^m and
S = p^e L has p^e O^m <= S <= O^m.  S is kept as the canonical basis of L
scaled by p^e: diagonal p^(k_j + e), entries (i, j) below it in
[0, p^(k_i + e)); ints over O_F, pairs (a, b) for a + b w over O_E = Z_p[w].
As p^e O^m <= S, a vector lies in S iff its residue mod p^e does, so S is
exact when stored mod p^e, and its canonical basis comes from the HNF
modulo D = p^e of Domich, Kannan and Trotter (Cohen, A Course in
Computational Algebraic Number Theory, 2.4.2), with the Howell step that
restores what working mod p^e drops (see _hnf_mod).  Read mod p, the layer
matrix K = H S / p^e needs H S mod p^(e+1), and the Gram matrix
sigma(S)^T H S / p^(2e) needs that product mod p^(2e+1); so T and H are read
once as residues mod p^(2e+1), and a truncated input with fewer digits
raises PrecisionExhausted rather than give a wrong lattice.  The caller
passes e, and the walk checks it on those residues: by the elementary
divisors p^(a_i) of H, [O^m : H O^m + p^(2e+1) O^m] = sum_i min(a_i, 2e+1),
which is e iff val det H = sum_i a_i = e.  The layer
vectors p^e v = S x / p are integral, as v lies in H^-1 O^m <= p^-e O^m.
The walk returns each lattice as the pair (k, S) of plain ints, with
k = [L : O^m] read off the diagonal of S: the index profile that the orbital
integrals are read from needs no more.

The precondition is checked on the same residues, and that is enough.  Let
Delta = sigma(T)^T H - H T lie in p^(2e+1) M(O).  As H^-1 lies in
p^-e M(O), H T H^-1 = sigma(T)^T - Delta H^-1 is integral, so H^-1 O^m and
each M^dual stay T-stable; and every pairing error sigma(x)^T Delta y with
x, y in p^-e O^m lies in p O, so the integrality test on h(v, T^k v) stays
exact.  Likewise a hermitian H' = H mod p^(2e+1) has H'^-1 O^m = H^-1 O^m
and the same pairings mod p on p^-e O^m.

A structurally independent box enumeration backs the oracles; it shares no
HNF with the walk.

Distinct calls are independent and freely parallelizable.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .errors import ExplosionGuard, ZeroModule
from .linalg import Matrix, hnf_basis, inverse
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

    # -- coordinates ----------------------------------------------------------

    def coords(self, v):
        """Coordinates of v against the (lower-triangular) canonical basis, by
        forward substitution; its diagonal entries are the powers p^(k_j)."""
        B = self.basis
        m = self.rank
        p = Fraction(self.cfg.p)
        out = []
        rem = list(v)
        for j in range(m):
            xj = rem[j] * p ** -int(B[j, j].valuation())
            out.append(xj)
            for i in range(j + 1, m):
                rem[i] = rem[i] - xj * B[i, j]
        return out

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
    cols = [list(v)]
    for _ in range(T.rows - 1):
        cols.append(T.apply(cols[-1]))
    mat, pivots = hnf_basis(cols, T.cfg, quad=(kind == "E"))
    return ModuleBasis(mat, pivots, kind)


# ----------------------------------------------------------------------
# integer residues for the walk and the box


class _ResiduesF:
    """O_F modulo powers of p, for lattices scaled by p^e: residues are ints."""

    zero, one = 0, 1

    def __init__(self, p: int, u: int, e: int):
        self.p, self.u, self.e = p, u, e
        self.pe = p**e

    def lift(self, x, k: int, base: int = 0):
        """Residue mod p^(k - base) of p^-base x, for x of valuation >= base
        (PrecisionExhausted if it has fewer digits than p^k)."""
        return x.lift_scaled(base, k)

    def const(self, c: int):
        return c

    def digits(self, n: int):
        """The residues mod n (n a power of p)."""
        return range(n)

    def dot(self, xs, ys, mod: int = 0):
        s = sum(x * y for x, y in zip(xs, ys))
        return s % mod if mod else s

    conj_dot = dot  # sigma is the identity on F

    def reduce(self, x, mod: int):
        return x % mod

    def mul(self, x, y, mod: int):
        return x * y % mod

    def submul(self, x, f, y, mod: int):
        """x - f y mod `mod`."""
        return (x - f * y) % mod

    def div(self, x, d: int):
        return x // d

    def val(self, x) -> int:
        """Valuation of the nonzero x."""
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def unit_inv(self, x, mod: int):
        return pow(x, -1, mod)


class _ResiduesE(_ResiduesF):
    """O_E = Z_p[w] modulo powers of p: pairs (a, b) for a + b w, w^2 = u."""

    zero, one = (0, 0), (1, 0)

    def lift(self, x, k: int, base: int = 0):
        if isinstance(x, QuadScalar):
            return x.a.lift_scaled(base, k), x.b.lift_scaled(base, k)
        return x.lift_scaled(base, k), 0

    def const(self, c: int):
        return c, 0

    def digits(self, n: int):
        return list(product(range(n), repeat=2))

    def dot(self, xs, ys, mod: int = 0):
        u, a, b = self.u, 0, 0
        for (xa, xb), (ya, yb) in zip(xs, ys):
            a += xa * ya + u * xb * yb
            b += xa * yb + xb * ya
        return (a % mod, b % mod) if mod else (a, b)

    def conj_dot(self, xs, ys, mod: int = 0):
        """sum sigma(x) y."""
        return self.dot([(xa, -xb) for xa, xb in xs], ys, mod)

    def reduce(self, x, mod: int):
        return x[0] % mod, x[1] % mod

    def mul(self, x, y, mod: int):
        (xa, xb), (ya, yb) = x, y
        return (xa * ya + self.u * xb * yb) % mod, (xa * yb + xb * ya) % mod

    def submul(self, x, f, y, mod: int):
        fa, fb = f
        ya, yb = y
        return ((x[0] - fa * ya - self.u * fb * yb) % mod,
                (x[1] - fa * yb - fb * ya) % mod)

    def div(self, x, d: int):
        return x[0] // d, x[1] // d

    def val(self, x) -> int:
        """Valuation of the nonzero x: the least over its parts (E/F is unramified)."""
        return min(_ResiduesF.val(self, c) for c in x if c)

    def unit_inv(self, x, mod: int):
        a, b = x
        n = pow(a * a - self.u * b * b, -1, mod)  # the norm of a unit is a unit
        return a * n % mod, -b * n % mod


def _residues(cfg: FieldConfig, quad: bool, e: int) -> _ResiduesF:
    return (_ResiduesE if quad else _ResiduesF)(cfg.p, cfg.u, e)


def _hnf_mod(gens, R: _ResiduesF) -> tuple:
    """Canonical basis, as columns, of the module S spanned by gens and p^e O^m,
    computed modulo p^e (p^e = R.pe): column j is p^(k_j) e_j plus entries
    (i, j) in [0, p^(k_i)) below the diagonal, i.e. hnf_basis of S.

    Rows are cleared top down.  At row i the generator of least valuation v
    becomes the pivot column c, scaled by a unit to c_i = p^v, and the others
    lose their row i.  Exact elimination would also clear the generator
    p^e e_i of p^e O^m, leaving p^e e_i - p^(e-v) c with p^(e-v) c below row i;
    modulo p^e that generator is 0, so the Howell step adds p^(e-v) c (whose
    row i is p^e = 0) in its place.  It also makes the multipliers of the
    elimination, known only mod p^(e-v), well defined.  Without it the
    result can miss p^(e-v) c and come out too small.  A row with no pivot
    mod p^e gets p^e e_i.
    Last, each entry (i, j) below the diagonal is reduced mod p^(k_i) by
    column i, rows in order.
    """
    p, e, pe, zero = R.p, R.e, R.pe, R.zero
    m = len(gens[0])
    active = [[R.reduce(x, pe) for x in g] for g in gens]
    cols, ks = [], []
    for i in range(m):
        best = None
        for idx, g in enumerate(active):
            if g[i] != zero:
                v = R.val(g[i])
                if best is None or v < best[0]:
                    best = (v, idx)
        if best is None:
            col = [zero] * m
            col[i] = R.const(pe)
            cols.append(col)
            ks.append(e)
            continue
        v, idx = best
        pv = p**v
        c = active.pop(idx)
        inv = R.unit_inv(R.div(c[i], pv), pe)
        c = [R.mul(x, inv, pe) for x in c]
        for g in active:
            if g[i] != zero:
                f = R.div(g[i], pv)
                for r in range(i + 1, m):
                    g[r] = R.submul(g[r], f, c[r], pe)
                g[i] = zero
        if v:
            active.append([R.mul(R.const(p ** (e - v)), x, pe) for x in c])  # Howell
        cols.append(c)
        ks.append(v)
    for i in range(1, m):
        d = p ** ks[i]
        for j in range(i):
            f = R.div(cols[j][i], d)
            if f != zero:
                for r in range(i, m):
                    cols[j][r] = R.submul(cols[j][r], f, cols[i][r], pe)
    return tuple(tuple(c) for c in cols)


def _layer_matrix(S, H, R: _ResiduesF):
    """K mod p (rows) for M = p^-e S with basis B = S / p^e: H B over O_F and
    the Gram matrix sigma(B)^T H B over O_E, from H mod p^(2e+1)."""
    p, e = R.p, R.e
    if isinstance(R, _ResiduesE):
        mod = p ** (2 * e + 1)
        HS = [[R.dot(row, s, mod) for row in H] for s in S]
        return [[R.div(R.conj_dot(s, hs, mod), p ** (2 * e)) for hs in HS] for s in S]
    return [[R.dot(row, s, p * R.pe) // R.pe for s in S] for row in H]


def _adjoint_holds(A, B, R: _ResiduesF, mod: int) -> bool:
    """sigma(A)^T B = B A modulo `mod`, for residue matrices A and B (rows)."""
    Ac, Bc = list(zip(*A)), list(zip(*B))
    return all(R.conj_dot(a_i, b_j, mod) == R.dot(b_row, a_j, mod)
               for a_i, b_row in zip(Ac, B) for b_j, a_j in zip(Bc, Ac))


# ----------------------------------------------------------------------
# the walk


def quotient_reps(S, K, R: _ResiduesF):
    """One vector S x / p per line of the kernel of K mod p on k^m (k = k_F, or
    k_E over O_E), for the integral basis S (columns) of p^e M, M with basis
    B = S / p^e, and the layer matrix K of M mod p (residues, rows).

    With K = H B over O_F these are the lines of the p-layer
    (p^-1 M /\\ H^-1 O^m) / M, as H B x / p is integral iff K x = 0 mod p; with
    the Gram matrix K = sigma(B)^T H B over O_E, of (p^-1 M /\\ M^dual) / M,
    which holds the rest of the layer as M^dual <= H^-1 O^m.  B x / p depends
    on x only up to M, and the x with leading nonzero digit 1 are one per line
    of k^m; those whose residues (pairs a + b w, w^2 = u, over k_E) pass
    K x = 0 are one per line of the kernel, (Q^d - 1)/(Q - 1) of them for
    dimension d and Q = |k|.  The walk needs no more: M + O[T] v only depends
    on the line of v.  The vectors are returned as p^e v = S x / p, exactly;
    in the walk they are integral, as v lies in H^-1 O^m <= p^-e O^m.
    """
    p, m = R.p, len(S)
    rows = list(zip(*S))
    out = []
    for lead in range(m):
        for rest in product(R.digits(p), repeat=m - 1 - lead):
            x = [R.zero] * lead + [R.one] + list(rest)
            if all(R.dot(row, x, p) == R.zero for row in K):
                out.append([R.div(R.dot(row, x), p) for row in rows])
    return out


def enumerate_stable_between(T: Matrix, H: Matrix, e: int, bound_exp: int = 12) -> list:
    """All lattices L with O^m <= L <= H^-1 O^m and T L <= L, complete and
    duplicate-free, over O_E (T with E entries) only the ones integral for
    h(v, w) = sigma(v)^T H w (L <= L^dual).  Each L is one pair (k, S) of
    plain ints: its index k = [L : O^m] and the canonical basis S of p^e L,
    as a tuple of columns (module docstring); the pairs come sorted as ints.

    e = val det H comes from the caller (fl_compare computes it once per
    point) and is checked on the residues of H the walk reads: a wrong e
    raises ValueError (module docstring), or ExplosionGuard above the bound.

    T and H must be integral with sigma(T)^T H = H T, and over O_E H must be
    hermitian, sigma(H)^T = H (else ValueError): then T O^m <= O^m, and
    H T v = sigma(T)^T H v is integral for H v integral, so both bounds are
    T-stable.  Both identities are tested modulo p^(2e+1) on the residues the
    walk reads, which is enough (module docstring): an error
    Delta in p^(2e+1) M(O) moves H T H^-1 by Delta H^-1 in p^(e+1) M(O), and a
    pairing of two vectors of p^-e O^m by an element of p O.
    The walk goes up from O^m, extending each found M by the
    closures M + O[T] v of one v per line of its p-layer, the kernel of K mod p
    (see quotient_reps).  A wanted L > M meets that layer outside M, as
    L <= H^-1 O^m (and L <= L^dual <= M^dual), in a v whose closure lies in L;
    over O_E the chain up to L stays integral, as N <= L <= L^dual <= N^dual.
    A closure is integral iff all h(v, T^k v), k < m, are (v is in M^dual, T is
    self-adjoint and integral), and the others are dropped.  The walk ends
    where the kernel is 0: K is then unimodular, so M = H^-1 O^m over O_F and
    M = M^dual, with no integral lattice above it, over O_E.
    ExplosionGuard bounds all of H^-1 O^m / O^m, p^e (p^(2e) over O_E),
    before the residues are read.

    Every step runs on the integer lattices S = p^e L (module docstring),
    which hold p^e O^m and so are exact mod p^e: K mod p from H mod p^(2e+1)
    (sigma(S)^T H S is p^(2e) times the Gram matrix), the integral layer
    vectors y = S x / p = p^e v, the closure generators T^k y mod p^e, the
    pairings p^(2e) h(v, T^k v) = sigma(y)^T H T^k y mod p^(2e) (T^k y mod p^e
    is enough there, as H y = p^e H v is 0 mod p^e), and the closures from
    _hnf_mod.  The int tuple of S is the dedupe key.  S has diagonal
    p^(k_j + e) for the diagonal p^(k_j) of L, so k = m e - sum_j (k_j + e).
    """
    message = "T and H must be integral, with sigma(T)^T H = H T"
    if not (T.is_integral() and H.is_integral()):
        raise ValueError(message)
    cfg, m, quad = T.cfg, T.rows, T.kind == "E"
    size = e * (2 if quad else 1)
    if size > bound_exp:
        raise ExplosionGuard(f"quotient size p^{size} exceeds p^{bound_exp}")
    R = _residues(cfg, quad, e)
    mod = cfg.p ** (2 * e + 1)
    Tr = [[R.lift(x, 2 * e + 1) for x in row] for row in T.entries]
    Hr = [[R.lift(x, 2 * e + 1) for x in row] for row in H.entries]
    if not _adjoint_holds(Tr, Hr, R, mod):
        raise ValueError(message)
    one = [[R.one if i == j else R.zero for j in range(m)] for i in range(m)]
    if quad and not _adjoint_holds(Hr, one, R, mod):  # sigma(H)^T 1 = 1 H
        raise ValueError("H must be hermitian over O_E, sigma(H)^T = H")
    Hcols = list(zip(*Hr))
    # the caller's e, checked on the same residues (module docstring)
    Rd = _residues(cfg, quad, 2 * e + 1)
    if e < 0 or sum(Rd.val(c[j]) for j, c in enumerate(_hnf_mod(Hcols, Rd))) != e:
        raise ValueError(f"val det H is not {e}")
    pe, p2e = R.pe, cfg.p ** (2 * e)
    std = tuple(tuple(R.const(pe) if i == j else R.zero for i in range(m)) for j in range(m))
    found = {std}
    frontier = [std]
    while frontier:
        S = frontier.pop()
        for y in quotient_reps(S, _layer_matrix(S, Hr, R), R):
            new = [y]
            for _ in range(m - 1):
                new.append([R.dot(row, new[-1], pe) for row in Tr])
            if quad:
                hy = [R.conj_dot(y, col, p2e) for col in Hcols]  # h(v, w) = hy . w
                if any(R.dot(hy, w, p2e) != R.zero for w in new):
                    continue
            N = _hnf_mod(S + tuple(new), R)
            if N not in found:
                found.add(N)
                frontier.append(N)
    return sorted((m * e - sum(R.val(S[j][j]) for j in range(m)), S) for S in found)


def enumerate_selfdual_stable(T: Matrix, H: Matrix, e: int, bound_exp: int = 12) -> list:
    """All L with O_E^m <= L <= H^-1 O_E^m and T L <= L that are self-dual for
    h(v, w) = sigma(v)^T H w, as the walk's pairs (k, S): among the H-integral
    ones the walk finds, those with [L^dual : L] = 1, i.e. k = [L : O_E^m] =
    e / 2, for e = val det H from the caller, which the walk checks.

    Empty when H is not integral (no self-dual lattice can contain O_E^m).
    T must be integral and self-adjoint for h.
    """
    if not H.is_integral():
        return []
    return [(k, S) for k, S in enumerate_stable_between(T.to_quad(), H, e, bound_exp)
            if 2 * k == e]


# ----------------------------------------------------------------------
# independent box enumeration (oracle support)


def _in_digit_span(cols, ks, y, R: _ResiduesF) -> bool:
    """y in D O^m for the triangular digit matrix D (columns, diagonal p^(k_j))
    whose span holds p^e O^m (p^e = R.pe, as when sum k_j <= e), by forward
    substitution mod p^e: taking column j off y as often as row j allows keeps
    y in D O^m or out of it, and rows that are 0 mod p^e are in D O^m."""
    y = list(y)
    for j, col in enumerate(cols):
        d = R.p ** ks[j]
        if R.reduce(y[j], d) != R.zero:
            return False
        f = R.div(y[j], d)
        for r in range(j + 1, len(y)):
            y[r] = R.submul(y[r], f, col[r], R.pe)
    return True


def enumerate_all_between(L0: Lattice, L1: Lattice, max_quotient_exp: int = 8,
                          det_exp: int | None = None) -> list:
    """Every lattice L0 <= L <= L1, as its canonical digit matrix D relative to
    L1 (L = L1 D), by direct generation with no stability logic; with det_exp,
    only the L with val det L = det_exp.  Empty when L0 is not in L1.

    Each D is returned as (ks, cols): lower triangular integer columns with
    diagonal p^(k_j) and entries (i, j) below it in [0, p^(k_i)), ints over O_F
    and pairs (a, b) for a + b w over O_E.  Diagonal exponents are chosen first
    (sum k_j = [L1 : L] <= e, e = val det L0 - val det L1, and = det_exp -
    val det L1 when det_exp is given), then each D is kept when L0 <= L1 D,
    read from the coordinates of L0 in L1 mod p^e (L1 D holds p^e L1).  Each
    lattice in the box appears exactly once.  ExplosionGuard bounds the whole
    box, p^e (p^(2e) over O_E), before any D is built.
    """
    rel = [L1.coords(L0.basis.col(j)) for j in range(L0.rank)]
    if not all(x.is_integral() for y in rel for x in y):
        return []
    e = L0.val_det() - L1.val_det()
    mult = 2 if L0.kind == "E" else 1
    if mult * e > max_quotient_exp:
        raise ExplosionGuard(f"box quotient p^{mult * e} too large")
    m = L0.rank
    p = L0.cfg.p
    R = _residues(L0.cfg, L0.kind == "E", e)
    rel_L0 = [[R.lift(x, e) for x in y] for y in rel]

    # diagonal exponent vectors with sum <= e (det divisibility bound)
    kvecs = [[]]
    for _ in range(m):
        kvecs = [kv + [k] for kv in kvecs for k in range(e + 1) if sum(kv) + k <= e]
    if det_exp is not None:
        kvecs = [kv for kv in kvecs if sum(kv) == det_exp - L1.val_det()]

    # entries (i, j) below the diagonal, column by column and down each column,
    # range mod p^{k_i}; the candidates come one at a time, the last entry
    # varying fastest, and only the kept ones are stored
    starts = [j * (2 * m - j - 1) // 2 for j in range(m + 1)]
    out = []
    for kv in kvecs:
        spans = [((R.zero,) * j + (R.const(p ** kv[j]),), starts[j], starts[j + 1])
                 for j in range(m)]
        digits = [R.digits(p ** kv[i]) for j in range(m) for i in range(j + 1, m)]
        for entries in product(*digits):
            cols = [head + entries[a:b] for head, a, b in spans]
            if all(_in_digit_span(cols, kv, y, R) for y in rel_L0):
                out.append((kv, [list(col) for col in cols]))
    return out
