"""Orbital integrals of unit characteristic functions as finite lattice counts.

Both integrals are functions of the invariant point alone.  Write its corner
data as (lambda, d, chi'), with d_k = c X'^k b and chi' the characteristic
polynomial of the corner X', and let m = n - 1,
C = companion(chi') and H = (d_{i+j})_{i,j<m}.  In the Krylov basis
b, X'b, ..., X'^{m-1}b the corner acts by C and the pairing of the row c
with the column Krylov space is H, which makes C self-adjoint for H.  An
orbit meets the unit ball exactly at the C-stable lattices L with

    O^m  <=  L  <=  H^-1 O^m,

the lower bound from b in L, the upper one from c L in O; both are C-stable
when C is integral, and there are none unless lambda, C and H are integral.
Both integrals are read off an index profile: n_k, the number of such L
(over O_F, or the self-dual ones over O_E) of index k = [L : O^m].  Let
e = val det H.  fl_compare takes the exact corner data and e once per point
(InvariantPoint._derive and hankel_val_det); both walks and the self-dual
filter are handed that e, and the walk checks it on the residues of H.

Unitary side: cosets of U_{n-1}(F)/U_{n-1}(O_F) correspond to self-dual
O_E-lattices, so the integral counts the L over O_E that are self-dual for
h(v, w) = sigma(v)^T H w (H is the Gram matrix of the Krylov basis).  Those
are the L with [L^dual : L] = 1, i.e. k = e/2:

    O(X, 1) = n_(e/2).

General-linear side: cosets correspond to arbitrary O_F-lattices, each
weighted by its index sign, and the transfer sign omega(Y) in front combines
with the index sign of the Krylov basis into (-1)^e:

    O(Y, 1) = (-1)^e * sum over L of (-1)^[L : O^m] = sum_k (-1)^(e - k) n_k.

A structurally independent oracle re-derives both counts in the element's
own coordinates: it enumerates every lattice L in a bounded box, with no
stability logic, and tests diag(g, 1) . Y . diag(g, 1)^-1 for entrywise
integrality with g = B^-1 for a basis B of L.  The coset representatives
attached to L are the k . B^-1 with k in GL_{n-1}(O) (on the unitary side,
the unitary ones among them), and multiplying g on the left by such a k does
not change whether the conjugate is integral, so any basis of L gives the
same answer and the oracle needs exact arithmetic only.  It takes
B = L1 D, for the integer digit matrix D of L relative to the top L1 of the
box: the exact work is done once per element, and each lattice is tested on
residues, mod p^(e+s) for the conjugate and mod p^t for the Gram matrix
(see orbital_oracle for why those moduli decide the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NormalFormFailure, NotRss, OracleTooLarge, SideError
from .geometry import (
    GlnElement,
    HnElement,
    InvariantPoint,
    block_q,
    gl_representative,
    invariants_of,
    moment_list,
    transfer_sign,
)
from .lattice import (
    _in_digit_span,
    _residues,
    enumerate_all_between,
    enumerate_selfdual_stable,
    enumerate_stable_between,
    module_closure,
)
from .linalg import Matrix, charpoly, hermitian_split, inverse, val_det
from .padic import INF, solve_norm_equation


@dataclass
class OrbitalResult:
    value: int
    side: str  # "u" or "gl"
    omega: int | None
    lattice_count: int

    def __post_init__(self):
        if self.side == "gl":
            assert self.omega in (1, -1)
        else:
            assert self.omega is None
            assert self.value == self.lattice_count >= 0


def index_profile(lam, d, chi_p, kind: str, e: int, bound_exp: int = 12) -> list:
    """The index profile [n_0, ..., n_top] of the corner data (lam, d, chi'):
    n_k C-stable lattices O^m <= L <= H^-1 O^m of index k = [L : O^m], top the
    largest index found.

    e = val det H is the caller's; the walk checks it.  Over O_F (kind "F")
    H^-1 O^m is found, so top = e.  Over O_E ("E") only the lattices self-dual
    for H count, all of index top = e / 2.  Empty unless lam, C =
    companion(chi') and H = (d_{i+j}) are integral, and over O_E when no
    lattice is self-dual.
    """
    cfg = lam.cfg
    m = len(chi_p)
    C = Matrix.companion(cfg, chi_p, quad=(kind == "E"))
    H = Matrix.hankel(cfg, d, m)
    if not (lam.is_integral() and C.is_integral() and H.is_integral()):
        return []
    walk = enumerate_selfdual_stable if kind == "E" else enumerate_stable_between
    found = walk(C, H, e, bound_exp)  # sorted by index
    profile = [0] * (found[-1][0] + 1 if found else 0)
    for k, _ in found:
        profile[k] += 1
    return profile


def _krylov_value(side: str, lam, d, chi_p, e: int, bound_exp: int):
    """(value, lattice count) of the unit orbital integral above (lam, d, chi'),
    e = val det H."""
    if not chi_p:  # n = 1: the integral is 1_O(lam)
        ok = int(lam.is_integral())
        return ok, ok
    n = index_profile(lam, d, chi_p, "E" if side == "u" else "F", e, bound_exp)
    if side == "u":  # n_(e/2) is the only nonzero entry
        return sum(n), sum(n)
    return sum((-1) ** (e - k) * nk for k, nk in enumerate(n)), sum(n)


def _corner_data(x):
    """(lam, d_0..d_{2m-2}, chi', e = val det H) read off the blocks of x, in F;
    NotRss when H is singular."""
    m = x.n - 1
    if m == 0:
        return x.lam(), [], [], 0
    d = moment_list(x, 2 * m - 1)
    chi_p = charpoly(x.corner())[:-1]
    if isinstance(x, HnElement):
        d = [t.f_part() for t in d]
        chi_p = [c.f_part() for c in chi_p]
    e = val_det(Matrix.hankel(x.cfg, d, m))
    if e is INF:
        raise NotRss(f"{type(x).__name__} is not rss: its Hankel form is singular")
    return x.lam(), d, chi_p, e


def orbital_u_unit(X: HnElement, bound_exp: int = 12) -> OrbitalResult:
    """O(X, 1_{h_n(O)}): count of self-dual stable lattices, or 0 off support."""
    if not isinstance(X, HnElement):
        raise SideError(f"side 'u' does not take a {type(X).__name__}")
    value, count = _krylov_value("u", *_corner_data(X), bound_exp)
    return OrbitalResult(value, "u", None, count)


def orbital_gl_unit(Y: GlnElement, bound_exp: int = 12) -> OrbitalResult:
    """O(Y, 1_{gl_n(O)}) = omega(Y) * sum of index signs over admissible lattices,
    counted in the Krylov basis; omega(Y) is reported with it."""
    if not isinstance(Y, GlnElement):
        raise SideError(f"side 'gl' does not take a {type(Y).__name__}")
    value, count = _krylov_value("gl", *_corner_data(Y), bound_exp)
    return OrbitalResult(value, "gl", transfer_sign(Y).omega, count)


# ----------------------------------------------------------------------
# independent oracle


def orbital_oracle(side: str, elt, max_exp: int = 4) -> int:
    """Same value by direct enumeration of the lattices in a bounded box.

    The box runs from Lmin = O[X']b up to L1 = Lmin^dual (standard hermitian
    form) on the unitary side, and up to the dual of the row Krylov lattice of
    c on the general-linear side.  Each L in it (self-dual ones only on the
    unitary side) counts 1, or its index sign on the general-linear side, when
    diag(B^-1, 1) . elt . diag(B, 1) is integral for a basis B of L; any basis
    gives the same answer (see the module docstring), and the oracle takes
    B = L1 D for the integer digit matrix D of L relative to L1.  Supported for
    rank n-1 <= 2 and small boxes; ExplosionGuard bounds the whole box.

    Both tests run on residues.  Once per element, Y1 = diag(L1^-1, 1) . elt .
    diag(L1, 1) is formed exactly (substitution down the triangular basis of
    L1), s >= 0 is least with p^s Y1 integral, and Z = p^s Y1 is kept mod
    p^(e+s), e = [L1 : Lmin].  With M = diag(D, 1) the conjugate M^-1 Y1 M is
    integral iff every column of Z M lies in p^s M O^n, whose diagonal
    exponents are k_j + s and s; that lattice holds p^(e+s) O^n, as D O^m holds
    p^(sum k_j) O^m and sum k_j <= e, so membership is decided mod p^(e+s) by
    forward substitution.  Unitary side: L is self-dual iff its Gram matrix
    sigma(D)^T G1 D, G1 = sigma(L1)^T L1, is integral and val det L = 0, i.e.
    [L : Lmin] = e/2 (the box yields only those).  With t >= 0 least such
    that p^t G1 is integral, the first condition reads
    sigma(D)^T (p^t G1) D = 0 mod p^t, from p^t G1 mod p^t.
    """
    if not isinstance(elt, HnElement if side == "u" else GlnElement):
        raise SideError(f"oracle side {side!r} does not take a {type(elt).__name__}")
    n = elt.n
    if n - 1 > 2:
        raise OracleTooLarge("oracle supports rank at most 2")
    if n == 1:
        entry = elt.mat[0, 0]
        entry = entry.f_part() if side == "u" else entry
        return 1 if entry.is_integral() else 0
    m, quad = n - 1, side == "u"
    Xp = elt.corner()
    Lmin = module_closure(Xp, elt.b_col(), kind="E" if quad else "F").to_lattice()
    if quad:
        L1 = Lmin.dual()
    else:
        # {v : c X'^k v in O for all k} = dual of the Krylov span of the row c
        rows = module_closure(Xp.transpose(), list(elt.c_row()), kind="F")
        if not rows.full_rank:
            raise NotRss("row Krylov space degenerate despite rss test")
        L1 = rows.to_lattice().dual()
    # a self-dual L has val det 0
    box = enumerate_all_between(Lmin, L1, max_exp, det_exp=0 if quad else None)
    if not box:
        return 0
    v1 = L1.val_det()
    e = Lmin.val_det() - v1
    # columns of Y1 = (L1^-1 X' L1, L1^-1 b; c L1, lambda)
    XB, cB = Xp * L1.basis, Matrix(elt.cfg, [elt.c_row()]) * L1.basis
    Y1 = [L1.coords(XB.col(j)) + [cB[0, j]] for j in range(m)]
    Y1.append(L1.coords(elt.b_col()) + [elt.mat[m, m]])
    s = max(0, -min(x.valuation() for col in Y1 for x in col))
    R = _residues(elt.cfg, quad, e + s)
    Z = list(zip(*([R.lift(x, e, -s) for x in col] for col in Y1)))  # rows, mod p^(e+s)
    ps = R.const(elt.cfg.p ** s)
    last = [R.zero] * m + [R.one]
    if quad:
        G1 = L1.gram()
        t = max(0, -min(x.valuation() for row in G1.entries for x in row))
        pt = elt.cfg.p ** t
        Gt = [[R.lift(x, 0, -t) for x in row] for row in G1.entries]  # p^t G1 mod p^t
    total = 0
    for ks, D in box:
        if quad and t:
            GD = [[R.dot(row, d, pt) for row in Gt] for d in D]
            if any(R.conj_dot(di, gd, pt) != R.zero for di in D for gd in GD):
                continue
        M = [list(d) + [R.zero] for d in D] + [last]  # columns of diag(D, 1)
        pM = [[R.mul(ps, x, R.pe) for x in col] for col in M]
        pks = [k + s for k in ks] + [s]
        if all(_in_digit_span(pM, pks, [R.dot(row, col, R.pe) for row in Z], R)
               for col in M):
            total += 1 if quad else -1 if (v1 + sum(ks)) % 2 else 1
    return total if quad else transfer_sign(elt).omega * total


# ----------------------------------------------------------------------
# the matching comparison and the descent identities


@dataclass
class FlComparison:
    o_u: int
    o_gl: int
    hermitian_exists: bool
    equal: bool


def fl_compare(a: InvariantPoint, bound_exp: int = 12) -> FlComparison:
    """Both orbital integrals above one invariant point; equal iff they agree.

    The unitary value is 0 by definition when no hermitian preimage exists.
    Both sides share the corner data and e = val det H, derived once.
    """
    if not a.is_rss():
        raise NotRss("comparison needs an rss invariant point")
    exists, e = a.hermitian_exists(), a.hankel_val_det()
    corner = a._derive()
    o_u = _krylov_value("u", *corner, e, bound_exp)[0] if exists else 0
    o_gl = _krylov_value("gl", *corner, e, bound_exp)[0]
    return FlComparison(o_u, o_gl, exists, o_u == o_gl)


def _annihilator_rows(b, cfg):
    """m-1 row vectors spanning {r : r . b = 0}, for b != 0 (exact or not)."""
    m = len(b)
    piv = None
    best = None
    for i, x in enumerate(b):
        if x.is_exact_zero() or x.is_zero_at_precision():
            continue
        v = x.valuation()
        if best is None or v < best:
            best, piv = v, i
    if piv is None:
        raise NormalFormFailure("b vanishes; unit q expected")
    rows = []
    inv = b[piv].inv()
    for i in range(m):
        if i == piv:
            continue
        row = [cfg.zero()] * m
        row[i] = cfg.one()
        row[piv] = -(b[i] * inv)
        rows.append(row)
    return rows


def _unitary_moving_b(b, nu, cfg) -> Matrix:
    """g in U_m(F) with g b = nu * e_m, given h(b, b) = N(nu)."""
    m = len(b)
    nuinv = nu.inv()
    w = [x * nuinv for x in b]  # h(w, w) = 1
    if m == 1:
        U = Matrix(cfg, [[w[0]]])
    else:
        # complement w: z_i = e_i - sigma(w_i) w, drop the most singular index
        drop = None
        best = None
        for i, x in enumerate(w):
            if x.is_exact_zero() or x.is_zero_at_precision():
                continue
            v = x.valuation()
            if best is None or v < best:
                best, drop = v, i
        zs = []
        for i in range(m):
            if i == drop:
                continue
            z = [cfg.quad(1, 0) if j == i else cfg.quad(0, 0) for j in range(m)]
            coef = w[i].sigma()
            z = [zj - coef * wj for zj, wj in zip(z, w)]
            zs.append(z)
        Z = Matrix(cfg, [[zs[j][i] for j in range(len(zs))] for i in range(m)])
        G = Z.sigma_transpose() * Z
        C = hermitian_split(G)
        Zp = Z * inverse(C)
        cols = [Zp.col(j) for j in range(m - 1)] + [w]
        U = Matrix(cfg, [[cols[j][i] for j in range(m)] for i in range(m)])
    g = U.sigma_transpose()
    # sanity: g b = nu e_m
    gb = g.apply(b)
    for i, x in enumerate(gb):
        target = nu if i == m - 1 else None
        delta = (x - target) if target is not None else x
        if not (delta.is_zero_at_precision() or delta.valuation_lower_bound() >= cfg.D - 8):
            raise NormalFormFailure("unitary normal form did not move b onto e_m")
    return g


@dataclass
class Lemma1Report:
    eq_u: bool
    eq_gl: bool
    o_u: int
    o_u_corner: int
    o_gl: int
    o_gl_corner: int
    lam_integral: bool

    @property
    def ok(self) -> bool:
        return self.eq_u and self.eq_gl


def lemma1_check(X: HnElement, bound_exp: int = 12) -> Lemma1Report:
    """Descent identities at unit q: conjugate X (and the matched Y) to the
    normal form with b = nu e_{n-1}, and compare each orbital integral with
    1_O(lambda) times the corner orbital integral one size down.

    Requires q(X) to be a unit and the corner element to be rss in its own
    right (raises NotRss otherwise, callers resample).
    """
    cfg = X.cfg
    n = X.n
    if n < 2:
        raise ValueError("descent needs n >= 2")
    q = block_q(X)
    if q.valuation() != 0:
        raise ValueError("descent identity requires |q| = 1")
    data_X = _corner_data(X)  # NotRss off the rss locus, as for the corners below

    nu = solve_norm_equation(q, cfg)
    g = _unitary_moving_b(X.b_col(), nu, cfg)
    Xn = X.conjugate_small(g)
    data_u = _corner_data(HnElement(Xn.corner(), check=False))
    lam_ok = X.lam().is_integral()

    o_u, o_u_corner = (_krylov_value("u", *data, bound_exp)[0] for data in (data_X, data_u))
    eq_u = o_u == (o_u_corner if lam_ok else 0)

    # matched general-linear side
    Y = gl_representative(invariants_of(X))
    gamma_rows = _annihilator_rows(Y.b_col(), cfg) + [Y.c_row()]
    gamma = Matrix(cfg, gamma_rows)
    if val_det(gamma) is INF:
        raise NormalFormFailure("gamma is singular despite unit q")
    Yn = Y.conjugate_small(gamma)
    data_gl = _corner_data(GlnElement(Yn.corner()))
    o_gl, o_gl_corner = (_krylov_value("gl", *data, bound_exp)[0]
                         for data in (_corner_data(Y), data_gl))
    eq_gl = o_gl == (o_gl_corner if lam_ok else 0)

    return Lemma1Report(eq_u, eq_gl, o_u, o_u_corner, o_gl, o_gl_corner, lam_ok)
