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

Unitary side: cosets of U_{n-1}(F)/U_{n-1}(O_F) correspond to self-dual
O_E-lattices, so the integral counts the L over O_E that are self-dual for
h(v, w) = sigma(v)^T H w (H is the Gram matrix of the Krylov basis).

General-linear side: cosets correspond to arbitrary O_F-lattices, each
weighted by its index sign, and the transfer sign omega(Y) in front combines
with the index sign of the Krylov basis into (-1)^(val det H):

    O(Y, 1) = (-1)^(val det H) * sum over L of (-1)^[L : O^m].

A structurally independent oracle re-derives both counts in the element's
own coordinates by enumerating canonical coset representatives in a bounded
box and testing g . Y . g^-1 integrality entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NormalFormFailure, NotRss, OracleTooLarge
from .geometry import (
    GlnElement,
    HnElement,
    InvariantPoint,
    _embed,
    gl_representative,
    invariants_of,
    is_rss,
    moment_list,
    transfer_sign,
)
from .lattice import (
    Lattice,
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


def krylov_lattices(lam, d, chi_p, kind: str, bound_exp: int = 12) -> list:
    """The C-stable lattices O^m <= L <= H^-1 O^m of the corner data (lam, d, chi'),
    over O_F (kind "F") or, keeping the ones self-dual for H, over O_E ("E").

    Empty unless lam, C = companion(chi') and H = (d_{i+j}) are integral.
    """
    cfg = lam.cfg
    m = len(chi_p)
    C = Matrix.companion(cfg, chi_p, quad=(kind == "E"))
    H = Matrix.hankel(cfg, d, m)
    if not (lam.is_integral() and C.is_integral() and H.is_integral()):
        return []
    if kind == "E":
        return enumerate_selfdual_stable(C, H, bound_exp)
    std = Lattice.standard(cfg, m)
    return enumerate_stable_between(std, std.dual(H), C, bound_exp)


def _krylov_value(side: str, lam, d, chi_p, bound_exp: int):
    """(value, lattice count) of the unit orbital integral above (lam, d, chi')."""
    if not chi_p:  # n = 1: the integral is 1_O(lam)
        ok = int(lam.is_integral())
        return ok, ok
    found = krylov_lattices(lam, d, chi_p, "E" if side == "u" else "F", bound_exp)
    if side == "u" or not found:
        return len(found), len(found)
    sign = -1 if val_det(Matrix.hankel(lam.cfg, d, len(chi_p))) % 2 else 1
    return sign * sum(L.index_sign() for L in found), len(found)


def _corner_data(x):
    """(lam, d_0..d_{2m-2}, chi') read off the blocks of x, in F."""
    m = x.n - 1
    if m == 0:
        return x.lam(), [], []
    d = moment_list(x, 2 * m - 1)
    chi_p = charpoly(x.corner())[:-1]
    if isinstance(x, HnElement):
        d = [t.f_part() for t in d]
        chi_p = [c.f_part() for c in chi_p]
    return x.lam(), d, chi_p


def orbital_u_unit(X: HnElement, bound_exp: int = 12) -> OrbitalResult:
    """O(X, 1_{h_n(O)}): count of self-dual stable lattices, or 0 off support."""
    if not is_rss(X):
        raise NotRss("unitary orbital integral needs an rss element")
    value, count = _krylov_value("u", *_corner_data(X), bound_exp)
    return OrbitalResult(value, "u", None, count)


def orbital_gl_unit(Y: GlnElement, bound_exp: int = 12) -> OrbitalResult:
    """O(Y, 1_{gl_n(O)}) = omega(Y) * sum of index signs over admissible lattices,
    counted in the Krylov basis; omega(Y) is reported with it."""
    if not is_rss(Y):
        raise NotRss("general-linear orbital integral needs an rss element")
    value, count = _krylov_value("gl", *_corner_data(Y), bound_exp)
    return OrbitalResult(value, "gl", transfer_sign(Y).omega, count)


# ----------------------------------------------------------------------
# independent oracle


def orbital_oracle(side: str, elt, max_exp: int = 4) -> int:
    """Same value by direct enumeration of canonical coset representatives.

    Enumerates all canonical lattices in the box given by the Krylov bounds,
    rebuilds the coset representative g from each candidate basis (for the
    unitary side through a Gram-matrix split), and tests g . elt . g^-1 for
    entrywise integrality.  Supported for rank n-1 <= 2 and small boxes.
    """
    n = elt.n
    if n - 1 > 2:
        raise OracleTooLarge("oracle supports rank at most 2")
    if n == 1:
        entry = elt.mat[0, 0]
        entry = entry.f_part() if side == "u" else entry
        return 1 if entry.is_integral() else 0
    if side == "u":
        return _oracle_u(elt, max_exp)
    return _oracle_gl(elt, max_exp)


def _row_constraint_lattice(Yp: Matrix, c) -> Lattice:
    """K0 = {v : c Y'^k v in O, k = 0..m-1} = dual of the Krylov span of c."""
    rows = module_closure(Yp.transpose(), list(c), kind="F")
    if not rows.full_rank:
        raise NotRss("row Krylov space degenerate despite rss test")
    return rows.to_lattice().dual()


def _oracle_gl(Y: GlnElement, max_exp: int) -> int:
    cfg = Y.cfg
    n = Y.n
    Yp, b, c = Y.corner(), Y.b_col(), Y.c_row()
    Lmin = module_closure(Yp, b, kind="F").to_lattice()
    K0 = _row_constraint_lattice(Yp, c)
    if not K0.contains_lattice(Lmin):
        return 0
    box = enumerate_all_between(Lmin, K0, max_quotient_exp=max_exp)
    total = 0
    for L in box:
        g = inverse(L.basis)
        conj = _embed(g, n) * Y.mat * _embed(inverse(g), n)
        if conj.is_integral():
            vg = int(val_det(g))
            total += -1 if vg % 2 else 1
    return transfer_sign(Y).omega * total


def _oracle_u(X: HnElement, max_exp: int) -> int:
    cfg = X.cfg
    n = X.n
    Xp, b = X.corner(), X.b_col()
    Lmin = module_closure(Xp, b, kind="E").to_lattice()
    Lmax = Lmin.dual()
    if not Lmax.contains_lattice(Lmin):
        return 0
    box = enumerate_all_between(Lmin, Lmax, max_quotient_exp=max_exp)
    count = 0
    for L in box:
        G = L.gram()
        if not G.is_integral():
            continue
        vd = val_det(G)
        if vd is INF or vd != 0:
            continue
        C = hermitian_split(G)
        Bprime = L.basis * inverse(C)
        g = inverse(Bprime)
        resid = g.sigma_transpose() * g - Matrix.identity(cfg, n - 1, quad=True)
        for row in resid.entries:
            for x in row:
                assert x.is_zero_at_precision() or x.valuation_lower_bound() >= cfg.D - 6
        conj = _embed(g, n) * X.mat * _embed(inverse(g), n)
        if conj.is_integral():
            count += 1
    return count


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
    """
    if not a.is_rss():
        raise NotRss("comparison needs an rss invariant point")
    exists = a.hermitian_exists()
    lam, d, chi_p = a._derive()
    o_u = _krylov_value("u", lam, d, chi_p, bound_exp)[0] if exists else 0
    o_gl = _krylov_value("gl", lam, d, chi_p, bound_exp)[0]
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
    from .geometry import block_q

    cfg = X.cfg
    n = X.n
    if n < 2:
        raise ValueError("descent needs n >= 2")
    q = block_q(X)
    if q.valuation() != 0:
        raise ValueError("descent identity requires |q| = 1")
    if not is_rss(X):
        raise NotRss("need an rss element")

    nu = solve_norm_equation(q, cfg)
    g = _unitary_moving_b(X.b_col(), nu, cfg)
    Xn = X.conjugate_small(g)
    corner_u = HnElement(Xn.corner(), check=False)
    if n > 2 and not is_rss(corner_u):
        raise NotRss("corner element not rss; resample")
    lam = X.lam()
    lam_ok = lam.is_integral()

    o_u = orbital_u_unit(X, bound_exp).value
    o_u_corner = orbital_u_unit(corner_u, bound_exp).value if n > 2 else (
        1 if corner_u.mat[0, 0].f_part().is_integral() else 0)
    rhs_u = (o_u_corner if lam_ok else 0)
    eq_u = o_u == rhs_u

    # matched general-linear side
    Y = gl_representative(invariants_of(X))
    m = n - 1
    gamma_rows = _annihilator_rows(Y.b_col(), cfg) + [Y.c_row()]
    gamma = Matrix(cfg, gamma_rows)
    if val_det(gamma) is INF:
        raise NormalFormFailure("gamma is singular despite unit q")
    Yn = Y.conjugate_small(gamma)
    corner_gl = GlnElement(Yn.corner())
    if n > 2 and not is_rss(corner_gl):
        raise NotRss("gl corner element not rss; resample")
    o_gl = orbital_gl_unit(Y, bound_exp).value
    o_gl_corner = orbital_gl_unit(corner_gl, bound_exp).value if n > 2 else (
        1 if corner_gl.mat[0, 0].is_integral() else 0)
    rhs_gl = (o_gl_corner if lam_ok else 0)
    eq_gl = o_gl == rhs_gl

    return Lemma1Report(eq_u, eq_gl, o_u, o_u_corner, o_gl, o_gl_corner, lam_ok)
