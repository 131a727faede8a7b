import random
import sys
from fractions import Fraction

import pytest

from fllab.errors import ExplosionGuard, NotRss, OracleTooLarge, SideError
from fllab.geometry import (
    GlnElement,
    HnElement,
    InvariantPoint,
    _embed,
    block_q,
    gl_representative,
    invariants_of,
    is_rss,
    sample_hermitian,
    sample_matched_pair,
    transfer_sign,
)
from fllab.lattice import Lattice, enumerate_all_between, module_closure
from fllab.linalg import Matrix, inverse, val_det
from fllab.orbital import (
    fl_compare,
    index_profile,
    lemma1_check,
    orbital_gl_unit,
    orbital_oracle,
    orbital_u_unit,
)
from fllab.padic import FieldConfig
from reference import index_sign, random_gl, random_unitary, scalar

CFG3 = FieldConfig(3, -1)
CFG5 = FieldConfig(5, 2)


def hX():
    return HnElement(
        Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(0, 1)],
                      [CFG3.quad(0, -1), CFG3.quad(0, 0)]])
    )


def test_orbital_gl_examples():
    cases = [([[1, 1], [1, 0]], 1, 1), ([[1, 1], [3, 0]], 0, -1), ([[1, 1], [9, 0]], 1, 1)]
    for rows, value, omega in cases:
        r = orbital_gl_unit(GlnElement(Matrix.from_rows(CFG3, rows)))
        assert (r.value, r.omega) == (value, omega)


def test_orbital_u_examples():
    assert orbital_u_unit(hX()).value == 1
    # lambda not integral -> 0
    X = HnElement(Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(0, 1)],
                                [CFG3.quad(0, -1), CFG3.quad(Fraction(1, 3), 0)]]))
    assert orbital_u_unit(X).value == 0
    # b outside O_E -> 0
    X2 = HnElement(Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(0, Fraction(1, 3))],
                                 [CFG3.quad(0, Fraction(-1, 3)), CFG3.quad(0, 0)]]))
    assert orbital_u_unit(X2).value == 0


def test_orbital_n1():
    y = GlnElement(Matrix.from_rows(CFG3, [[5]]))
    assert orbital_gl_unit(y).value == 1
    assert orbital_oracle("gl", y) == 1
    y = GlnElement(Matrix.from_rows(CFG3, [[Fraction(1, 3)]]))
    assert orbital_gl_unit(y).value == 0
    x = HnElement(Matrix(CFG3, [[CFG3.quad(7, 0)]]), check=False)
    assert orbital_u_unit(x).value == 1
    assert orbital_oracle("u", x) == 1


def test_non_rss_rejected():
    with pytest.raises(NotRss):
        orbital_gl_unit(GlnElement(Matrix.from_rows(CFG3, [[1, 0], [1, 0]])))


def test_oracle_examples():
    assert orbital_oracle("gl", GlnElement(Matrix.from_rows(CFG3, [[1, 1], [9, 0]]))) == 1
    assert orbital_oracle("u", hX()) == 1
    with pytest.raises(OracleTooLarge):
        x, y, a = sample_matched_pair(4, CFG3, 5, seed=3)
        orbital_oracle("u", x)


def test_oracle_rejects_wrong_side():
    y = GlnElement(Matrix.from_rows(CFG3, [[1, 3], [1, 0]]))
    with pytest.raises(SideError):
        orbital_oracle("u", y)
    with pytest.raises(SideError):
        orbital_oracle("gl", hX())


def test_orbital_rejects_wrong_side():
    with pytest.raises(SideError):
        orbital_u_unit(GlnElement(Matrix.from_rows(CFG3, [[1, 3], [1, 0]])))
    with pytest.raises(SideError):
        orbital_gl_unit(hX())


def _oracle_instances(side, n, count, seed, cfg=CFG3, height=5):
    rng = random.Random(seed)
    got = 0
    while got < count:
        if side == "u":
            elt = sample_hermitian(n, cfg, height, rng)
            from fllab.geometry import is_rss

            if not is_rss(elt):
                continue
        else:
            rows = [[Fraction(rng.randint(-height, height), cfg.p ** rng.choice((0, 1)))
                     for _ in range(n)] for _ in range(n)]
            elt = GlnElement(Matrix.from_rows(cfg, rows))
            from fllab.geometry import is_rss

            if not is_rss(elt):
                continue
        yield elt
        got += 1


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_agreement_gl(n):
    done = 0
    for elt in _oracle_instances("gl", n, 200, seed=1000 + n):
        try:
            expected = orbital_oracle("gl", elt)
        except OracleTooLarge:
            continue
        assert orbital_gl_unit(elt).value == expected
        done += 1
        if done >= 50:
            break
    assert done >= 50


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_agreement_u(n):
    done = 0
    for elt in _oracle_instances("u", n, 200, seed=2000 + n):
        try:
            expected = orbital_oracle("u", elt)
        except OracleTooLarge:
            continue
        assert orbital_u_unit(elt).value == expected
        done += 1
        if done >= 50:
            break
    assert done >= 50


def _reference_oracle(side, elt, max_exp):
    # orbital_oracle over Fraction-backed scalars: each box lattice L = L1 D as
    # a Lattice with canonical basis B, the gram test for L = L^dual, then
    # integrality of diag(B^-1, 1) . elt . diag(B, 1).  Also returns which of
    # s > 0 (Y1 not integral), t > 0 (gram of L1 not integral) and a
    # non-integral lambda hold, when the box is not empty
    n, quad = elt.n, side == "u"
    Xp = elt.corner()
    Lmin = module_closure(Xp, elt.b_col(), kind="E" if quad else "F").to_lattice()
    L1 = (Lmin.dual() if quad
          else module_closure(Xp.transpose(), elt.c_row()).to_lattice().dual())
    box = enumerate_all_between(Lmin, L1, max_exp)
    total = 0
    for _, cols in box:
        gens = [L1.basis.apply([scalar(x, elt.cfg) for x in col]) for col in cols]
        L = Lattice.from_generators(gens, elt.cfg, L1.kind)
        G = L.gram()
        if quad and not (G.is_integral() and val_det(G) == 0):
            continue
        B = L.basis
        if (_embed(inverse(B), n) * elt.mat * _embed(B, n)).is_integral():
            total += 1 if quad else index_sign(L)
    Y1 = _embed(inverse(L1.basis), n) * elt.mat * _embed(L1.basis, n)
    traits = {name for name, holds in (("s", not Y1.is_integral()),
                                       ("t", not L1.gram().is_integral()),
                                       ("lam", not elt.lam().is_integral())) if holds}
    return (total if quad else transfer_sign(elt).omega * total), (traits if box else set())


def _reference_instances(side, n, cfg, rng):
    # entries a p^i / p^j of height 5, i in {0, 1}, and j in {0, 1} in the
    # last row and column, j = 0 in the corner; b gets one more factor p,
    # which deepens the box (e = 4 at n = 3, where lattices of index e/2 that
    # are not self-dual appear)
    p = cfg.p

    def entry(i, j):
        den = p ** rng.choice((0, 0, 1)) if n - 1 in (i, j) else 1
        x = Fraction(rng.randint(-5, 5) * p ** rng.choice((0, 0, 1)), den)
        return x * p if j == n - 1 and i < n - 1 else x

    while True:
        if side == "u":
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    x = cfg.quad(entry(i, j), entry(i, j) if i != j else 0)
                    rows[i][j], rows[j][i] = x, x.sigma()
            elt = HnElement(Matrix(cfg, rows), check=False)
        else:
            elt = GlnElement(Matrix.from_rows(cfg, [[entry(i, j) for j in range(n)]
                                                    for i in range(n)]))
        if is_rss(elt):
            yield elt


@pytest.mark.parametrize("side", ["u", "gl"])
@pytest.mark.parametrize("n,cfg", [(2, CFG3), (3, CFG3), (2, CFG5), (3, CFG5)])
def test_oracle_matches_reference(side, n, cfg):
    # the residue tests of orbital_oracle against the old Fraction route
    rng = random.Random(f"{side}{n}{cfg.p}")
    max_exp = 8 if cfg.p == 3 else 4
    seen, done = set(), 0
    for elt in _reference_instances(side, n, cfg, rng):
        try:
            expected, traits = _reference_oracle(side, elt, max_exp)
        except ExplosionGuard:
            continue
        assert orbital_oracle(side, elt, max_exp) == expected
        seen |= traits
        done += 1
        if done >= 30:
            break
    assert seen >= ({"s", "t", "lam"} if side == "u" else {"s", "lam"})


def test_conjugation_invariance():
    rng = random.Random(77)
    for n in (2, 3):
        x, y, a = sample_matched_pair(n, CFG3, 9, seed=500 + n)
        bu = orbital_u_unit(x).value
        bg = orbital_gl_unit(y).value
        for _ in range(50):
            g = random_unitary(n - 1, CFG3, rng)
            assert orbital_u_unit(x.conjugate_small(g)).value == bu
            h = random_gl(n - 1, CFG3, rng)
            assert orbital_gl_unit(y.conjugate_small(h)).value == bg


def test_fl_compare_examples():
    r = fl_compare(invariants_of(hX()))
    assert (r.o_u, r.o_gl, r.hermitian_exists, r.equal) == (1, 1, True, True)

    # |q| > 1: both sides vanish
    X = HnElement(Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(0, Fraction(1, 3))],
                                [CFG3.quad(0, Fraction(-1, 3)), CFG3.quad(2, 0)]]))
    a = invariants_of(X)
    assert a.q().valuation() < 0
    r = fl_compare(a)
    assert (r.o_u, r.o_gl, r.equal) == (0, 0, True)

    # odd Hankel valuation: no hermitian orbit and o_gl = 0
    Y = GlnElement(Matrix.from_rows(CFG3, [[1, 1], [3, 0]]))
    r = fl_compare(invariants_of(Y))
    assert not r.hermitian_exists and r.o_gl == 0 and r.equal


def test_fl_compare_count_three():
    # integral n=3 point of Hankel val det 4 with three self-dual stable lattices
    q = CFG3.quad
    X = HnElement(Matrix(CFG3, [[q(0, 0), q(-2, 3), q(-3, -6)],
                                [q(-2, -3), q(-2, 0), q(9, -3)],
                                [q(-3, 6), q(9, 3), q(3, 0)]]))
    a = invariants_of(X)
    r = fl_compare(a, 10)
    assert (r.o_u, r.o_gl) == (3, 3)
    assert orbital_oracle("u", X, 8) == 3
    assert orbital_oracle("gl", gl_representative(a)) == 3


# integral n=3 and n=4, p=3 points (w^2 = 2) of Hankel val det 6-8, with counts
DEEP_N3 = [
    ([[(2, 0), (3, -6), (0, -3)], [(3, 6), (-1, 0), (9, 0)], [(0, 3), (9, 0), (0, 0)]], 4),
    ([[(-2, 0), (-6, -3), (18, -27)], [(-6, 3), (-2, 0), (-9, 3)],
      [(18, 27), (-9, -3), (0, 0)]], 7),
    ([[(1, 0), (9, 18), (-3, 3)], [(9, -18), (1, 0), (-9, 18)],
      [(-3, -3), (-9, -18), (-3, 0)]], 13),
]
DEEP_N4 = [
    ([[(-1, 0), (3, 0), (-9, -6), (-18, 0)], [(3, 0), (2, 0), (-18, -18), (9, 6)],
      [(-9, 6), (-18, 18), (1, 0), (-2, -1)], [(-18, 0), (9, -6), (-2, 1), (-3, 0)]], 7),
    ([[(1, 0), (-18, 27), (0, 0), (6, 3)], [(-18, -27), (-2, 0), (-1, 2), (-18, -18)],
      [(0, 0), (-1, -2), (-3, 0), (3, 0)], [(6, -3), (-18, 18), (3, 0), (2, 0)]], 4),
]


def _deep_point(rows):
    cfg = FieldConfig(3, 2)
    return HnElement(Matrix(cfg, [[cfg.quad(*e) for e in row] for row in rows]))


@pytest.mark.parametrize("rows,count", DEEP_N3)
def test_oracles_reach_deep_counts(rows, count):
    # integral n=3, p=3 points (w^2 = 2) of Hankel val det 6-8: both box
    # oracles against the walk
    cfg = FieldConfig(3, 2)
    X = HnElement(Matrix(cfg, [[cfg.quad(*e) for e in row] for row in rows]))
    a = invariants_of(X)
    r = fl_compare(a, 16)
    assert (r.o_u, r.o_gl) == (count, count)
    assert orbital_oracle("u", X, 16) == count
    assert orbital_oracle("gl", gl_representative(a), 8) == count


@pytest.mark.parametrize("rows,count", DEEP_N4)
def test_fl_compare_n4_counts(rows, count):
    # integral n=4, p=3 points (w^2 = 2) with counts above 3
    cfg = FieldConfig(3, 2)
    X = HnElement(Matrix(cfg, [[cfg.quad(*e) for e in row] for row in rows]))
    r = fl_compare(invariants_of(X), 12)
    assert (r.o_u, r.o_gl) == (count, count)


def _check_profile(a, bound):
    # M -> M^# = {x : x^T H M <= O} reverses inclusion between O^m and
    # H^-1 O^m, keeps C-stability (C is self-adjoint for H) and sends index k
    # to e - k, e = val det H: the gl profile is symmetric.  Its signed sum is
    # o_gl, and the self-dual lattices all have index e/2
    lam, d, chi_p = a._derive()
    e = val_det(a.hankel())
    n = index_profile(lam, d, chi_p, "F", e, bound)
    assert len(n) == e + 1 and n == n[::-1]
    r = fl_compare(a, bound)
    assert (-1) ** e * sum((-1) ** k * nk for k, nk in enumerate(n)) == r.o_gl
    if r.hermitian_exists:
        nu = index_profile(lam, d, chi_p, "E", e, bound)
        assert sum(nu) == r.o_u
        assert nu == [] or (len(nu) == e // 2 + 1 and sum(nu) == nu[-1])


def test_index_profile_duality_at_deep_points():
    for rows, _ in DEEP_N3:
        _check_profile(invariants_of(_deep_point(rows)), 16)
    for rows, _ in DEEP_N4:
        _check_profile(invariants_of(_deep_point(rows)), 12)


def test_index_profile_duality_random():
    # integral n=3, p=3 points, hermitian (e even) and general-linear (e odd
    # too, where the symmetry alone makes o_gl vanish), off-diagonal entries
    # carrying p^0, p^1 or p^2, Hankel val det 1-5
    cfg = FieldConfig(3, 2)
    rng = random.Random(7)
    seen = set()
    done = 0
    while done < 30:
        scale = [[1 if i == j else 3 ** rng.randint(0, 2) for j in range(3)] for i in range(3)]
        if done % 2:
            elt = GlnElement(Matrix.from_rows(cfg, [[rng.randint(-3, 3) * scale[i][j]
                                                     for j in range(3)] for i in range(3)]))
        else:
            rows = [[None] * 3 for _ in range(3)]
            for i in range(3):
                rows[i][i] = cfg.quad(rng.randint(-3, 3), 0)
                for j in range(i + 1, 3):
                    x = cfg.quad(rng.randint(-3, 3) * scale[i][j], rng.randint(-3, 3) * scale[i][j])
                    rows[i][j], rows[j][i] = x, x.sigma()
            elt = HnElement(Matrix(cfg, rows), check=False)
        if not is_rss(elt):
            continue
        a = invariants_of(elt)
        e = val_det(a.hankel())
        if not 1 <= e <= 5:
            continue
        _check_profile(a, 10)
        seen.add(e % 2)
        done += 1
    assert seen == {0, 1}


def test_kernel_builds_no_lattice(monkeypatch):
    # the orbital values are read off the walk's integer pairs (k, S)
    X = _deep_point(DEEP_N3[0][0])
    a = invariants_of(X)
    Y = gl_representative(a)

    def refuse(*args, **kwargs):
        raise AssertionError("a Lattice was built")

    monkeypatch.setattr(Lattice, "__init__", refuse)
    r = fl_compare(a, 16)
    assert (r.o_u, r.o_gl) == (4, 4)
    assert orbital_u_unit(X, 16).value == 4
    assert orbital_gl_unit(Y, 16).value == 4


def _count_val_det(monkeypatch):
    # every fllab module's binding of linalg.val_det, as the benchmark's tracer
    # wraps them, replaced by a counter
    from fllab import linalg

    calls, real = [], linalg.val_det

    def counted(M):
        calls.append(M)
        return real(M)

    for name, mod in list(sys.modules.items()):
        if name == "fllab" or name.startswith("fllab."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_fl_compare_takes_val_det_once(monkeypatch):
    # e = val det H is computed once per point and handed to both walks and the
    # self-dual filter (the count-4 point took four computations before)
    cfg = FieldConfig(3, 2)
    vanishing = [GlnElement(Matrix.from_rows(CFG3, [[1, 1], [3, 0]])),  # e = 1
                 GlnElement(Matrix.from_rows(cfg, [[2, -2, -1], [6, 3, 0], [3, -3, 1]]))]  # e = 5
    points = [(invariants_of(_deep_point(DEEP_N3[0][0])), (4, 4, True)),
              *((invariants_of(y), (0, 0, False)) for y in vanishing)]
    calls = _count_val_det(monkeypatch)
    for a, want in points:
        calls.clear()
        r = fl_compare(a, 16)
        assert (r.o_u, r.o_gl, r.hermitian_exists) == want
        assert len(calls) == 1


def test_fl_compare_refuses_a_wrong_val_det():
    # the walk checks the e it is handed on the residues of H: a wrong cached
    # val det H raises ValueError instead of giving a count
    for shift in (-1, 1, 2):
        a = invariants_of(_deep_point(DEEP_N3[0][0]))
        a._hankel_vd = a.hankel_val_det() + shift
        with pytest.raises(ValueError):
            fl_compare(a, 40)


def test_transfer_sign_is_hankel_parity():
    # omega(Y_a) = (-1)^(val det H): the sign fl_compare puts on the gl count
    from fllab.geometry import transfer_sign

    parities = set()
    for n in (2, 3, 4):
        for elt in _oracle_instances("gl", n, 20, seed=60 + n, height=12):
            a = invariants_of(elt)
            vd = int(val_det(a.hankel()))
            assert (transfer_sign(gl_representative(a)).v - vd) % 2 == 0
            parities.add(vd % 2)
    assert parities == {0, 1}


def test_support_bound_property():
    # |q(a)| > 1 forces both orbital integrals to vanish
    rng = random.Random(88)
    found = 0
    while found < 10:
        x = sample_hermitian(2, CFG3, 9, rng)
        from fllab.geometry import is_rss

        if not is_rss(x):
            continue
        a = invariants_of(x)
        if a.q().is_zero_at_precision() or a.q().valuation() >= 0:
            continue
        r = fl_compare(a)
        assert (r.o_u, r.o_gl) == (0, 0)
        found += 1


def test_vanishing_off_image():
    # >= 50 rss points with no hermitian orbit: o_gl = 0 exactly
    from fllab.geometry import is_rss

    rng = random.Random(99)
    found = 0
    while found < 50:
        n = rng.choice((2, 3))
        rows = [[Fraction(rng.randint(-12, 12), CFG3.p ** rng.choice((0, 1)))
                 for _ in range(n)] for _ in range(n)]
        y = GlnElement(Matrix.from_rows(CFG3, rows))
        if not is_rss(y):
            continue
        a = invariants_of(y)
        if a.hermitian_exists():
            continue
        r = fl_compare(a)
        assert not r.hermitian_exists and r.o_gl == 0 and r.equal
        found += 1


def test_fundamental_lemma_random_pairs():
    for n in (2, 3):
        for seed in range(40):
            x, y, a = sample_matched_pair(n, CFG3, 20, seed=seed)
            assert fl_compare(a).equal
    for seed in range(20):
        x, y, a = sample_matched_pair(2, CFG5, 20, seed=seed)
        assert fl_compare(a).equal


def _unit_q_sample(n, cfg, rng, height=9):
    from fllab.geometry import is_rss

    while True:
        x = sample_hermitian(n, cfg, height, rng)
        if not is_rss(x):
            continue
        q = block_q(x)
        if q.is_zero_at_precision() or q.valuation() != 0:
            continue
        return x


def test_lemma1_examples():
    rep = lemma1_check(hX())
    assert rep.ok and rep.o_u == 1 and rep.o_u_corner == 1

    # lambda = 1/3: both sides vanish and the identity still holds
    X = HnElement(Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(0, 1)],
                                [CFG3.quad(0, -1), CFG3.quad(Fraction(1, 3), 0)]]))
    rep = lemma1_check(X)
    assert rep.ok and rep.o_u == 0 and not rep.lam_integral


def test_lemma1_random():
    rng = random.Random(31337)
    for n in (2, 3):
        done = 0
        while done < 15:
            x = _unit_q_sample(n, CFG3, rng)
            try:
                rep = lemma1_check(x)
            except NotRss:
                continue
            assert rep.ok
            done += 1
