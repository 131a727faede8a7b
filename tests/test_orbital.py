import random
from fractions import Fraction

import pytest

from fllab.errors import NotRss, OracleTooLarge
from fllab.geometry import (
    GlnElement,
    HnElement,
    InvariantPoint,
    block_q,
    gl_representative,
    invariants_of,
    random_gl,
    random_unitary,
    sample_hermitian,
    sample_matched_pair,
)
from fllab.linalg import Matrix, val_det
from fllab.orbital import (
    fl_compare,
    lemma1_check,
    orbital_gl_unit,
    orbital_oracle,
    orbital_u_unit,
)
from fllab.padic import FieldConfig

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
    assert orbital_oracle("gl", gl_representative(a)) == 3


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
