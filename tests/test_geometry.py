import math
import random
from fractions import Fraction

import pytest

from fllab.errors import NoHermitianOrbit, NotRss, SideError
from fllab.geometry import (
    GlnElement,
    HnElement,
    InvariantPoint,
    block_q,
    gl_representative,
    invariants_of,
    is_rss,
    sample_hermitian,
    sample_matched_pair,
    transfer_sign,
    u_representative,
)
from fllab.linalg import Matrix, inverse, val_det
from fllab.padic import FieldConfig, PAdicScalar
from reference import centralizer_is_trivial, derive_corner, matches, random_gl, random_unitary
from test_orbital import DEEP_N3, DEEP_N4, _deep_point

CFG3 = FieldConfig(3, -1)
CFG5 = FieldConfig(5, 2)


def hX():
    # X = [[1, w], [-w, 0]] in h_2 for p=3, u=-1
    return HnElement(
        Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(0, 1)],
                      [CFG3.quad(0, -1), CFG3.quad(0, 0)]])
    )


def glY():
    return GlnElement(Matrix.from_rows(CFG3, [[1, 1], [1, 0]]))


def test_block_q_examples():
    assert block_q(GlnElement(Matrix.identity(CFG3, 3))).as_fraction() == 0
    assert block_q(hX()).as_fraction() == 1
    assert block_q(glY()).as_fraction() == 1


def test_is_rss_examples():
    assert is_rss(glY())
    y0 = GlnElement(Matrix.from_rows(CFG3, [[1, 0], [1, 0]]))  # b = 0
    assert not is_rss(y0)
    # n = 3 with (d0, d1, d2) = (1, 1, 1): rank-1 Hankel
    Y = GlnElement(Matrix.from_rows(CFG3, [[0, 0, 1], [1, 1, 0], [1, 1, 0]]))
    d = [1, 1, 1]
    from fllab.geometry import moment_list

    got = [x.as_fraction() for x in moment_list(Y, 3)]
    assert got == d
    assert not is_rss(Y)
    # n = 1 is always rss
    assert is_rss(GlnElement(Matrix.from_rows(CFG3, [[5]])))


def test_is_rss_agrees_with_centralizer_oracle():
    from reference import embedded_centralizer_dim

    rng = random.Random(101)
    for _ in range(50):
        n = rng.choice((2, 3))
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        y = GlnElement(Matrix.from_rows(CFG3, rows))
        assert is_rss(y) == centralizer_is_trivial(y)
        if is_rss(y):
            assert embedded_centralizer_dim(y) == 1
    # hermitian side uses the E-linear split of the same systems
    for _ in range(25):
        n = rng.choice((2, 3))
        x = sample_hermitian(n, CFG3, 3, rng)
        assert is_rss(x) == centralizer_is_trivial(x)


def test_invariants_examples():
    a = invariants_of(hX())
    assert [c.as_fraction() for c in a.charpoly] == [-1, -1]  # t^2 - t - 1
    assert [c.as_fraction() for c in a.moments] == [0]
    assert a.q().as_fraction() == 1
    assert a.is_rss()
    assert a.hermitian_exists()

    # diagonal: moments are powers of lambda
    Y = GlnElement(Matrix.from_rows(CFG3, [[7, 0, 0], [0, 2, 0], [0, 0, 5]]))
    a = invariants_of(Y)
    assert [c.as_fraction() for c in a.moments] == [5, 25]


def test_matched_pairs_share_q():
    for n in (2, 3, 4):
        x, y, a = sample_matched_pair(n, CFG3, 9, seed=2000 + n)
        assert matches(x, y)
        assert block_q(x).agrees(block_q(y), 4)
        assert block_q(x).agrees(a.q(), 4)


def test_q_equals_a2_minus_a1_squared():
    rng = random.Random(555)
    for _ in range(20):
        n = rng.choice((2, 3))
        x = sample_hermitian(n, CFG3, 9, rng)
        a1 = invariants_of(x).moments[0]
        # a_2 = e* X^2 e
        sq = x.mat * x.mat
        a2 = sq[n - 1, n - 1].f_part()
        assert block_q(x).agrees(a2 - a1 * a1, 4)


def test_transfer_sign_examples():
    t = transfer_sign(glY())
    assert (t.v, t.omega) == (0, 1)
    t = transfer_sign(GlnElement(Matrix.from_rows(CFG3, [[1, 1], [3, 0]])))
    assert (t.v, t.omega) == (1, -1)
    with pytest.raises(SideError):
        transfer_sign(hX())


def test_transfer_sign_cocycle():
    rng = random.Random(303)
    y = glY()
    base = transfer_sign(y)
    for _ in range(100):
        g = random_gl(y.n - 1, CFG3, rng)
        conj = y.conjugate_small(g)
        t = transfer_sign(conj)
        vg = val_det(g)
        assert t.omega == base.omega * (-1) ** int(vg)


def test_gl_representative_example():
    a = InvariantPoint(2, [CFG3.scalar(-1), CFG3.scalar(-1)], [CFG3.scalar(0)], CFG3)
    y = gl_representative(a)
    vals = [[y.mat[i, j].as_fraction() for j in range(2)] for i in range(2)]
    assert vals == [[1, 1], [1, 0]]


def test_gl_representative_roundtrip_random_tuples():
    rng = random.Random(404)
    done = 0
    while done < 100:
        n = rng.choice((2, 3))
        cp = [CFG3.scalar(Fraction(rng.randint(-9, 9), 3 ** rng.choice((0, 1))))
              for _ in range(n)]
        mo = [CFG3.scalar(Fraction(rng.randint(-9, 9), 3 ** rng.choice((0, 1))))
              for _ in range(n - 1)]
        a = InvariantPoint(n, cp, mo, CFG3)
        if not a.is_rss():
            continue
        y = gl_representative(a)
        assert invariants_of(y).agrees(a)
        assert is_rss(y)
        done += 1


def test_u_representative_examples():
    a = invariants_of(hX())
    x2 = u_representative(a)
    assert x2.mat.is_hermitian()
    assert invariants_of(x2).agrees(a)

    # n=2 point with d0 = 3: odd Hankel valuation, no hermitian orbit
    y = GlnElement(Matrix.from_rows(CFG3, [[1, 1], [3, 0]]))
    a = invariants_of(y)
    assert not a.hermitian_exists()
    with pytest.raises(NoHermitianOrbit):
        u_representative(a)

    # non-rss tuple
    bad = InvariantPoint(2, [CFG3.scalar(0), CFG3.scalar(0)], [CFG3.scalar(0)], CFG3)
    with pytest.raises(NotRss):
        u_representative(bad)


def test_matches_behaviour():
    x, y, a = sample_matched_pair(2, CFG3, 20, seed=7)
    assert matches(x, y)
    # perturb the lambda entry of Y by 1: a_1 differs
    rows = [[y.mat[i, j] for j in range(2)] for i in range(2)]
    rows[1][1] = rows[1][1] + CFG3.one()
    y2 = GlnElement(Matrix(CFG3, rows))
    assert not matches(x, y2)
    # conjugating Y by random g in GL_{n-1}(F) keeps the match
    rng = random.Random(1)
    for _ in range(5):
        g = random_gl(1, CFG3, rng)
        assert matches(x, y.conjugate_small(g))


def test_sample_matched_pair_determinism():
    x1, y1, a1 = sample_matched_pair(2, CFG3, 50, seed=42)
    x2, y2, a2 = sample_matched_pair(2, CFG3, 50, seed=42)
    assert x1.mat.agrees(x2.mat) and y1.mat.agrees(y2.mat)
    for n in (2, 3):
        x, y, a = sample_matched_pair(n, CFG3, 20, seed=99)
        assert matches(x, y)
        assert val_det(a.hankel()) % 2 == 0


def test_invariants_conjugation_invariance():
    rng = random.Random(808)
    for n in (2, 3):
        x, y, a = sample_matched_pair(n, CFG3, 9, seed=rng.randint(0, 10**6))
        for _ in range(50):
            g = random_unitary(n - 1, CFG3, rng)
            assert invariants_of(x.conjugate_small(g)).agrees(a, 6)
            h = random_gl(n - 1, CFG3, rng)
            assert invariants_of(y.conjugate_small(h)).agrees(a, 6)


def test_sigma_transpose_invariance():
    rng = random.Random(909)
    for _ in range(10):
        x = sample_hermitian(3, CFG3, 9, rng)
        flipped = HnElement(x.mat.sigma_transpose(), check=False)
        assert invariants_of(flipped).agrees(invariants_of(x))


def test_random_unitary():
    # Cayley transform of A = 0 is the identity
    from fllab.linalg import inverse

    I = Matrix.identity(CFG3, 2, quad=True)
    Z = Matrix.zero(CFG3, 2, 2, quad=True)
    assert ((I + Z) * inverse(I - Z)).agrees(I)
    rng = random.Random(2024)
    for m in (1, 2, 3):
        g = random_unitary(m, CFG3, rng)
        I = Matrix.identity(CFG3, m, quad=True)
        resid = g.sigma_transpose() * g - I
        for row in resid.entries:
            for xx in row:
                assert xx.is_zero_at_precision() or xx.valuation_lower_bound() >= CFG3.D - 4
    # 1x1 Cayley of w*I: g = (1+w)/(1-w), N(g) = 1
    g11 = (CFG3.quad(1, 1)) / (CFG3.quad(1, -1))
    assert g11.norm().agrees(CFG3.one(), 6)


def test_invariant_point_json_roundtrip():
    a = invariants_of(hX())
    d = a.to_json_dict()
    assert d == {"n": 2, "charpoly": ["-1", "-1"], "moments": ["0"]}
    b = InvariantPoint.from_json_dict(d, CFG3)
    assert b.agrees(a)


def _fractions(corner):
    lam, d, chi_p = corner
    return lam.as_fraction(), [x.as_fraction() for x in d], [x.as_fraction() for x in chi_p]


def _check_derive(a):
    # the corner data from the integer recursion equals the p-adic scalar one
    got = a._derive()
    assert all(x.is_exact for x in [got[0], *got[1], *got[2]])
    ref = derive_corner(InvariantPoint(a.n, a.charpoly, a.moments, a.cfg))
    assert _fractions(got) == _fractions(ref)
    return got


@pytest.mark.parametrize("cfg", [CFG3, CFG5], ids=["p3", "p5"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_derive_matches_reference_recursion(n, cfg):
    # hermitian points (denominators 1 or p) and general-linear points whose
    # denominators hold other primes too, so the common denominator is not a
    # power of p
    rng = random.Random(f"derive:{n}:{cfg.p}")
    for _ in range(10):
        _check_derive(invariants_of(sample_hermitian(n, cfg, 20, rng)))
        dens = (1, 2, cfg.p, 7 * cfg.p ** 2)
        rows = [[Fraction(rng.randint(-20, 20), rng.choice(dens)) for _ in range(n)]
                for _ in range(n)]
        _check_derive(invariants_of(GlnElement(Matrix.from_rows(cfg, rows))))


def test_derive_matches_reference_at_deep_points():
    for rows, _ in DEEP_N3 + DEEP_N4:
        _check_derive(invariants_of(_deep_point(rows)))


def test_derive_matches_reference_at_vanishing_corner_data():
    q = CFG3.quad
    # lambda = 0
    X = HnElement(Matrix(CFG3, [[q(1, 0), q(2, 1), q(0, 1)], [q(2, -1), q(-3, 0), q(1, 1)],
                                [q(0, -1), q(1, -1), q(0, 0)]]))
    assert _check_derive(invariants_of(X))[0].is_exact_zero()
    # q = 0 (b = 0, so every d_k vanishes), with lambda = 7 and with lambda = 0
    for lam in (7, 0):
        Y = GlnElement(Matrix.from_rows(CFG3, [[1, 2, 0], [3, 4, 0], [5, 6, lam]]))
        lam_x, d, _ = _check_derive(invariants_of(Y))
        assert all(x.is_exact_zero() for x in d) and lam_x.as_fraction() == lam
    # n = 1: lambda is the entry, and it may vanish
    for lam in (5, 0):
        _check_derive(invariants_of(GlnElement(Matrix.from_rows(CFG3, [[lam]]))))


def test_derive_refuses_truncated_coordinates():
    a = invariants_of(hX())
    cut = PAdicScalar.inexact(CFG3, 0, 2, 12)  # -1 + O(3^12)
    for b in (InvariantPoint(2, [a.charpoly[0], cut], a.moments, CFG3),
              InvariantPoint(2, a.charpoly, [cut], CFG3)):
        with pytest.raises(ValueError):
            b._derive()
        with pytest.raises(ValueError):
            b.q()
