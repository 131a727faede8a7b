import math
import random
from fractions import Fraction

import pytest

from fllab.errors import NotSplit, SingularSystem
from fllab.linalg import (
    Matrix,
    charpoly,
    hermitian_split,
    hnf_basis,
    inverse,
    solve_linear,
    val_det,
)
from fllab.padic import FieldConfig, PAdicScalar, QuadScalar
from reference import charpoly_oracle

CFG3 = FieldConfig(3, -1)
CFG5 = FieldConfig(5, 2)


def rand_matrix(cfg, n, rng, height=9, quad=False, denom=True):
    def entry():
        num = rng.randint(-height, height)
        e = rng.choice((0, 1)) if denom else 0
        return cfg.scalar(Fraction(num, cfg.p**e))

    if quad:
        rows = [[cfg.quad(entry().as_fraction(), entry().as_fraction())
                 for _ in range(n)] for _ in range(n)]
    else:
        rows = [[entry() for _ in range(n)] for _ in range(n)]
    return Matrix(cfg, rows)


def test_charpoly_examples():
    I2 = Matrix.identity(CFG3, 2)
    cp = charpoly(I2)
    assert [c.as_fraction() for c in cp] == [Fraction(1), Fraction(-2), Fraction(1)]

    # companion matrix of t^2 - T t + D reproduces its polynomial
    T, D = Fraction(7), Fraction(5)
    comp = Matrix.companion(CFG3, [D, -T])
    cp = charpoly(comp)
    assert [c.as_fraction() for c in cp] == [D, -T, Fraction(1)]


def test_charpoly_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(10):
        M = rand_matrix(CFG3, 3, rng, denom=False)
        got = charpoly(M)
        want = charpoly_oracle(M)
        assert len(got) == len(want) == 4
        for g, w in zip(got, want):
            assert g.as_fraction() == w.as_fraction()


def test_charpoly_conjugation_invariance():
    rng = random.Random(11)
    done = 0
    while done < 100:
        M = rand_matrix(CFG3, 3, rng)
        G = rand_matrix(CFG3, 3, rng, denom=False)
        if val_det(G) is math.inf:
            continue
        conj = G * M * inverse(G)
        a = charpoly(M)
        b = charpoly(conj)
        assert all(x.agrees(y, 4) for x, y in zip(a, b))
        done += 1


def test_val_det_examples():
    assert val_det(Matrix.from_rows(CFG3, [[3, 0], [0, 1]])) == 1
    assert val_det(Matrix.from_rows(CFG3, [[3, 1], [0, 3]])) == 2
    assert val_det(Matrix.from_rows(CFG3, [[1, 2], [2, 4]])) is math.inf


def test_val_det_multiplicative():
    rng = random.Random(13)
    done = 0
    while done < 40:
        A = rand_matrix(CFG3, 3, rng)
        B = rand_matrix(CFG3, 3, rng)
        va, vb = val_det(A), val_det(B)
        if va is math.inf or vb is math.inf:
            continue
        assert val_det(A * B) == va + vb
        done += 1


def test_hnf_example_from_columns():
    # columns (3,0) and (1,1) over Z_3: canonical [[1,0],[1,3]], diagonal 1, 3
    mat, pivots = hnf_basis([[3, 0], [1, 1]], CFG3)
    assert pivots == [0, 1]
    vals = [[mat[i, j].as_fraction() for j in range(2)] for i in range(2)]
    assert vals == [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(3)]]


def test_hnf_identity_and_scaled():
    mat, _ = hnf_basis([[1, 0], [0, 1]], CFG3)
    assert [[mat[i, j].as_fraction() for j in range(2)] for i in range(2)] == [
        [1, 0],
        [0, 1],
    ]
    mat, _ = hnf_basis([[3, 0], [0, 3]], CFG3)
    assert [[mat[i, j].as_fraction() for j in range(2)] for i in range(2)] == [
        [3, 0],
        [0, 3],
    ]


def test_hnf_idempotent_and_basis_independent():
    rng = random.Random(17)
    for _ in range(25):
        m = rng.choice((2, 3))
        cols = []
        while True:
            cols = [
                [Fraction(rng.randint(-20, 20), CFG3.p ** rng.choice((0, 1)))
                 for _ in range(m)]
                for _ in range(m)
            ]
            M = Matrix.from_rows(CFG3, [[cols[j][i] for j in range(m)] for i in range(m)])
            if val_det(M) is not math.inf:
                break
        mat1, piv1 = hnf_basis(cols, CFG3)
        assert piv1 == list(range(m))
        # transform by a random unimodular integer matrix: same module
        U = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)]
        for i in range(m):
            U[i][i] = 1
            for j in range(i + 1, m):
                U[i][j] = 0
        # lower unit-triangular is unimodular; mix in a column swap
        new_cols = []
        for j in range(m):
            vec = [sum(Fraction(U[k][j]) * cols[k][i] for k in range(m)) for i in range(m)]
            new_cols.append(vec)
        new_cols.reverse()
        mat2, _ = hnf_basis(new_cols, CFG3)
        assert mat1.agrees(mat2)
        # idempotence
        mat3, _ = hnf_basis([mat1.col(j) for j in range(m)], CFG3)
        assert mat1.agrees(mat3)


def test_hnf_val_det_matches_generators():
    rng = random.Random(19)
    for _ in range(20):
        cols = [[Fraction(rng.randint(-10, 10)) for _ in range(2)] for _ in range(2)]
        M = Matrix.from_rows(CFG3, [[cols[j][i] for j in range(2)] for i in range(2)])
        vd = val_det(M)
        if vd is math.inf:
            continue
        mat, piv = hnf_basis(cols, CFG3)
        assert val_det(mat) == vd


def test_hnf_lower_rank_flagged():
    mat, pivots = hnf_basis([[0, 1]], CFG3)
    assert pivots == [1]
    assert mat.cols == 1


def test_hnf_refuses_truncated_generators():
    cut = PAdicScalar.inexact(CFG3, 0, 1, 20)
    with pytest.raises(ValueError):
        hnf_basis([[cut, CFG3.scalar(0)], [CFG3.scalar(0), CFG3.scalar(1)]], CFG3)


def test_is_hermitian_exact_on_exact_entries():
    # [[1, 1], [1 + 3^k w, 0]] over E: exact entries are compared exactly
    for k in (15, 45, 80):
        A = Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(1, 0)],
                          [CFG3.quad(1, 3 ** k), CFG3.quad(0, 0)]])
        assert not A.is_hermitian()
    assert Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(1, 1)],
                         [CFG3.quad(1, -1), CFG3.quad(0, 0)]]).is_hermitian()
    # truncated entries keep the slack of 4 digits
    t = QuadScalar(CFG3.scalar(1), PAdicScalar.inexact(CFG3, 46, 1, 48))
    assert Matrix(CFG3, [[CFG3.quad(1, 0), CFG3.quad(1, 0)], [t, CFG3.quad(0, 0)]]).is_hermitian()


def test_solve_examples():
    I2 = Matrix.identity(CFG3, 2)
    x = solve_linear(I2, [CFG3.scalar(5), CFG3.scalar(7)])
    assert [v.as_fraction() for v in x] == [5, 7]

    A = Matrix.from_rows(CFG3, [[3, 0], [0, 1]])
    x = solve_linear(A, [CFG3.scalar(3), CFG3.scalar(2)])
    assert [v.as_fraction() for v in x] == [1, 2]

    with pytest.raises(SingularSystem):
        solve_linear(Matrix.from_rows(CFG3, [[1, 2], [2, 4]]), [CFG3.one(), CFG3.one()])


def test_solve_residual_property():
    rng = random.Random(23)
    done = 0
    while done < 20:
        A = rand_matrix(CFG3, 3, rng)
        vd = val_det(A)
        if vd is math.inf:
            continue
        rhs = [CFG3.scalar(Fraction(rng.randint(-9, 9), 3 ** rng.choice((0, 1))))
               for _ in range(3)]
        x = solve_linear(A, rhs)
        res = [a - b for a, b in zip(A.apply(x), rhs)]
        for r in res:
            assert r.is_exact_zero() or r.valuation_lower_bound() >= CFG3.D - vd - 2
        done += 1


def test_hermitian_split_examples():
    I2 = Matrix.identity(CFG3, 2, quad=True)
    A = hermitian_split(I2)
    assert (A.sigma_transpose() * A).agrees(I2, 4)

    M = Matrix.from_rows(CFG3, [[2]], quad=True)
    A = hermitian_split(M)
    assert A[0, 0].a.as_fraction() == 1 and A[0, 0].b.as_fraction() == 1  # 1 + w

    with pytest.raises(NotSplit):
        hermitian_split(Matrix.from_rows(CFG3, [[3]], quad=True))


def test_hermitian_split_roundtrip_random():
    rng = random.Random(29)
    done = 0
    while done < 25:
        m = rng.choice((2, 3))
        # random hermitian: B^sigma-t * diag * B with rational entries
        diag = [Fraction(rng.choice((1, 2, 4, 5, 3, 6, 9))) for _ in range(m)]
        B = rand_matrix(CFG3, m, rng, height=5, quad=True, denom=False)
        if val_det(B) is math.inf:
            continue
        D = Matrix(CFG3, [[CFG3.quad(diag[i] if i == j else 0) for j in range(m)]
                          for i in range(m)])
        M = B.sigma_transpose() * D * B
        vd = val_det(M)
        if vd is math.inf or vd % 2 != 0:
            continue
        A = hermitian_split(M)
        resid = A.sigma_transpose() * A - M
        for row in resid.entries:
            for x in row:
                assert x.is_zero_at_precision() or x.valuation_lower_bound() >= CFG3.D - 4
        done += 1


def test_hermitian_split_odd_pair():
    # diag(3, 3) has even val_det but both diagonal entries odd: needs the pair fix
    M = Matrix.from_rows(CFG3, [[3, 0], [0, 3]], quad=True)
    A = hermitian_split(M)
    resid = A.sigma_transpose() * A - M
    for row in resid.entries:
        for x in row:
            assert x.is_zero_at_precision() or x.valuation_lower_bound() >= CFG3.D - 4


def test_hermitian_split_zero_diagonal():
    # [[0,1],[1,0]] over E: hermitian, det -1, needs the trace move
    M = Matrix.from_rows(CFG3, [[0, 1], [1, 0]], quad=True)
    A = hermitian_split(M)
    resid = A.sigma_transpose() * A - M
    for row in resid.entries:
        for x in row:
            assert x.is_zero_at_precision() or x.valuation_lower_bound() >= CFG3.D - 4
