import math
import random
from fractions import Fraction

import pytest

from fllab.errors import ExplosionGuard, ZeroModule
from fllab.lattice import (
    Lattice,
    enumerate_all_between,
    enumerate_selfdual_stable,
    enumerate_stable_between,
    module_closure,
    stabilizes,
)
from fllab.linalg import Matrix
from fllab.padic import FieldConfig

CFG3 = FieldConfig(3, -1)


def F(x):
    return CFG3.scalar(x)


def test_contains_examples():
    L = Lattice.standard(CFG3, 2)
    assert L.contains([F(1), F(0)])
    assert not L.scaled(1).contains([F(1), F(0)])  # p*O^2 misses e_1
    # span (1,1),(0,3) contains (3,0) = 3(1,1) - (0,3)
    L2 = Lattice.from_generators([[F(1), F(1)], [F(0), F(3)]], CFG3)
    assert L2.contains([F(3), F(0)])
    assert not L2.contains([F(1), F(0)])


def test_dual_examples():
    L = Lattice.standard(CFG3, 2)
    assert L.dual() == L
    # dual(pO + O) = p^-1 O + O
    L2 = Lattice.from_generators([[F(3), F(0)], [F(0), F(1)]], CFG3)
    D = L2.dual()
    assert D.contains([F(Fraction(1, 3)), F(0)])
    assert not D.contains([F(0), F(Fraction(1, 3))])
    assert D.dual() == L2
    assert L2.val_det() == -D.val_det()
    # hermitian dual of O_E^m is itself
    LE = Lattice.standard(CFG3, 2, kind="E")
    assert LE.dual() == LE


def test_dual_inclusion_reversing():
    rng = random.Random(31)
    for _ in range(20):
        cols = [[F(Fraction(rng.randint(-9, 9), 3 ** rng.choice((0, 1))))
                 for _ in range(2)] for _ in range(2)]
        try:
            L = Lattice.from_generators(cols, CFG3)
        except ValueError:
            continue
        M = L.sum(Lattice.standard(CFG3, 2))
        assert M.contains_lattice(L)
        assert L.dual().contains_lattice(M.dual())


def test_module_closure_examples():
    T = Matrix.from_rows(CFG3, [[0, 0], [1, 0]])  # nilpotent, e1 -> e2
    mb = module_closure(T, [F(1), F(0)])
    assert mb.full_rank
    assert mb.to_lattice() == Lattice.standard(CFG3, 2)

    T2 = Matrix.from_rows(CFG3, [[2, 0], [0, 5]])
    mb2 = module_closure(T2, [F(1), F(0)])
    assert not mb2.full_rank
    assert mb2.pivots == [0]

    with pytest.raises(ZeroModule):
        module_closure(T, [F(0), F(0)])


def test_enumerate_stable_between_examples():
    std = Lattice.standard(CFG3, 2)
    sub = std.scaled(1)
    # L0 = L1: single lattice
    got = enumerate_stable_between(std, std, Matrix.identity(CFG3, 2))
    assert got == [std]
    # quotient (Z/3)^2 with scalar T: 1 + (p+1) + 1 = 6 stable lattices
    got = enumerate_stable_between(sub, std, Matrix.identity(CFG3, 2))
    assert len(got) == 6
    # distinct eigenvalues mod 3: only 0, two eigenlines, full
    T = Matrix.from_rows(CFG3, [[1, 0], [0, 2]])
    got = enumerate_stable_between(sub, std, T)
    assert len(got) == 4


def test_enumeration_matches_naive_filter():
    rng = random.Random(37)
    done = 0
    while done < 15:
        # random stable bounds: L1 standard-ish, L0 = p^k L1 with small k
        k = rng.choice((1, 2))
        T = Matrix.from_rows(
            CFG3, [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        )
        L1 = Lattice.standard(CFG3, 2)
        L0 = L1.scaled(k)
        if not stabilizes(T, L1):
            continue
        fast = enumerate_stable_between(L0, L1, T)
        naive = [
            L for L in enumerate_all_between(L0, L1)
            if stabilizes(T, L)
        ]
        assert [L.key() for L in fast] == [L.key() for L in naive]
        done += 1


def test_enumerate_selfdual_examples():
    # rank 1, H = p^2 (the Gram matrix of p O_E): only p^-1 O_E is self-dual
    T = Matrix.identity(CFG3, 1, quad=True)
    got = enumerate_selfdual_stable(T, Matrix.from_rows(CFG3, [[9]]))
    assert len(got) == 1
    assert got[0] == Lattice.standard(CFG3, 1, kind="E").scaled(-1)

    # non-integral form (the Gram matrix of p^-1 O_E): empty
    assert enumerate_selfdual_stable(T, Matrix.from_rows(CFG3, [[Fraction(1, 9)]])) == []


def test_enumerate_selfdual_rank2_matches_filter():
    # H = p^2 I, the Gram matrix of p O_E^2: filter the box by the definition L = L^dual
    H = Matrix.from_rows(CFG3, [[9, 0], [0, 9]])
    T = Matrix.identity(CFG3, 2, quad=True)
    got = enumerate_selfdual_stable(T, H)
    std = Lattice.standard(CFG3, 2, kind="E")
    naive = [
        L for L in enumerate_all_between(std, std.dual(H))
        if L.dual(H) == L and stabilizes(T, L)
    ]
    assert [L.key() for L in got] == [L.key() for L in naive]
    for L in got:
        assert L.val_det() == -2  # unramified: [L : O_E^2] is half of [H^-1 O_E^2 : O_E^2]


def test_index_sign():
    std = Lattice.standard(CFG3, 2)
    assert std.index_sign() == 1
    L = Lattice.from_generators([[F(3), F(0)], [F(0), F(1)]], CFG3)
    assert L.index_sign() == -1
    assert L.scaled(1).index_sign() == -1 * (-1) ** 2  # scaling by p flips by (-1)^m
    assert std.scaled(1).index_sign() == 1


def test_index_sign_scaling_hom():
    rng = random.Random(41)
    for _ in range(10):
        m = rng.choice((1, 2, 3))
        cols = [[F(Fraction(rng.randint(-9, 9), 3 ** rng.choice((0, 1))))
                 for _ in range(m)] for _ in range(m)]
        try:
            L = Lattice.from_generators(cols, CFG3)
        except ValueError:
            continue
        assert L.scaled(1).index_sign() == L.index_sign() * (-1) ** m


def test_explosion_guard():
    std = Lattice.standard(CFG3, 2)
    with pytest.raises(ExplosionGuard):
        enumerate_stable_between(std.scaled(8), std, Matrix.identity(CFG3, 2), bound_exp=12)
