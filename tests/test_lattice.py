import math
import random
from fractions import Fraction

import pytest

from fllab.errors import ExplosionGuard, ZeroModule
from fllab.geometry import HnElement, invariants_of
from fllab.lattice import (
    Lattice,
    enumerate_all_between,
    enumerate_selfdual_stable,
    enumerate_stable_between,
    module_closure,
    quotient_reps,
    stabilizes,
)
from fllab.linalg import Matrix, val_det
from fllab.padic import FieldConfig

CFG3 = FieldConfig(3, -1)


def F(x):
    return CFG3.scalar(x)


def _check_val_det(lattices):
    # the diagonal sum of the canonical basis against the elimination
    for L in lattices:
        assert L.val_det() == val_det(L.basis)


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
    _check_val_det(got)
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
        box = enumerate_all_between(L0, L1)
        _check_val_det(box)
        naive = [L for L in box if stabilizes(T, L)]
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
    box = enumerate_all_between(std, std.dual(H))
    _check_val_det(box)
    naive = [L for L in box if L.dual(H) == L and stabilizes(T, L)]
    assert [L.key() for L in got] == [L.key() for L in naive]
    for L in got:
        assert L.val_det() == -2  # unramified: [L : O_E^2] is half of [H^-1 O_E^2 : O_E^2]


def _closures(M, T, vecs):
    out = set()
    for v in vecs:
        gens = [M.basis.col(j) for j in range(M.rank)]
        for _ in range(M.rank):
            gens.append(v)
            v = T.apply(v)
        out.add(Lattice.from_generators(gens, M.cfg, M.kind))
    return out


@pytest.mark.parametrize("kind,d", [("F", 3), ("F", 2), ("E", 2)])
def test_quotient_reps_one_per_line(kind, d):
    # layer/sub of dimension d over the residue field, Q = p or p^2 elements
    quad = kind == "E"
    layer = Lattice.from_generators(
        [[F(1), F(2), F(0)], [F(0), F(3), F(1)], [F(0), F(0), F(1)]], CFG3, kind)
    cols = [[x * F(3) for x in layer.basis.col(j)] for j in range(3)]
    sub = Lattice.from_generators(cols + [layer.basis.col(0)] * (3 - d), CFG3, kind)
    Q = 9 if quad else 3
    reps = quotient_reps(sub, layer)
    assert len(reps) == (Q ** d - 1) // (Q - 1)
    # every nonzero coset: all digit vectors on the layer's basis, less the zero one
    digits = ([CFG3.quad(x, y) for x in range(3) for y in range(3)] if quad
              else [F(x) for x in range(3)])
    free = [layer.basis.col(j) for j in range(3 - d, 3)]
    cosets = [[F(0)] * 3]
    for b in free:
        cosets = [[x + t * y for x, y in zip(v, b)] for v in cosets for t in digits]
    cosets = [v for v in cosets if not sub.contains(v)]
    assert len(cosets) == Q ** d - 1
    identity = Matrix.identity(CFG3, 3, quad=quad)
    C = Matrix.from_rows(CFG3, [[0, 0, 1], [1, 0, 2], [0, 1, -1]], quad=quad)
    for T in (identity, C):
        assert _closures(sub, T, reps) == _closures(sub, T, cosets)
    assert len(_closures(sub, identity, reps)) == len(reps)  # with T = 1, one per line
    with pytest.raises(ValueError):
        quotient_reps(layer.scaled(2), layer)


# deep integral n=3 points (w^2 = 2) whose Krylov data (C, H) have a nontrivial C
KRYLOV_POINTS = [
    (3, [[(-3, 0), (3, -1), (-2, 3)], [(3, 1), (-1, 0), (-2, 1)],
         [(-2, -3), (-2, -1), (2, 0)]], 2),
    (3, [[(-2, 0), (-1, -2), (-6, -9)], [(-1, 2), (-1, 0), (0, -27)],
         [(-6, 9), (0, 27), (2, 0)]], 4),
    (5, [[(3, 0), (2, -3), (-3, -1)], [(2, 3), (0, 0), (0, 1)],
         [(-3, 1), (0, -1), (-3, 0)]], 2),
]


def _walk_matches_box(T, H):
    # the pruned walk (one vector per line, integral lattices only) against the
    # box filtered by the definitions; returns the self-dual lattices
    std = Lattice.standard(H.cfg, H.rows, kind="E")
    box = enumerate_all_between(std, std.dual(H))
    _check_val_det(box)
    integral = [L for L in box if stabilizes(T, L) and L.gram(H).is_integral()]
    walk = enumerate_stable_between(std, std.dual(H), T, form=H)
    assert [L.key() for L in walk] == [L.key() for L in integral]
    got = enumerate_selfdual_stable(T, H)
    assert [L.key() for L in got] == [L.key() for L in integral if L.dual(H) == L]
    return got


@pytest.mark.parametrize("p,rows,count", KRYLOV_POINTS)
def test_selfdual_walk_matches_box_krylov(p, rows, count):
    # C = companion(chi') and H = (d_{i+j}) of the point
    cfg = FieldConfig(p, 2)
    X = HnElement(Matrix(cfg, [[cfg.quad(*e) for e in row] for row in rows]))
    _, d, chi_p = invariants_of(X)._derive()
    C = Matrix.companion(cfg, chi_p, quad=True)
    assert len(_walk_matches_box(C, Matrix.hankel(cfg, d, 2))) == count


def test_integral_walk_checks_every_krylov_pairing():
    # v = (1, 1 + w)/3 has h(v, v) = 1 but h(v, Tv) = 2/3: its closure is not integral
    T = Matrix.from_rows(CFG3, [[0, 1], [1, 0]], quad=True)
    H = Matrix.from_rows(CFG3, [[3, 0], [0, 3]])
    assert _walk_matches_box(T, H) == []


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
