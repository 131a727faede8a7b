import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from fllab.errors import ExplosionGuard, PrecisionExhausted, ZeroModule
from fllab.geometry import HnElement, invariants_of
from fllab.lattice import (
    Lattice,
    _hnf_mod,
    _residues,
    enumerate_all_between,
    enumerate_selfdual_stable,
    enumerate_stable_between,
    module_closure,
    quotient_reps,
)
from fllab.linalg import Matrix, hnf_basis, val_det
from fllab.padic import FieldConfig, PAdicScalar, QuadScalar, smallest_nonresidue
from reference import (
    contains,
    contains_lattice,
    index_sign,
    scalar,
    scaled,
    stabilizes,
    walk_lattices,
)

CFG3 = FieldConfig(3, -1)


def F(x):
    return CFG3.scalar(x)


def _check_val_det(lattices):
    # the diagonal sum of the canonical basis against the elimination
    for L in lattices:
        assert L.val_det() == val_det(L.basis)


def _walk(T, H):
    return walk_lattices(enumerate_stable_between(T, H, val_det(H)), H)


def _selfdual(T, H):
    return walk_lattices(enumerate_selfdual_stable(T, H, val_det(H)), H)


def test_contains_examples():
    L = Lattice.standard(CFG3, 2)
    assert contains(L, [F(1), F(0)])
    assert not contains(scaled(L, 1), [F(1), F(0)])  # p*O^2 misses e_1
    # span (1,1),(0,3) contains (3,0) = 3(1,1) - (0,3)
    L2 = Lattice.from_generators([[F(1), F(1)], [F(0), F(3)]], CFG3)
    assert contains(L2, [F(3), F(0)])
    assert not contains(L2, [F(1), F(0)])


def test_dual_examples():
    L = Lattice.standard(CFG3, 2)
    assert L.dual() == L
    # dual(pO + O) = p^-1 O + O
    L2 = Lattice.from_generators([[F(3), F(0)], [F(0), F(1)]], CFG3)
    D = L2.dual()
    assert contains(D, [F(Fraction(1, 3)), F(0)])
    assert not contains(D, [F(0), F(Fraction(1, 3))])
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
        M = Lattice.from_generators(
            [L.basis.col(j) for j in range(2)] + [[F(1), F(0)], [F(0), F(1)]], CFG3)
        assert contains_lattice(M, L)
        assert contains_lattice(L.dual(), M.dual())


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


def _scalar_form(k, m=2):
    # H = p^k I: the walk runs from O^m to p^-k O^m
    return Matrix.from_rows(CFG3, [[3 ** k if i == j else 0 for j in range(m)]
                                   for i in range(m)])


def test_enumerate_stable_between_examples():
    std = Lattice.standard(CFG3, 2)
    # H = I: the bounds agree, a single lattice
    got = _walk(Matrix.identity(CFG3, 2), _scalar_form(0))
    assert got == [std]
    # quotient (Z/3)^2 with scalar T: 1 + (p+1) + 1 = 6 stable lattices
    got = _walk(Matrix.identity(CFG3, 2), _scalar_form(1))
    assert len(got) == 6
    assert std in got and scaled(std, -1) in got
    _check_val_det(got)
    # distinct eigenvalues mod 3: only 0, two eigenlines, full
    T = Matrix.from_rows(CFG3, [[1, 0], [0, 2]])
    got = _walk(T, _scalar_form(1))
    assert len(got) == 4


def _box(L0, L1):
    # the box's digit matrices D as the Lattices L1 D, sorted by key
    box = [Lattice.from_generators([L1.basis.apply([scalar(x, L1.cfg) for x in col])
                                    for col in cols], L1.cfg, L1.kind)
           for _, cols in enumerate_all_between(L0, L1)]
    return sorted(box, key=Lattice.key)


def test_box_keeps_only_survivors_in_memory():
    # O^2 over L0 = O + p^7 O: about 1.5 p^7 candidate digit matrices, of which
    # only diag(1, p^k), k <= 7, hold L0; a box built in full takes 557 KB here
    L1 = Lattice.standard(CFG3, 2)
    L0 = Lattice(Matrix.from_rows(CFG3, [[1, 0], [0, 3**7]]), "F")
    tracemalloc.start()
    try:
        box = enumerate_all_between(L0, L1, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert box == [([0, k], [[1, 0], [0, 3**k]]) for k in range(8)]
    assert peak < 250_000


def _naive_stable(T, H):
    # the box O^m <= L <= H^-1 O^m filtered by T-stability
    std = Lattice.standard(H.cfg, H.rows)
    box = _box(std, std.dual(H))
    _check_val_det(box)
    return [L for L in box if stabilizes(T, L)]


def test_enumeration_matches_naive_filter():
    rng = random.Random(37)
    # symmetric T against H = p^k I
    for _ in range(10):
        a, b, c = (rng.randint(-4, 4) for _ in range(3))
        T = Matrix.from_rows(CFG3, [[a, b], [b, c]])
        H = _scalar_form(rng.choice((1, 2)))
        fast = _walk(T, H)
        assert [L.key() for L in fast] == [L.key() for L in _naive_stable(T, H)]
    # Krylov pairs: the companion C of t^2 + chi_1 t + chi_0, which is not
    # symmetric, with the Hankel H of d_0, d_1, d_2 = -chi_0 d_0 - chi_1 d_1;
    # p | chi_0 makes C singular mod p: the counts here are 2, 3 and 4
    done = 0
    while done < 10:
        chi = [3 * rng.randint(-3, 3), rng.randint(-4, 4)]
        d = [rng.randint(-9, 9) for _ in range(2)]
        d.append(-chi[0] * d[0] - chi[1] * d[1])
        C = Matrix.companion(CFG3, chi)
        H = Matrix.hankel(CFG3, [F(x) for x in d], 2)
        if val_det(H) not in (1, 2, 3, 4):
            continue
        fast = _walk(C, H)
        assert [L.key() for L in fast] == [L.key() for L in _naive_stable(C, H)]
        done += 1


def test_walk_refuses_non_selfadjoint():
    # sigma(T)^T H = H T is the walk's precondition, over O_F and over O_E
    N = Matrix.from_rows(CFG3, [[0, 1], [0, 0]])
    H1, H2 = _scalar_form(1), _scalar_form(2)
    with pytest.raises(ValueError):
        enumerate_stable_between(N, H1, val_det(H1))
    with pytest.raises(ValueError):
        enumerate_stable_between(N.to_quad(), H1, val_det(H1))
    # w T is symmetric but not hermitian: sigma(w) = -w
    W = Matrix(CFG3, [[CFG3.quad(0, 1), CFG3.quad(0, 0)], [CFG3.quad(0, 0), CFG3.quad(1, 0)]])
    with pytest.raises(ValueError):
        enumerate_stable_between(W, H1, val_det(H1))
    with pytest.raises(ValueError):
        enumerate_selfdual_stable(W, H2, val_det(H2))


@pytest.mark.parametrize("rows,count", [([[9, 3], [0, 9]], 14), ([[9, 1], [0, 9]], 5),
                                        ([[0, 9], [1, 0]], 3)])
def test_walk_refuses_non_hermitian_form(rows, count):
    # T = 1 is self-adjoint for every H; over O_E the walk also needs
    # sigma(H)^T = H, without which it returned lattices that are not integral
    H = Matrix.from_rows(CFG3, rows)
    T = Matrix.identity(CFG3, 2)
    with pytest.raises(ValueError):
        enumerate_stable_between(T.to_quad(), H, val_det(H))
    with pytest.raises(ValueError):
        enumerate_selfdual_stable(T, H, val_det(H))
    # over O_F the form need not be symmetric
    walk = _walk(T, H)
    assert len(walk) == count
    assert [L.key() for L in walk] == [L.key() for L in _naive_stable(T, H)]


def test_enumerate_selfdual_examples():
    # rank 1, H = p^2 (the Gram matrix of p O_E): only p^-1 O_E is self-dual
    T = Matrix.identity(CFG3, 1, quad=True)
    got = _selfdual(T, Matrix.from_rows(CFG3, [[9]]))
    assert len(got) == 1
    assert got[0] == scaled(Lattice.standard(CFG3, 1, kind="E"), -1)

    # non-integral form (the Gram matrix of p^-1 O_E): empty
    assert enumerate_selfdual_stable(T, Matrix.from_rows(CFG3, [[Fraction(1, 9)]]), -2) == []


def test_enumerate_selfdual_rank2_matches_filter():
    # H = p^2 I, the Gram matrix of p O_E^2: filter the box by the definition L = L^dual
    H = Matrix.from_rows(CFG3, [[9, 0], [0, 9]])
    T = Matrix.identity(CFG3, 2, quad=True)
    got = _selfdual(T, H)
    std = Lattice.standard(CFG3, 2, kind="E")
    box = _box(std, std.dual(H))
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


# integral K on k^3 with a kernel of dimension d mod 3: 0, rank one over k_F
# (rows r, 2r + 3 e_1, 3 e_0), and rank one over k_E (rows r, w r, 3 e_0 with
# w^2 = -1), whose w-parts matter
KERNEL_FORMS = {
    ("F", 3): [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ("F", 2): [[1, 1, 2], [2, 5, 4], [3, 0, 0]],
    ("E", 2): [[(1, 0), (0, 1), (1, 1)], [(0, 1), (-1, 0), (-1, 1)], [(3, 0), (0, 0), (0, 0)]],
}


@pytest.mark.parametrize("kind,d", [("F", 3), ("F", 2), ("E", 2)])
def test_quotient_reps_one_per_line(kind, d):
    # the kernel of K mod p, a subspace of dimension d over the residue field,
    # Q = p or p^2 elements
    quad = kind == "E"
    M = Lattice.from_generators(
        [[F(1), F(2), F(0)], [F(0), F(3), F(1)], [F(0), F(0), F(1)]], CFG3, kind)
    rows = KERNEL_FORMS[kind, d]
    K = Matrix(CFG3, [[CFG3.quad(*x) for x in row] for row in rows]) if quad \
        else Matrix.from_rows(CFG3, rows)
    Q = 9 if quad else 3
    # in integers: S = p B, so S x / p = B x comes back scaled by p
    R = _residues(CFG3, quad, 1)
    S = tuple(tuple(R.lift(x, 8) for x in scaled(M, 1).basis.col(j)) for j in range(3))
    res = [[R.lift(x, 1) for x in row] for row in K.entries]
    reps = [[scalar(y, CFG3, 3) for y in v] for v in quotient_reps(S, res, R)]
    assert len(reps) == (Q ** d - 1) // (Q - 1)
    # every nonzero coset: B x / p for all digit vectors x with K x / p integral
    digits = ([CFG3.quad(x, y) for x in range(3) for y in range(3)] if quad
              else [F(x) for x in range(3)])
    xs = [[]]
    for _ in range(3):
        xs = [x + [t] for x in xs for t in digits]
    third = F(Fraction(1, 3))
    xs = [x for x in xs if all((y * third).is_integral() for y in K.apply(x))]
    cosets = [M.basis.apply([t * third for t in x]) for x in xs]
    cosets = [v for v in cosets if not contains(M, v)]
    assert len(cosets) == Q ** d - 1
    identity = Matrix.identity(CFG3, 3, quad=quad)
    C = Matrix.from_rows(CFG3, [[0, 0, 1], [1, 0, 2], [0, 1, -1]], quad=quad)
    for T in (identity, C):
        assert _closures(M, T, reps) == _closures(M, T, cosets)
    assert len(_closures(M, identity, reps)) == len(reps)  # with T = 1, one per line


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
    box = _box(std, std.dual(H))
    _check_val_det(box)
    integral = [L for L in box if stabilizes(T, L) and L.gram(H).is_integral()]
    walk = _walk(T, H)
    assert [L.key() for L in walk] == [L.key() for L in integral]
    got = _selfdual(T, H)
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


def _krylov_pair(p, rows):
    cfg = FieldConfig(p, 2)
    X = HnElement(Matrix(cfg, [[cfg.quad(*e) for e in row] for row in rows]))
    _, d, chi_p = invariants_of(X)._derive()
    return Matrix.companion(cfg, chi_p), Matrix.hankel(cfg, d, 2)


def _truncated(A, digits):
    # each entry of the exact matrix A known to `digits` p-adic digits only
    def cut(x):
        if isinstance(x, QuadScalar):
            return QuadScalar(cut(x.a), cut(x.b))
        if x.is_exact_zero():
            return PAdicScalar.inexact(x.cfg, None, 0, digits)
        return PAdicScalar.inexact(x.cfg, x.val, x.unit, digits)

    return Matrix(A.cfg, [[cut(x) for x in row] for row in A.entries])


@pytest.mark.parametrize("p,rows,count", KRYLOV_POINTS)
def test_walk_reads_truncated_inputs(p, rows, count):
    # the walk reads T and H mod p^(2e+1), e = val det H: with that many digits
    # it returns the exact answer, with one digit less it refuses
    C, H = _krylov_pair(p, rows)
    e = val_det(H)
    for T in (C, C.to_quad()):
        exact = [L.key() for L in _walk(T, H)]
        cut = walk_lattices(
            enumerate_stable_between(_truncated(T, 2 * e + 1), _truncated(H, 2 * e + 1), e), H)
        assert [L.key() for L in cut] == exact
        with pytest.raises(PrecisionExhausted):
            enumerate_stable_between(_truncated(T, 2 * e + 1), _truncated(H, 2 * e), e)


@pytest.mark.parametrize("p,rows,count", KRYLOV_POINTS)
def test_walk_refuses_a_wrong_val_det(p, rows, count):
    # the walk takes e = val det H from its caller and checks it on the
    # residues of H mod p^(2e+1): [O^m : H O^m + p^(2e+1) O^m] = e iff e is right
    C, H = _krylov_pair(p, rows)
    e = val_det(H)
    assert len(enumerate_selfdual_stable(C, H, e, 40)) == count
    for wrong in (e - 1, e + 1, e + 2, -1):
        for T in (C, C.to_quad()):
            with pytest.raises(ValueError):
                enumerate_stable_between(T, H, wrong, 40)
        with pytest.raises(ValueError):
            enumerate_selfdual_stable(C, H, wrong, 40)


@pytest.mark.parametrize("p,rows,count", KRYLOV_POINTS)
def test_walk_checks_its_precondition_on_residues(p, rows, count):
    # T = C + p^(2e+1) N is self-adjoint for H mod p^(2e+1) but not exactly;
    # the walk reads T and H only to that many digits, and its answers are
    # those of the box filtered by the definitions, on both sides
    C, H = _krylov_pair(p, rows)
    e = val_det(H)
    T = C + Matrix.from_rows(C.cfg, [[0, p ** (2 * e + 1)], [0, 0]])
    assert not (T.transpose() * H).agrees(H * T)
    walk = _walk(T, H)
    assert [L.key() for L in walk] == [L.key() for L in _naive_stable(T, H)]
    assert len(_walk_matches_box(T.to_quad(), H)) == count


def _column_key(mat):
    # the canonical basis of hnf_basis as integer columns (ints, or pairs over E)
    def digit(x):
        if isinstance(x, QuadScalar):
            return int(x.a.as_fraction()), int(x.b.as_fraction())
        return int(x.as_fraction())

    return tuple(tuple(digit(x) for x in mat.col(j)) for j in range(mat.cols))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("kind", ["F", "E"])
def test_hnf_mod_matches_hnf_basis(p, kind):
    # random generators, some of valuation > 0, of S = span + p^e O^m: the HNF
    # mod p^e gives hnf_basis of S, with or without the p^e e_i among them
    cfg = FieldConfig(p, smallest_nonresidue(p))
    quad = kind == "E"
    rng = random.Random(f"hnf:{p}:{kind}")
    for _ in range(150):
        m, e = rng.randint(1, 4), rng.randint(0, 4)
        R = _residues(cfg, quad, e)
        bound = p ** (e + 1)

        def entry(scale):
            if quad:
                return tuple(scale * rng.randint(-bound, bound) for _ in range(2))
            return scale * rng.randint(-bound, bound)

        gens = []
        for _ in range(rng.randint(1, m + 2)):
            scale = p ** rng.choice((0, 0, 1, 2))
            gens.append([entry(scale) for _ in range(m)])
        box = [[R.const(R.pe if i == j else 0) for i in range(m)] for j in range(m)]
        to_scalar = (lambda x: cfg.quad(*x)) if quad else cfg.scalar
        ref, pivots = hnf_basis([[to_scalar(x) for x in g] for g in gens + box], cfg, quad)
        assert len(pivots) == m
        assert _hnf_mod(gens, R) == _hnf_mod(gens + box, R) == _column_key(ref)


def test_integral_walk_checks_every_krylov_pairing():
    # v = (1, 1 + w)/3 has h(v, v) = 1 but h(v, Tv) = 2/3: its closure is not integral
    T = Matrix.from_rows(CFG3, [[0, 1], [1, 0]], quad=True)
    H = Matrix.from_rows(CFG3, [[3, 0], [0, 3]])
    assert _walk_matches_box(T, H) == []


def test_unitary_layer_is_cut_by_the_gram_matrix():
    # H = 9 J (J swaps e_1, e_2), T = [[1, 1], [0, 1]]: M = O e_1/9 + O e_2 is
    # self-dual, and v = e_2/3 lies in p^-1 M /\ H^-1 O^2 with h(v, T^k v)
    # integral, but h(e_1/9, v) = 1/3: over O_E the layer is the kernel of the
    # Gram matrix, not of H B.  The box filtered by the definitions gives the
    # same 6 integral lattices, 4 of them self-dual.
    H = Matrix.from_rows(CFG3, [[0, 9], [9, 0]])
    T = Matrix.from_rows(CFG3, [[1, 1], [0, 1]], quad=True)
    walk = _walk(T, H)
    assert len(walk) == 6
    assert all(L.gram(H).is_integral() and stabilizes(T, L) for L in walk)
    assert len(enumerate_selfdual_stable(T, H, val_det(H))) == 4


def test_index_sign():
    std = Lattice.standard(CFG3, 2)
    assert index_sign(std) == 1
    L = Lattice.from_generators([[F(3), F(0)], [F(0), F(1)]], CFG3)
    assert index_sign(L) == -1
    assert index_sign(scaled(L, 1)) == -1 * (-1) ** 2  # scaling by p flips by (-1)^m
    assert index_sign(scaled(std, 1)) == 1


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
        assert index_sign(scaled(L, 1)) == index_sign(L) * (-1) ** m


def test_explosion_guard():
    with pytest.raises(ExplosionGuard):
        enumerate_stable_between(Matrix.identity(CFG3, 2), _scalar_form(8), 16, bound_exp=12)
