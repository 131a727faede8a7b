import random
from fractions import Fraction

import numpy as np
import pytest

from fllab.errors import CoefficientOverflow, ConductorExceeded
from fllab.padic import FieldConfig
from fllab.weil import (
    CharacterRing,
    CycNumber,
    FiniteLevelFunction,
    fourier_order_four_check,
    modulation_for_translation,
    partial_fourier,
    plancherel_sum,
    psi_exponent_fraction,
    psi_value,
    sl2_relation_check,
    unit_selfdual_check,
    weil_apply,
)

CFG3 = FieldConfig(3, -1)
CFG5 = FieldConfig(5, 2)


def test_psi_value_examples():
    ring = CharacterRing(3, 2)
    assert psi_value(CFG3.scalar(5), ring) == ring.one()
    assert psi_value(Fraction(1, 3), ring) == ring.monomial(3)  # zeta_9^3 = zeta_3
    assert psi_value(Fraction(2, 9), ring) == ring.monomial(2)
    # psi_E factors through the trace: psi_E(w-part) is trivial
    assert psi_value(CFG3.quad(Fraction(1, 3), Fraction(1, 3)), ring) == ring.monomial(6)
    with pytest.raises(ConductorExceeded):
        psi_value(Fraction(1, 27), ring)


def test_character_ring_arithmetic():
    ring = CharacterRing(3, 1)
    z = ring.monomial(1)
    # 1 + zeta + zeta^2 = 0
    s = ring.one() + z + ring.monomial(2)
    assert s.is_zero()
    assert z * z == ring.monomial(2)
    assert z.conj() == ring.monomial(2)
    # denominators normalize
    three = ring.one() + ring.one() + ring.one()
    third = ring.monomial(0, den=1)
    assert (three * third).canonical() == ring.one().canonical()


def test_unit_box_is_fourier_fixed():
    for cfg, n in [(CFG3, 2), (CFG5, 2), (CFG3, 3), (CFG5, 3)]:
        assert unit_selfdual_check(cfg, n)
    # a character of the wrong conductor breaks it
    assert not unit_selfdual_check(CFG3, 2, kernel_shift=1)


def test_scaled_indicator_transform():
    # gl side, n=2: F(1_{pO x O}) = p^-1 1_{O x p^-1 O}
    f = FiniteLevelFunction.zero("gl", 2, CFG3, 1, 1)
    P, p = f.P, f.p
    # digit k represents the coset k/p + pO: b in pO needs k = 0, c in O needs p | k
    for kb in range(P):
        for kc in range(P):
            if kb % (p**2) == 0 and kc % p == 0:
                f.table[kb, kc, 0] = 1
    got = partial_fourier(f)
    want = FiniteLevelFunction.zero("gl", 2, CFG3, 1, 1)
    # 1_{O x p^-1 O} with denominator p: b digit divisible by p, c digit free
    for kb in range(P):
        for kc in range(P):
            if kb % p == 0:
                want.table[kb, kc, 0] = 1
    want.den = 1
    assert got.equals(want)


def test_fourier_square_is_reflection_and_order_four():
    assert fourier_order_four_check(CFG3, 2, (1, 1), 5, seed=11)
    assert fourier_order_four_check(CFG5, 2, (1, 1), 3, seed=12)
    rng = random.Random(13)
    f = FiniteLevelFunction.random("u", 3, CFG3, 1, 0, rng)
    f2 = partial_fourier(partial_fourier(f))
    assert f2.equals(f.reflect())


def test_weil_apply_examples():
    rng = random.Random(17)
    f = FiniteLevelFunction.random("gl", 2, CFG3, 1, 1, rng)
    assert weil_apply([("n", 0)], f).equals(f)
    # n(1) on the unit box: q is integral on the support, psi trivial
    box = FiniteLevelFunction.unit_box("u", 2, CFG3, 1, 1)
    assert weil_apply([("n", 1)], box).equals(box)
    # n(1) is genuinely nontrivial once the support reaches q of negative valuation
    delta = FiniteLevelFunction.zero("gl", 2, CFG3, 1, 1)
    delta.table[1, 1, 0] = 1  # b = c = 1/3, q = 1/9
    assert not weil_apply([("n", 1)], delta).equals(delta)
    # w^4 = identity as a word
    assert weil_apply(["w", "w", "w", "w"], f).equals(f)
    # t below the grid's range is rejected (the phase would split cosets)
    with pytest.raises(ConductorExceeded):
        weil_apply([("n", Fraction(1, 3))], f)


def test_sl2_relations():
    assert sl2_relation_check(CFG3, 2, (1, 1), 10, seed=21)
    assert sl2_relation_check(CFG5, 2, (1, 1), 4, seed=22)
    # scaling F by a root of unity breaks the relations
    ring_q = 3 ** (1 + 1 + 2)
    assert not sl2_relation_check(CFG3, 2, (1, 1), 2, seed=23, fourier_scale=ring_q // 3)


def test_plancherel_preserved():
    rng = random.Random(29)
    for side in ("u", "gl"):
        f = FiniteLevelFunction.random(side, 2, CFG3, 1, 1, rng)
        lhs = plancherel_sum(f)
        rhs = plancherel_sum(partial_fourier(f))
        assert lhs.canonical() == rhs.canonical()


def test_translation_modulation_exchange():
    rng = random.Random(31)
    for side in ("u", "gl"):
        f = FiniteLevelFunction.random(side, 2, CFG3, 1, 1, rng)
        v = [rng.randrange(f.P) for _ in range(f.axes)]
        lhs = partial_fourier(f.translate(v))
        rhs = partial_fourier(f).pointwise_psi(modulation_for_translation(f, v))
        assert lhs.equals(rhs)


def test_q_multiplication_does_not_commute_with_fourier():
    # witness: a delta at the coset b = c = 1/3, where q = 1/9 has a nontrivial phase
    f = FiniteLevelFunction.zero("gl", 2, CFG3, 1, 1)
    f.table[1, 1, 0] = 1
    a = weil_apply([("n", 1), "w"], f)
    b = weil_apply(["w", ("n", 1)], f)
    assert not a.equals(b)


def test_representative_independence():
    # legal phases are blind to the choice of coset representatives
    rng = random.Random(37)
    f = FiniteLevelFunction.random("u", 2, CFG3, 1, 1, rng)
    t = Fraction(1)
    base = f.pointwise_psi(f.q_exponents(t))
    for _ in range(5):
        shift = [rng.randrange(3) for _ in range(f.axes)]
        alt = f.pointwise_psi(f.q_exponents(t, shift=shift))
        assert base.equals(alt)


def test_spectator_untouched():
    f = FiniteLevelFunction.unit_box("gl", 2, CFG3, 1, 1)
    g = weil_apply([("n", 1), "w", "w"], f)
    assert g.spectator is f.spectator


def test_table_shape_invariant():
    for side, n in [("u", 2), ("gl", 2), ("u", 3)]:
        f = FiniteLevelFunction.zero(side, n, CFG3, 1, 1)
        dim = 2 * (n - 1)
        assert f.coset_count == (3 ** (1 + 1)) ** dim


def _direct_fourier(f, kernel_shift, kernel_sign):
    # the definition: out[l] = sum_k zeta^(c k l) x[k] along each axis, P^2 rolls
    p, P, q = f.p, f.P, f.ring.q
    table = f.table
    for axis in range(f.axes):
        alpha = 1 if f.side == "gl" else (2 if axis % 2 == 0 else -2 * f.u)
        c = kernel_sign * alpha * p ** (2 + kernel_shift)
        work = np.moveaxis(table, axis, 0)
        out = np.zeros_like(work)
        for l in range(P):
            for k in range(P):
                out[l] += np.roll(work[k], c * k * l % q, axis=-1)
        table = np.moveaxis(out, 0, axis)
    if f.side == "gl":
        m = f.m
        table = np.transpose(table, list(range(m, 2 * m)) + list(range(m)) + [2 * m])
    return table, f.den + f.axes * f.b


@pytest.mark.parametrize("n,cfg,level", [
    (2, CFG3, (1, 1)), (2, CFG3, (1, 0)), (2, CFG3, (2, 1)),
    (2, CFG5, (1, 1)), (2, CFG5, (1, 0)),
    (3, CFG3, (1, 1)), (3, CFG3, (1, 0)),
    (2, CFG3, (0, 0)), (2, CFG3, (0, 1)),
])
def test_partial_fourier_matches_direct_sum(n, cfg, level):
    rng = random.Random(41)
    for side in ("u", "gl"):
        f = FiniteLevelFunction.random(side, n, cfg, *level, rng, density=60)
        f.den = 1
        # strided inputs too: a transform's output (transposed on gl) and f(-x)
        inputs = [f, partial_fourier(f), f.reflect()]
        if f.P > 1:
            assert not any(g.table.flags.c_contiguous for g in inputs[1:])
        for g in inputs:
            before = g.table.copy()
            for shift in (0, 1):
                for sign in (1, -1):
                    got = partial_fourier(g, kernel_shift=shift, kernel_sign=sign)
                    want, den = _direct_fourier(g, shift, sign)
                    assert np.array_equal(got.table, want)
                    assert (got.den, got.a, got.b) == (den, g.b, g.a)
            assert np.array_equal(g.table, before)


def test_equals_agrees_with_canonical():
    rng = random.Random(59)
    for side, n, cfg, level in [("u", 2, CFG3, (1, 1)), ("gl", 2, CFG5, (1, 0)),
                                ("gl", 3, CFG3, (0, 1))]:
        f = FiniteLevelFunction.random(side, n, cfg, *level, rng)
        p, q = f.p, f.ring.q
        pairs = []
        for k in (1, 2):  # p^k f / p^k: equal after scaling by p^k
            g = f.copy()
            g.table, g.den = g.table * p**k, f.den + k
            pairs += [(f, g), (g, f)]
        g = f.copy()  # add 1 + zeta^(q/p) + ... + zeta^((p-1)q/p) = 0 at one coset
        g.table[(0,) * f.axes + (slice(3, None, q // p),)] += 1
        pairs.append((f, g))
        g = f.copy()  # a single differing coefficient
        g.table[(1,) * f.axes + (0,)] += 1
        pairs.append((f, g))
        g = f.copy()  # the same coefficients, one power of p apart
        g.den += 1
        pairs.append((f, g))
        pairs.append((f, partial_fourier(f)))  # level (b, a), other denominator
        other = FiniteLevelFunction("gl" if side == "u" else "u", n, p, f.u, *level,
                                    f.table.copy(), f.den)
        pairs.append((f, other))
        zero = FiniteLevelFunction.zero(side, n, cfg, *level)
        deep_zero = zero.copy()
        deep_zero.den = 3
        pairs.append((zero, deep_zero))
        got = [a.equals(b) for a, b in pairs]
        assert got == [a.canonical() == b.canonical() for a, b in pairs]
        assert got == [True] * 5 + [False] * 4 + [True]


def test_random_draws_unchanged():
    # the loop before its invariants were hoisted: the same draws, the same tables
    def old_random(side, n, cfg, a, b, rng, density=24):
        f = FiniteLevelFunction.zero(side, n, cfg, a, b)
        for _ in range(min(density, f.coset_count)):
            idx = tuple(rng.randrange(f.P) for _ in range(f.axes))
            f.table[idx + (rng.randrange(f.ring.q),)] += rng.choice((-2, -1, 1, 2))
        return f

    for seed in (0, 7, 41, 2**31 + 5):
        for side, n, cfg, level, density in [("u", 2, CFG3, (1, 1), 24),
                                             ("gl", 3, CFG5, (0, 1), 60),
                                             ("u", 2, CFG3, (0, 0), 24)]:
            rng_new, rng_old = random.Random(seed), random.Random(seed)
            new = FiniteLevelFunction.random(side, n, cfg, *level, rng_new, density)
            old = old_random(side, n, cfg, *level, rng_old, density)
            assert np.array_equal(new.table, old.table)
            assert rng_new.random() == rng_old.random()


def _fraction_coords(f, idx, shift):
    return [Fraction(k + s * f.P, f.p ** f.a) for k, s in zip(idx, shift)]


def _q_fraction(f, x):
    m = f.m
    if f.side == "gl":
        return sum((b * c for b, c in zip(x[:m], x[m:])), Fraction(0))
    return sum((x[2 * i] ** 2 - f.u * x[2 * i + 1] ** 2 for i in range(m)), Fraction(0))


def test_q_exponents_match_fraction_reference():
    rng = random.Random(43)
    for side, n, cfg, level, ts in [
        ("u", 2, CFG3, (1, 1), (1, 3, -2, Fraction(2, 5))),
        ("gl", 2, CFG3, (1, 1), (1, -1, Fraction(9, 7))),
        ("u", 2, CFG5, (1, 1), (1, Fraction(3, 2))),
        ("gl", 2, CFG3, (0, 1), (Fraction(1, 3), Fraction(-2, 3))),
        ("u", 2, CFG3, (1, 2), (Fraction(1, 3), 1)),
        ("gl", 3, CFG3, (1, 0), (3, Fraction(-9, 2))),
    ]:
        f = FiniteLevelFunction.zero(side, n, cfg, *level)
        for t in ts:
            for shift in ([0] * f.axes, [rng.randrange(-2, 3) for _ in range(f.axes)]):
                grid = f.q_exponents(t, shift=shift)
                for idx in np.ndindex(grid.shape):
                    x = _fraction_coords(f, idx, shift)
                    want = psi_exponent_fraction(Fraction(t) * _q_fraction(f, x), f.p, f.mc)
                    assert grid[idx] == want
    with pytest.raises(ConductorExceeded):
        FiniteLevelFunction.zero("u", 2, CFG3, 1, 1).q_exponents(Fraction(1, 3))


def test_modulation_grid_matches_fraction_reference():
    rng = random.Random(47)
    for side, n, level in [("u", 2, (1, 1)), ("gl", 2, (1, 1)), ("gl", 2, (2, 1)),
                           ("u", 3, (1, 0))]:
        f = FiniteLevelFunction.zero(side, n, CFG3, *level)
        v = [rng.randrange(f.P) for _ in range(f.axes)]
        grid = modulation_for_translation(f, v)
        vs = [Fraction(vt, f.p ** f.a) for vt in v]
        m = f.m
        for idx in np.ndindex(grid.shape):
            x = [Fraction(k, f.p ** f.b) for k in idx]  # the grid of F f
            if side == "gl":
                phase = sum(vs[m + i] * x[i] + x[m + i] * vs[i] for i in range(m))
            else:
                phase = sum(2 * (vs[2 * i] * x[2 * i] - f.u * vs[2 * i + 1] * x[2 * i + 1])
                            for i in range(m))
            assert grid[idx] == psi_exponent_fraction(Fraction(phase), f.p, f.mc)


def test_weil_checks_n3():
    assert sl2_relation_check(CFG3, 3, (1, 1), 1, seed=53)
    assert fourier_order_four_check(CFG3, 3, (1, 1), 1, seed=54)


def test_coefficient_overflow_is_typed():
    f = FiniteLevelFunction.zero("gl", 2, CFG3, 1, 1)
    f.table[0, :, 0] = 2**61  # the second axis would sum nine of them
    with pytest.raises(CoefficientOverflow):
        partial_fourier(f)
    ring = CharacterRing(3, 2)
    big = CycNumber(ring, ring.monomial(0).coeffs * 2**62)
    with pytest.raises(CoefficientOverflow):
        big + big
    with pytest.raises(CoefficientOverflow):
        big + ring.monomial(0, den=1)  # rescaling big by p
    with pytest.raises(CoefficientOverflow):
        big * 2
    with pytest.raises(CoefficientOverflow):
        big * (ring.one() + ring.one())
    assert np.array_equal((big * ring.one()).coeffs, big.coeffs)
    assert big.canonical()[0][0] == 2**62  # folding only adds the high coefficients


def test_user_errors_are_typed():
    with pytest.raises(ValueError, match="non-negative"):
        FiniteLevelFunction.zero("u", 2, CFG3, -1, -1)
    f = FiniteLevelFunction.zero("u", 2, CFG3, 1, 1)
    with pytest.raises(ValueError):
        FiniteLevelFunction("x", 2, 3, -1, 1, 1, f.table)
    with pytest.raises(ValueError):
        FiniteLevelFunction("u", 2, 3, -1, 1, 0, f.table)
    with pytest.raises(ValueError):
        weil_apply([("m", 1)], f)
    with pytest.raises(ValueError):
        f.pointwise_psi(np.zeros(3, dtype=np.int64))
