import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fllab.errors import DivisionByZero, OddValuation, PrecisionExhausted
from fllab.padic import (
    FieldConfig,
    PAdicScalar,
    QuadScalar,
    format_scalar,
    from_rational,
    parse_scalar,
    smallest_nonresidue,
    solve_norm_equation,
)
from fllab.weil import psi_exponent_fraction

CFG3 = FieldConfig(3, -1)
CFG5 = FieldConfig(5, 2)


def test_config_validation():
    with pytest.raises(ValueError):
        FieldConfig(4, -1)
    with pytest.raises(ValueError):
        FieldConfig(2, -1)
    with pytest.raises(ValueError):
        FieldConfig(3, 1)  # 1 is a square
    with pytest.raises(ValueError):
        FieldConfig(5, -1)  # -1 is a square mod 5
    with pytest.raises(ValueError):
        FieldConfig(3, -1, precision=4)
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


def test_from_rational_examples():
    x = from_rational(10, 1, CFG3)
    assert x.valuation() == 0
    assert x.unit % 3 == 1  # 10 = 1 mod 3
    assert x.known_digits == CFG3.D

    y = from_rational(9, 2, CFG3)
    assert y.valuation() == 2
    # unit = inverse of 2 mod 3^D; mod 9 that is 5
    assert y.unit % 9 == 5

    z = from_rational(0, 1, CFG3)
    assert z.is_exact_zero()
    assert z.valuation() == math.inf


def test_scalar_arith_examples():
    inv3 = CFG3.scalar(3).inv()
    assert inv3.valuation() == -1
    assert inv3.as_fraction() == Fraction(1, 3)

    a = CFG3.scalar(3)  # val 1
    b = CFG3.scalar(Fraction(1, 3))  # val -1
    assert (a * b).valuation() == 0

    s = CFG3.scalar(4) + CFG3.scalar(-4)
    assert s.is_exact_zero()


def test_division_and_precision_errors():
    with pytest.raises(DivisionByZero):
        CFG3.zero().inv()
    fuzz = PAdicScalar.inexact(CFG3, None, 0, 10)  # O(3^10)
    with pytest.raises(PrecisionExhausted):
        fuzz.inv()
    with pytest.raises(PrecisionExhausted):
        fuzz.valuation()


def test_inexact_propagation():
    # unit known to 10 digits times p: valuation shifts, relative digits kept
    x = PAdicScalar.inexact(CFG3, 0, 7, 10)
    y = x * CFG3.scalar(3)
    assert y.valuation() == 1
    assert y.abs_prec == 11
    # adding a high-valuation exact value cannot create digits
    z = y + CFG3.scalar(3**30)
    assert z.abs_prec == 11
    # cancellation of truncated values leaves a zero-at-precision residue
    w = x - x
    assert w.is_zero_at_precision() and not w.is_exact_zero()
    assert w.valuation_lower_bound() == 10


def test_quad_ops_examples():
    x = CFG3.quad(2, 1)  # 2 + w
    s = x.sigma()
    assert s.a.as_fraction() == 2 and s.b.as_fraction() == -1

    w = CFG3.quad(0, 1)
    assert w.norm().as_fraction() == 1  # N(w) = -u = 1 for u = -1

    y = CFG3.quad(1, 1)
    assert y.norm().as_fraction() == 2
    assert y.trace().as_fraction() == 2


@settings(max_examples=60, deadline=None)
@given(
    an=st.integers(-200, 200),
    ad=st.integers(1, 40),
    bn=st.integers(-200, 200),
    bd=st.integers(1, 40),
)
def test_sigma_involution_and_trace_norm(an, ad, bn, bd):
    x = QuadScalar(CFG3.scalar(Fraction(an, ad)), CFG3.scalar(Fraction(bn, bd)))
    assert x.sigma().sigma() == x
    assert (x.sigma() == x) == x.b.is_exact_zero()
    assert x.trace() == (x + x.sigma()).f_part()
    prod = x * x.sigma()
    assert prod.f_part() == x.norm()


def test_f_part_compares_exact_values_exactly():
    # an exact w-part must be 0, however deep its valuation and whatever D is
    for k in (15, 45, 80):
        with pytest.raises(ValueError):
            QuadScalar(CFG3.scalar(1), CFG3.scalar(3 ** k)).f_part()
    assert CFG3.quad(5, 0).f_part() == 5
    # a truncated w-part keeps its slack: zero to 4 digits of its precision
    one = CFG3.scalar(1)
    assert QuadScalar(one, PAdicScalar.inexact(CFG3, 46, 1, 48)).f_part() == 1
    with pytest.raises(ValueError):
        QuadScalar(one, PAdicScalar.inexact(CFG3, 40, 1, 48)).f_part()


@settings(max_examples=60, deadline=None)
@given(
    xn=st.integers(-500, 500),
    xd=st.integers(1, 60),
    yn=st.integers(-500, 500),
    yd=st.integers(1, 60),
)
def test_valuation_laws(xn, xd, yn, yd):
    x = CFG3.scalar(Fraction(xn, xd))
    y = CFG3.scalar(Fraction(yn, yd))
    if not x.is_exact_zero() and not y.is_exact_zero():
        assert (x * y).valuation() == x.valuation() + y.valuation()
        s = x + y
        if not s.is_exact_zero():
            assert s.valuation() >= min(x.valuation(), y.valuation())
            if x.valuation() != y.valuation():
                assert s.valuation() == min(x.valuation(), y.valuation())


def test_norm_equation_examples():
    nu = solve_norm_equation(CFG3.scalar(1), CFG3)
    assert nu.norm().agrees(CFG3.scalar(1), 2)

    nu2 = solve_norm_equation(CFG3.scalar(2), CFG3)
    assert nu2.a.as_fraction() == 1 and nu2.b.as_fraction() == 1  # exactly 1 + w

    with pytest.raises(OddValuation):
        solve_norm_equation(CFG3.scalar(3), CFG3)


@pytest.mark.parametrize("cfg", [CFG3, CFG5, FieldConfig(7, 3)])
def test_norm_equation_random_units(cfg):
    rng = random.Random(20240817)
    for _ in range(200):
        num = rng.randint(1, 5000)
        num += cfg.p - num % cfg.p if num % cfg.p == 0 else 0  # force a unit
        sgn = rng.choice((1, -1))
        mu = cfg.scalar(sgn * num)
        if mu.valuation() % 2 == 1:
            mu = mu * cfg.p
        nu = solve_norm_equation(mu, cfg)
        assert nu.valuation() == mu.valuation() // 2
        delta = nu.norm() - mu
        assert delta.valuation_lower_bound() >= cfg.D - 2
    for _ in range(50):
        num = rng.randint(1, 2000)
        while num % cfg.p == 0:
            num = rng.randint(1, 2000)
        mu = cfg.scalar(num * cfg.p)  # odd valuation
        with pytest.raises(OddValuation):
            solve_norm_equation(mu, cfg)


def test_even_valuation_scaling():
    mu = CFG3.scalar(9 * 7)
    nu = solve_norm_equation(mu, CFG3)
    assert nu.valuation() == 1
    assert (nu.norm() - mu).valuation_lower_bound() >= CFG3.D - 2


def test_psi_exponent():
    assert psi_exponent_fraction(Fraction(5), 3, 2) == 0
    assert psi_exponent_fraction(Fraction(1, 3), 3, 2) == 3  # zeta_9^3 = zeta_3
    assert psi_exponent_fraction(Fraction(2, 9), 3, 2) == 2


def test_scalar_literal_roundtrip():
    cases = ["0", "1", "-1", "2/3", "w", "-w", "1+w", "1-2*w", "-5/2+3*w", "7/9"]
    for text in cases:
        x = parse_scalar(text, CFG3)
        assert parse_scalar(format_scalar(x), CFG3, quad=isinstance(x, QuadScalar)) == x
    # star is optional, bare coefficient forms accepted
    assert parse_scalar("2w", CFG3) == parse_scalar("2*w", CFG3)
    with pytest.raises(ValueError):
        parse_scalar("w", CFG3, quad=False)
    with pytest.raises(ValueError):
        parse_scalar("1 1", CFG3)
    with pytest.raises(ValueError):
        parse_scalar("", CFG3)
