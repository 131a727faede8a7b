"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact integer equality or an explicitly
stated precision margin.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from fllab.cli import main
from fllab.errors import NoHermitianOrbit, NotRss, OracleTooLarge
from fllab.geometry import (
    GlnElement,
    HnElement,
    invariants_of,
    is_rss,
    sample_hermitian,
    sample_matched_pair,
    transfer_sign,
    u_representative,
)
from fllab.linalg import Matrix, val_det
from fllab.orbital import fl_compare, orbital_gl_unit, orbital_oracle, orbital_u_unit
from fllab.padic import FieldConfig
from fllab.weil import (
    fourier_order_four_check,
    sl2_relation_check,
    unit_selfdual_check,
)
from reference import random_gl, random_unitary

CFG3 = FieldConfig(3, -1)
CFG5 = FieldConfig(5, 2)


def report_line(num, text):
    print(f"PASS criterion {num}: {text}")


def _run_verify(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(["verify", *argv, "--out", str(out)])
    return code, json.loads(out.read_text())


def test_criterion_1_fundamental_lemma_n2(tmp_path):
    t0 = time.time()
    for p in (3, 5):
        code, report = _run_verify(
            tmp_path, f"c1_p{p}.json",
            "--n", "2", "--p", str(p), "--samples", "500", "--seed", "42",
        )
        assert code == 0
        assert report["summary"]["mismatches"] == 0
        assert report["summary"]["total"] == 500
    elapsed = time.time() - t0
    assert elapsed < 240  # < 2 minutes per run
    report_line(1, f"n=2, p in (3,5), 500 samples each, 0 mismatches ({elapsed:.1f}s)")


def test_criterion_2_fundamental_lemma_n3(tmp_path):
    t0 = time.time()
    code, report = _run_verify(
        tmp_path, "c2.json",
        "--n", "3", "--p", "3", "--samples", "100", "--height", "20", "--seed", "42",
    )
    elapsed = time.time() - t0
    assert code == 0
    assert report["summary"]["mismatches"] == 0
    assert elapsed < 600
    report_line(2, f"n=3, p=3, 100 samples, 0 mismatches ({elapsed:.1f}s)")


def test_criterion_3_vanishing():
    rng = random.Random(4242)
    found = 0
    while found < 50:
        n = rng.choice((2, 3))
        rows = [[Fraction(rng.randint(-20, 20), 3 ** rng.choice((0, 1)))
                 for _ in range(n)] for _ in range(n)]
        y = GlnElement(Matrix.from_rows(CFG3, rows))
        if not is_rss(y):
            continue
        a = invariants_of(y)
        if a.hermitian_exists():
            continue
        r = fl_compare(a)
        assert not r.hermitian_exists
        assert r.o_gl == 0
        found += 1
    report_line(3, f"{found} rss points without hermitian orbit, all o_gl = 0 exactly")


def test_criterion_4_lemma1(tmp_path):
    for n, samples in ((2, 100), (3, 50)):
        out = tmp_path / f"c4_n{n}.json"
        code = main(["lemma1", "--n", str(n), "--p", "3", "--samples", str(samples),
                     "--seed", "9", "--height", "12", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["failures"] == 0
        assert report["summary"]["total"] == samples
    report_line(4, "descent identities exact on 100 (n=2) + 50 (n=3) unit-q samples")


def _random_gl_element(n, cfg, rng, height=5):
    while True:
        rows = [[Fraction(rng.randint(-height, height), cfg.p ** rng.choice((0, 1)))
                 for _ in range(n)] for _ in range(n)]
        y = GlnElement(Matrix.from_rows(cfg, rows))
        if is_rss(y):
            return y


def _random_u_element(n, cfg, rng, height=5):
    while True:
        x = sample_hermitian(n, cfg, height, rng)
        if is_rss(x):
            return x


def test_criterion_5_oracle_equivalence():
    total = 0
    for n in (2, 3):
        rng = random.Random(600 + n)
        done = 0
        while done < 50:
            y = _random_gl_element(n, CFG3, rng)
            try:
                expected = orbital_oracle("gl", y)
            except OracleTooLarge:
                continue
            assert orbital_gl_unit(y).value == expected
            done += 1
        total += done
        done = 0
        while done < 50:
            x = _random_u_element(n, CFG3, rng)
            try:
                expected = orbital_oracle("u", x)
            except OracleTooLarge:
                continue
            assert orbital_u_unit(x).value == expected
            done += 1
        total += done
    report_line(5, f"{total} oracle comparisons (50 per side per n in (2,3)), all exact")


def test_criterion_6_conjugation_and_cocycle():
    rng = random.Random(77)
    checks = 0
    for n in (2, 3):
        x, y, a = sample_matched_pair(n, CFG3, 9, seed=1234 + n)
        base_u = orbital_u_unit(x).value
        base_gl = orbital_gl_unit(y).value
        for _ in range(50):
            g = random_unitary(n - 1, CFG3, rng)
            assert orbital_u_unit(x.conjugate_small(g)).value == base_u
            h = random_gl(n - 1, CFG3, rng)
            assert orbital_gl_unit(y.conjugate_small(h)).value == base_gl
            checks += 2
    cocycle = 0
    for n in (2, 3):
        y = _random_gl_element(n, CFG3, random.Random(88 + n))
        base = transfer_sign(y)
        for _ in range(50):
            g = random_gl(n - 1, CFG3, rng)
            conj = y.conjugate_small(g)
            vg = int(val_det(g))
            assert transfer_sign(conj).omega == base.omega * (-1 if vg % 2 else 1)
            cocycle += 1
    report_line(6, f"{checks} conjugation invariance checks, {cocycle} cocycle checks")


def test_criterion_7_fourier_weil():
    t0 = time.time()
    for cfg in (CFG3, CFG5):
        for n in (2, 3):
            assert unit_selfdual_check(cfg, n)
    assert fourier_order_four_check(CFG3, 2, (1, 1), 20, seed=70)
    assert fourier_order_four_check(CFG5, 2, (1, 1), 20, seed=71)
    assert sl2_relation_check(CFG3, 2, (1, 1), 10, seed=72)
    elapsed = time.time() - t0
    assert elapsed < 60
    report_line(7, f"F1=1 on (3,5)x(2,3), F^4=id on 20 fns/side, SL2 relations "
                   f"10 trials/side, all exact ({elapsed:.1f}s)")


def test_criterion_8_existence_criterion():
    rng = random.Random(31415)
    count = 0
    succeeded = 0
    while count < 500:
        n = rng.choice((2, 3))
        x = sample_hermitian(n, CFG3, 20, rng)
        if not is_rss(x):
            continue
        a = invariants_of(x)
        vd = int(val_det(a.hankel()))
        assert vd % 2 == 0  # points under a hermitian element always have even parity
        assert a.hermitian_exists()
        count += 1
        if count % 10 == 0:
            # full round-trip on a tithe of the samples (hermitian + invariants)
            x2 = u_representative(a)
            assert x2.mat.is_hermitian()
            assert invariants_of(x2).agrees(a)
            succeeded += 1
    # and the criterion is sharp: odd-parity points are refused
    refused = 0
    while refused < 25:
        n = rng.choice((2, 3))
        y = _random_gl_element(n, CFG3, rng, height=12)
        a = invariants_of(y)
        if a.hermitian_exists():
            continue
        with pytest.raises(NoHermitianOrbit):
            u_representative(a)
        refused += 1
    report_line(8, f"500 hermitian samples all even parity ({succeeded} round-trips), "
                   f"{refused} odd-parity points refused")


def test_criterion_9_determinism(tmp_path):
    def norm(report):
        report["meta"].pop("timestamp", None)
        for rec in report.get("samples", []):
            rec.pop("runtime_ms", None)
        return report

    pairs = []
    for tag in ("x", "y"):
        code, rep = _run_verify(
            tmp_path, f"c9_{tag}.json",
            "--n", "2", "--p", "3", "--samples", "30", "--seed", "11",
        )
        assert code == 0
        pairs.append(norm(rep))
    assert pairs[0] == pairs[1]

    lemma_pair = []
    for tag in ("x", "y"):
        out = tmp_path / f"c9l_{tag}.json"
        code = main(["lemma1", "--n", "2", "--p", "3", "--samples", "10",
                     "--seed", "3", "--height", "9", "--out", str(out)])
        assert code == 0
        lemma_pair.append(norm(json.loads(out.read_text())))
    assert lemma_pair[0] == lemma_pair[1]
    report_line(9, "verify and lemma1 reports identical across reruns "
                   "(timestamp and runtimes excluded)")
