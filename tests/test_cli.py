import json
import os
import subprocess
import sys

import pytest

import fllab
from fllab import weil
from fllab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def normalized(report: dict) -> dict:
    out = json.loads(json.dumps(report))
    out["meta"].pop("timestamp", None)
    for rec in out.get("samples", []):
        rec.pop("runtime_ms", None)
    return out


def test_verify_small_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "verify", "--n", "2", "--p", "3", "--samples", "20",
        "--seed", "42", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"] == {"total": 20, "mismatches": 0, "explosion_skips": 0}
    assert len(report["samples"]) == 20
    # injected vanishing points show up and vanish
    injected = [r for r in report["samples"] if not r["hermitian_exists"]]
    assert injected and all(r["o_gl"] == 0 for r in injected)
    # records are index-ordered
    assert [r["index"] for r in report["samples"]] == list(range(20))


def test_verify_determinism(tmp_path, capsys):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run_cli(
            capsys, "verify", "--n", "2", "--p", "3", "--samples", "12",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        outs.append(normalized(json.loads(out.read_text())))
    assert outs[0] == outs[1]


def test_verify_bad_prime(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "4", "--samples", "1")
    assert code == 2
    assert "p must be an odd prime" in err


def test_lemma1_precision_zero(capsys):
    code, _, err = run_cli(capsys, "lemma1", "--precision", "0", "--samples", "1")
    assert code == 2
    assert "precision must be at least 8 digits" in err


@pytest.mark.parametrize("fraction", ["1.5", "-1"])
def test_verify_refuses_vanishing_fraction_outside_unit_interval(capsys, fraction):
    code, out, err = run_cli(capsys, "verify", "--samples", "1",
                             "--vanishing-fraction", fraction)
    assert code == 2
    assert out == ""
    assert "--vanishing-fraction must lie in [0, 1]" in err


def test_verify_n1_has_no_vanishing_points(capsys):
    # every rss point of size 1 has a hermitian preimage: asking for vanishing
    # points is a usage error, not a mathematical mismatch
    code, out, err = run_cli(capsys, "verify", "--n", "1", "--samples", "4")
    assert code == 2
    assert out == ""
    assert "--n 1 has no vanishing points" in err
    code, out, _ = run_cli(capsys, "verify", "--n", "1", "--samples", "12",
                           "--vanishing-fraction", "0")
    assert code == 0
    samples = json.loads(out)["samples"]
    assert all(r["hermitian_exists"] and r["o_u"] == r["o_gl"] for r in samples)


def test_exact_file_not_hermitian_is_refused(tmp_path, capsys):
    # c = sigma(b) + 3^45 w: hermitian to 45 digits, but an exact input is
    # compared exactly, whatever the working precision
    mat = {"p": 3, "n": 2, "side": "u",
           "entries": [["1", "1"], [f"1+{3 ** 45}*w", "0"]]}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(mat))
    for argv in (["orbit", "--side", "u", "--input", str(path)],
                 ["invariants", "--input", str(path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "not hermitian" in err


def test_orbit_examples(tmp_path, capsys):
    mat = {"p": 3, "u": -1, "n": 2, "side": "gl",
           "entries": [["1", "1"], ["9", "0"]]}
    path = tmp_path / "y.json"
    path.write_text(json.dumps(mat))
    code, out, _ = run_cli(capsys, "orbit", "--side", "gl", "--input", str(path),
                           "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1 and data["omega"] == 1
    assert data["oracle"] == 1 and data["oracle_agrees"]

    matu = {"p": 3, "u": -1, "n": 2, "side": "u",
            "entries": [["1", "w"], ["-w", "0"]]}
    pathu = tmp_path / "x.json"
    pathu.write_text(json.dumps(matu))
    code, out, _ = run_cli(capsys, "orbit", "--side", "u", "--input", str(pathu))
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_orbit_oracle_reads_explosion_bound(tmp_path, capsys):
    # a count-4 point whose u box has quotient p^12: within the default bound
    mat = {"p": 3, "u": 2, "n": 3, "side": "u",
           "entries": [["2", "3-6w", "-3w"], ["3+6w", "-1", "9"], ["3w", "9", "0"]]}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(mat))
    code, out, _ = run_cli(capsys, "orbit", "--side", "u", "--input", str(path), "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 4 and data["oracle"] == 4 and data["oracle_agrees"] is True


COUNT4_U = os.path.join(os.path.dirname(__file__), "data", "count4_u.json")


def test_orbit_reads_side_from_file(capsys):
    # no --side: the file says "u"
    code, out, _ = run_cli(capsys, "orbit", "--input", COUNT4_U, "--oracle")
    assert code == 0
    data = json.loads(out)
    assert data["side"] == "u" and data["value"] == 4 and data["oracle"] == 4


def test_refusals_exit_4(tmp_path, capsys):
    # a box the bound refuses, and a rank the oracle does not support: neither
    # is a mismatch (1) nor a usage error (2)
    code, out, err = run_cli(capsys, "orbit", "--input", COUNT4_U, "--oracle",
                             "--explosion-bound", "4")
    assert code == 4 and out == ""
    assert "box quotient p^12 too large" in err
    mat = {"p": 3, "n": 4, "side": "gl",
           "entries": [["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"],
                       ["0", "0", "1", "0"]]}
    path = tmp_path / "y.json"
    path.write_text(json.dumps(mat))
    code, out, err = run_cli(capsys, "orbit", "--input", str(path), "--oracle")
    assert code == 4 and out == ""
    assert "oracle supports rank at most 2" in err


def test_orbit_rss_failure(tmp_path, capsys):
    mat = {"p": 3, "u": -1, "n": 2, "side": "gl",
           "entries": [["1", "0"], ["1", "0"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mat))
    code, _, err = run_cli(capsys, "orbit", "--side", "gl", "--input", str(path))
    assert code == 1
    assert "not relatively regular semi-simple" in err


def test_orbit_oracle_side_mismatch(tmp_path, capsys):
    # a general-linear matrix read as unitary: the oracle refuses the wrong side
    mat = {"p": 3, "u": -1, "n": 2, "side": "gl",
           "entries": [["1", "3"], ["1", "0"]]}
    path = tmp_path / "y.json"
    path.write_text(json.dumps(mat))
    code, out, err = run_cli(capsys, "orbit", "--side", "u", "--input", str(path),
                             "--oracle")
    assert code == 1
    assert out == ""
    assert "oracle side 'u'" in err


def test_orbit_side_mismatch(tmp_path, capsys):
    # the same general-linear matrix read as unitary, without the oracle
    mat = {"p": 3, "n": 2, "side": "gl", "entries": [["1", "3"], ["1", "0"]]}
    path = tmp_path / "y.json"
    path.write_text(json.dumps(mat))
    code, out, err = run_cli(capsys, "orbit", "--side", "u", "--input", str(path))
    assert code == 1
    assert out == ""
    assert "side 'u' does not take a GlnElement" in err


def test_orbit_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "orbit", "--side", "gl", "--input", str(path))
    assert code == 2


def test_invariants_and_represent_roundtrip(tmp_path, capsys):
    matu = {"p": 3, "u": -1, "n": 2, "side": "u",
            "entries": [["1", "w"], ["-w", "0"]]}
    pathu = tmp_path / "x.json"
    pathu.write_text(json.dumps(matu))
    code, out, _ = run_cli(capsys, "invariants", "--input", str(pathu))
    assert code == 0
    data = json.loads(out)
    assert data["charpoly"] == ["-1", "-1"]
    assert data["moments"] == ["0"]
    assert data["q"] == "1"
    assert data["rss"] and data["hermitian_exists"]

    inv_path = tmp_path / "inv.json"
    inv_path.write_text(json.dumps({"n": 2, "charpoly": ["-1", "-1"], "moments": ["0"]}))
    code, out, _ = run_cli(capsys, "represent", "--side", "gl", "--p", "3",
                           "--u", "-1", "--input", str(inv_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["entries"] == [["1", "1"], ["1", "0"]]

    code, out, _ = run_cli(capsys, "represent", "--side", "u", "--p", "3",
                           "--u", "-1", "--input", str(inv_path))
    assert code == 0

    # odd Hankel valuation: no hermitian representative
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps({"n": 2, "charpoly": ["-3", "-1"], "moments": ["0"]}))
    code, _, err = run_cli(capsys, "represent", "--side", "u", "--p", "3",
                           "--u", "-1", "--input", str(bad))
    assert code == 1


def test_orbit_on_represented_matrix(tmp_path, capsys):
    # a recorded representative reproduces its orbital integrals; at q = 7 the
    # norm equation has no rational root, and the truncated representative is
    # still written as an exactly hermitian matrix
    for charpoly in (["-1", "-1"], ["-7", "0"]):
        inv_path = tmp_path / "inv.json"
        inv_path.write_text(json.dumps({"n": 2, "charpoly": charpoly, "moments": ["0"]}))
        code, out, _ = run_cli(capsys, "represent", "--side", "u", "--p", "3",
                               "--u", "-1", "--input", str(inv_path))
        assert code == 0
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(out)
        code, out, _ = run_cli(capsys, "orbit", "--side", "u", "--input", str(rep_path))
        assert code == 0, charpoly
        assert json.loads(out)["value"] == 1


def test_fourier_check(capsys):
    code, out, _ = run_cli(capsys, "fourier-check", "--p", "3", "--n", "2",
                           "--level", "1", "--trials", "4")
    assert code == 0
    data = json.loads(out)
    assert data == {"order_four": True, "sl2_relations": True, "unit_selfdual": True}


def test_fourier_check_bad_prime(capsys):
    code, _, err = run_cli(capsys, "fourier-check", "--p", "4")
    assert code == 2


def test_fourier_check_negative_level(capsys):
    code, _, err = run_cli(capsys, "fourier-check", "--p", "3", "--n", "2", "--level", "-1")
    assert code == 2
    assert "level must be non-negative" in err


def test_fourier_check_level_reaches_unit_check(capsys, monkeypatch):
    levels = []
    unit_box = weil.FiniteLevelFunction.unit_box

    def recording(side, n, cfg, a, b):
        levels.append((a, b))
        return unit_box(side, n, cfg, a, b)

    monkeypatch.setattr(weil.FiniteLevelFunction, "unit_box", staticmethod(recording))
    code, out, _ = run_cli(capsys, "fourier-check", "--p", "3", "--n", "2",
                           "--level", "0", "--trials", "1")
    assert code == 0
    assert json.loads(out)["unit_selfdual"] is True
    assert levels and set(levels) == {(0, 0)}


@pytest.mark.parametrize("n", ["1", "0"])
def test_fourier_check_small_n(capsys, n):
    code, out, err = run_cli(capsys, "fourier-check", "--p", "3", "--n", n)
    assert code == 2
    assert out == ""
    assert "n must be at least 2" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_fourier_check_refuses_no_trials(capsys, trials):
    code, out, err = run_cli(capsys, "fourier-check", "--p", "3", "--n", "2",
                             "--trials", trials)
    assert code == 2
    assert out == ""
    assert "--trials must be at least 1" in err


@pytest.mark.parametrize("command", ["verify", "lemma1"])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_campaigns_refuse_no_samples(capsys, command, samples):
    code, out, err = run_cli(capsys, command, "--p", "3", "--n", "2", "--samples", samples)
    assert code == 2
    assert out == ""
    assert "--samples must be at least 1" in err


@pytest.mark.parametrize("argv,message", [
    (["lemma1", "--samples", "1", "--height", "0"], "--height must be at least 1"),
    (["verify", "--samples", "2", "--height", "0"], "--height must be at least 1"),
    (["lemma1", "--height", "-3"], "--height must be at least 1"),
    (["verify", "--explosion-bound", "-1"], "--explosion-bound must be at least 0"),
])
def test_campaigns_refuse_bad_height_and_bound(capsys, argv, message):
    # refused as usage errors before any sampling: height 0 makes every
    # sampled matrix 0, and a negative bound would skip every sample
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_sampling_exhausted_is_a_usage_error(capsys, monkeypatch):
    # no draw is rss: every sampler of verify and lemma1 gives up
    from fllab import cli, geometry

    for module in (cli, geometry):
        monkeypatch.setattr(module, "is_rss", lambda x: False)
    for argv in (["verify"], ["verify", "--vanishing-fraction", "0"], ["lemma1"]):
        code, out, err = run_cli(capsys, *argv, "--samples", "1", "--n", "2")
        assert code == 2, argv
        assert out == ""
        assert "sampling exhausted" in err


def test_subcommands_refuse_options_they_do_not_read(tmp_path, capsys):
    mat = {"p": 3, "n": 2, "side": "gl", "entries": [["1", "1"], ["9", "0"]]}
    path = tmp_path / "y.json"
    path.write_text(json.dumps(mat))
    for argv in (["orbit", "--side", "gl", "--input", str(path), "--p", "5"],
                 ["invariants", "--input", str(path), "--explosion-bound", "3"],
                 ["represent", "--side", "gl", "--input", str(path), "--n", "3"],
                 ["fourier-check", "--precision", "20"],
                 # nothing these three compute is truncated
                 ["verify", "--samples", "1", "--precision", "20"],
                 ["orbit", "--side", "gl", "--input", str(path), "--precision", "20"],
                 ["invariants", "--input", str(path), "--precision", "20"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
    # precision is still validated where it is read
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(json.dumps({"n": 2, "charpoly": ["-1", "-1"], "moments": ["0"]}))
    code, _, err = run_cli(capsys, "represent", "--side", "u", "--input", str(inv_path),
                           "--precision", "0")
    assert code == 2
    assert "precision must be at least 8 digits" in err


def test_matrix_file_unknown_side(tmp_path, capsys):
    mat = {"p": 3, "n": 2, "side": "hermitian", "entries": [["1", "1"], ["9", "0"]]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(mat))
    code, out, err = run_cli(capsys, "invariants", "--input", str(path))
    assert code == 2
    assert out == ""
    assert "side must be u or gl" in err


def test_lemma1_cmd(tmp_path, capsys):
    out = tmp_path / "lemma1.json"
    code, _, _ = run_cli(capsys, "lemma1", "--n", "2", "--p", "3", "--samples", "10",
                         "--seed", "5", "--height", "9", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["summary"] == {"total": 10, "failures": 0}


def test_csv_export(tmp_path, capsys):
    out = tmp_path / "r.json"
    csv_path = tmp_path / "r.csv"
    code, _, _ = run_cli(capsys, "verify", "--n", "2", "--samples", "5",
                         "--seed", "1", "--out", str(out), "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("index,")
    assert len(lines) == 6


def test_env_precision(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLLAB_PRECISION", "32")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "lemma1", "--n", "2", "--samples", "3",
                         "--seed", "2", "--height", "9", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["meta"]["precision"] == 32
    # explicit flag wins over the environment
    code, _, _ = run_cli(capsys, "lemma1", "--n", "2", "--samples", "3",
                         "--seed", "2", "--height", "9", "--precision", "64", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["meta"]["precision"] == 64


def test_sample_records_are_self_contained(tmp_path, capsys):
    # invariants recorded per sample regenerate representatives whose orbital
    # integrals reproduce the recorded o_u / o_gl
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "verify", "--n", "2", "--samples", "6",
                         "--seed", "3", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    for rec in report["samples"][:3]:
        inv_path = tmp_path / f"inv{rec['index']}.json"
        inv_path.write_text(json.dumps(rec["invariants"]))
        code, rep_out, _ = run_cli(capsys, "represent", "--side", "gl", "--p", "3",
                                   "--input", str(inv_path))
        assert code == 0
        mat_path = tmp_path / f"mat{rec['index']}.json"
        mat_path.write_text(rep_out)
        code, orb_out, _ = run_cli(capsys, "orbit", "--side", "gl",
                                   "--input", str(mat_path))
        assert code == 0
        assert json.loads(orb_out)["value"] == rec["o_gl"]


def test_console_script_entrypoint():
    # the child imports the same fllab as this process, installed or not
    src = os.path.dirname(os.path.dirname(fllab.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "fllab.cli", "verify", "--n", "2", "--samples", "2",
         "--seed", "0"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["summary"]["mismatches"] == 0
