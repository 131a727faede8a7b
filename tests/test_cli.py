import json
import os
import subprocess
import sys

import pytest

import fllab
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
    assert report["summary"]["mismatches"] == 0
    assert report["summary"]["total"] == 20
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


def test_verify_precision_zero(capsys):
    code, _, err = run_cli(capsys, "verify", "--precision", "0", "--samples", "1")
    assert code == 2
    assert "precision must be at least 8 digits" in err


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


def test_orbit_rss_failure(tmp_path, capsys):
    mat = {"p": 3, "u": -1, "n": 2, "side": "gl",
           "entries": [["1", "0"], ["1", "0"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mat))
    code, _, err = run_cli(capsys, "orbit", "--side", "gl", "--input", str(path))
    assert code == 1
    assert "not relatively regular semi-simple" in err


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
    # a recorded representative reproduces its orbital integrals
    inv_path = tmp_path / "inv.json"
    inv_path.write_text(json.dumps({"n": 2, "charpoly": ["-1", "-1"], "moments": ["0"]}))
    code, out, _ = run_cli(capsys, "represent", "--side", "u", "--p", "3",
                           "--u", "-1", "--input", str(inv_path))
    assert code == 0
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(out)
    code, out, _ = run_cli(capsys, "orbit", "--side", "u", "--input", str(rep_path))
    assert code == 0
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
    code, _, _ = run_cli(capsys, "verify", "--n", "2", "--samples", "3",
                         "--seed", "2", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["meta"]["precision"] == 32
    # explicit flag wins over the environment
    code, _, _ = run_cli(capsys, "verify", "--n", "2", "--samples", "3",
                         "--seed", "2", "--precision", "64", "--out", str(out))
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
