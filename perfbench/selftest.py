"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload at a tiny size (one block of cheap strata), untraced and
traced, and checks that each run emits every metric BENCHMARK.json names,
with its unit; that the deterministic per-layer counts repeat exactly; that
an injected wrong answer fails the run; and that the benchmark refuses to
run without the fllab sources.  Exit code 0 when every check passes.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from fllab import orbital, weil  # noqa: E402
from workloads import Stratum as S  # noqa: E402

TINY = {
    "CAMPAIGN_BLOCKS": 1,
    "CAMPAIGN_BLOCK": (("fl_compare", 2, 3, 50, 3), ("lemma1_check", 2, 3, 12, 1),
                       ("fl_compare", 3, 3, 20, 2), ("lemma1_check", 3, 3, 12, 1)),
    "DEEP_BLOCKS": 1,
    "DEEP_BLOCK": {(3, 3): [S(0, 1), S(2, 1, e1=0), S(6, 1, up=True)],
                   (3, 5): [S(0, 1)], (4, 3): [S(0, 1)]},
    "ORACLE_BLOCKS": 1,
    "ORACLE_BLOCK": {("gl", 3): [S(0, 1), S(2, 1), S(6, 1, up=True)], ("u", 3): [S(0, 1)]},
    "WEIL_BLOCKS": 1,
    "WEIL_BLOCK": (("unit_selfdual", 3, 2, 1), ("order_four", 3, 2, 1), ("sl2", 3, 2, 1)),
}

# metrics that must repeat exactly between two traced runs of one seed
DETERMINISTIC = ("calls_per_op", "lattices_per_op", "vectors_tried_per_op", "yield",
                 "scalar_ops_per_op", "nontrivial_ratio", "refused.")


def bench(workload, trace, seed=7):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def check_metrics(spec, result, where):
    got = result["metrics"]
    for m in spec:
        assert m["name"] in got, f"{where}: metric {m['name']} missing"
        assert got[m["name"]]["unit"] == m["unit"], f"{where}: unit of {m['name']}"
        assert isinstance(got[m["name"]]["value"], (int, float)), f"{where}: {m['name']}"
    assert set(got) == {m["name"] for m in spec}, f"{where}: unexpected metrics"


@contextlib.contextmanager
def patched(obj, attr, value):
    old = getattr(obj, attr)
    setattr(obj, attr, value)
    try:
        yield
    finally:
        setattr(obj, attr, old)


def wrong(fn, corrupt):
    return lambda *args, **kwargs: corrupt(fn(*args, **kwargs))


def off_by_one(comparison):
    comparison.o_gl += 1
    return comparison


INJECTIONS = {
    "campaign": (orbital, "fl_compare", off_by_one),
    "deep": (orbital, "fl_compare", off_by_one),
    "oracle": (orbital, "orbital_oracle", lambda v: v + 1),
    "weil": (weil, "fourier_order_four_check", lambda ok: False),
}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name, value in TINY.items():
        setattr(workloads, name, value)
    run.MIN_ANSWERED = 2
    for w in spec["workloads"]:
        name = w["name"]
        code, res = bench(name, 0)
        assert code == 0 and res["correct"], f"{name}: untraced run failed"
        check_metrics(spec["end_to_end"], res, f"{name} trace 0")
        code, first = bench(name, 1)
        assert code == 0 and first["correct"], f"{name}: traced run failed"
        check_metrics(spec["per_layer"], first, f"{name} trace 1")
        _, second = bench(name, 1)
        for metric, v in first["metrics"].items():
            if any(key in metric for key in DETERMINISTIC):
                assert v == second["metrics"][metric], f"{name}: {metric} not repeatable"
        module, attr, corrupt = INJECTIONS[name]
        with patched(module, attr, wrong(getattr(module, attr), corrupt)):
            code, res = bench(name, 0)
        assert code == 1 and res["correct"] is False, f"{name}: wrong answer not caught"
        print(f"PASS {name}: metrics, units, repeatable counts, wrong answer caught")

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, "bare directory ran"
    print("PASS bare directory: exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
