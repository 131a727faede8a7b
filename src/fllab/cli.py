"""fl-lab: command-line driver for verification campaigns and ad-hoc runs.

Subcommands: verify, orbit, invariants, represent, fourier-check, lemma1.
Exit codes: 0 success, 1 mathematical mismatch / failed identity,
2 usage or parse error, 3 precision failures.

Reports are deterministic for a fixed configuration (timestamp and
per-sample runtimes excluded); per-sample RNG streams are derived from
(seed, index), so sample i does not depend on execution order.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .errors import (
    ExplosionGuard,
    FLLabError,
    NoHermitianOrbit,
    NotRss,
    PrecisionExhausted,
)
from .geometry import (
    GlnElement,
    HnElement,
    InvariantPoint,
    block_q,
    gl_representative,
    invariants_of,
    is_rss,
    sample_hermitian,
    sample_matched_pair,
    u_representative,
)
from .linalg import Matrix
from .orbital import fl_compare, lemma1_check, orbital_gl_unit, orbital_oracle, orbital_u_unit
from .padic import FieldConfig, format_scalar, parse_scalar, smallest_nonresidue
from .weil import fourier_order_four_check, sl2_relation_check, unit_selfdual_check

DEFAULT_PRECISION = 48


@dataclass
class RunConfig:
    n: int = 2
    p: int = 3
    u: int | None = None
    samples: int = 100
    seed: int = 0
    height: int = 50
    precision: int = DEFAULT_PRECISION
    explosion_bound: int = 12
    vanishing_fraction: float = 0.2
    out: str | None = None
    csv: str | None = None
    level: int = 1
    trials: int = 10
    oracle: bool = False
    side: str = "u"
    input: str | None = None

    def field_config(self) -> FieldConfig:
        u = self.u if self.u is not None else smallest_nonresidue(self.p)
        return FieldConfig(self.p, u, self.precision)


def _child_rng(seed: int, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _sample_vanishing_point(n, cfg, height, rng) -> InvariantPoint:
    """An rss point with odd Hankel valuation (no hermitian orbit above it)."""
    for _ in range(2000):
        rows = [
            [Fraction(rng.randint(-height, height), cfg.p ** rng.choice((0, 1)))
             for _ in range(n)]
            for _ in range(n)
        ]
        y = GlnElement(Matrix.from_rows(cfg, rows))
        if not is_rss(y):
            continue
        a = invariants_of(y)
        if not a.hermitian_exists():
            return a
    raise FLLabError("could not sample a vanishing point")


def _run_one_sample(index: int, cfg, args: RunConfig):
    rng = _child_rng(args.seed, index)
    period = round(1 / args.vanishing_fraction) if args.vanishing_fraction > 0 else 0
    inject = period > 0 and index % period == 0
    if inject:
        a = _sample_vanishing_point(args.n, cfg, max(args.height, 8), rng)
    else:
        _, _, a = sample_matched_pair(args.n, cfg, args.height, rng)
    comp = fl_compare(a, bound_exp=args.explosion_bound)
    return a, comp


def cmd_verify(args: RunConfig) -> int:
    cfg = args.field_config()
    samples = []
    mismatches = 0
    precision_failures = 0
    explosion_skips = 0
    for index in range(args.samples):
        t0 = time.perf_counter()
        record = {"index": index}
        try:
            a, comp = _run_one_sample(index, cfg, args)
            record.update(
                invariants=a.to_json_dict(),
                o_u=comp.o_u,
                o_gl=comp.o_gl,
                hermitian_exists=comp.hermitian_exists,
                equal=comp.equal,
            )
            if not comp.equal:
                mismatches += 1
        except PrecisionExhausted as exc:
            precision_failures += 1
            record.update(error="precision", message=str(exc), equal=None)
        except ExplosionGuard as exc:
            explosion_skips += 1
            record.update(error="explosion", message=str(exc), equal=None)
        record["runtime_ms"] = round(1000 * (time.perf_counter() - t0), 3)
        samples.append(record)
    report = {
        "meta": _meta(cfg, args),
        "samples": samples,
        "summary": {
            "total": args.samples,
            "mismatches": mismatches,
            "precision_failures": precision_failures,
            "explosion_skips": explosion_skips,
        },
    }
    _emit_report(report, args)
    if mismatches:
        return 1
    if precision_failures:
        return 3
    return 0


def _meta(cfg: FieldConfig, args: RunConfig) -> dict:
    return {
        "p": cfg.p,
        "u": cfg.u,
        "n": args.n,
        "seed": args.seed,
        "precision": cfg.precision,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _emit_report(report: dict, args: RunConfig):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["index", "o_u", "o_gl", "hermitian_exists", "equal", "runtime_ms", "error"]
            )
            for rec in report["samples"]:
                writer.writerow([
                    rec.get("index"), rec.get("o_u"), rec.get("o_gl"),
                    rec.get("hermitian_exists"), rec.get("equal"),
                    rec.get("runtime_ms"), rec.get("error", ""),
                ])


# ----------------------------------------------------------------------
# matrix / invariants I/O


def load_matrix(path: str, precision: int):
    with open(path) as fh:
        obj = json.load(fh)
    p = int(obj["p"])
    u = int(obj.get("u", smallest_nonresidue(p)))
    cfg = FieldConfig(p, u, precision)
    n = int(obj["n"])
    side = obj.get("side", "gl")
    entries = obj["entries"]
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError("entries must be an n x n array of strings")
    if side == "u":
        rows = [[parse_scalar(s, cfg, quad=True) for s in row] for row in entries]
        elt = HnElement(Matrix(cfg, rows))
    else:
        rows = [[parse_scalar(s, cfg, quad=False) for s in row] for row in entries]
        elt = GlnElement(Matrix(cfg, rows))
    return elt, side, cfg


def matrix_to_json(elt, side: str, cfg: FieldConfig) -> dict:
    n = elt.n
    entries = [[format_scalar(elt.mat[i, j]) for j in range(n)] for i in range(n)]
    return {"p": cfg.p, "u": cfg.u, "n": n, "side": side, "entries": entries}


def cmd_orbit(args: RunConfig) -> int:
    elt, side, cfg = load_matrix(args.input, args.precision)
    if args.side and args.side != side:
        print(f"note: file says side={side}, flag says side={args.side}; using flag",
              file=sys.stderr)
        side = args.side
    if not is_rss(elt):
        print("error: not relatively regular semi-simple", file=sys.stderr)
        return 1
    if side == "u":
        res = orbital_u_unit(elt, args.explosion_bound)
    else:
        res = orbital_gl_unit(elt, args.explosion_bound)
    out = {
        "side": side,
        "value": res.value,
        "lattice_count": res.lattice_count,
    }
    if res.omega is not None:
        out["omega"] = res.omega
    if args.oracle:
        oracle = orbital_oracle(side, elt)
        out["oracle"] = oracle
        out["oracle_agrees"] = oracle == res.value
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_invariants(args: RunConfig) -> int:
    elt, side, cfg = load_matrix(args.input, args.precision)
    a = invariants_of(elt)
    out = a.to_json_dict()
    out["rss"] = a.is_rss()
    if a.n >= 2:
        out["q"] = format_scalar(a.q())
    if out["rss"]:
        out["hermitian_exists"] = a.hermitian_exists()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_represent(args: RunConfig) -> int:
    with open(args.input) as fh:
        obj = json.load(fh)
    cfg = FieldConfig(args.p, args.u if args.u is not None else
                      smallest_nonresidue(args.p), args.precision)
    a = InvariantPoint.from_json_dict(obj, cfg)
    try:
        if args.side == "u":
            elt = u_representative(a)
        else:
            elt = gl_representative(a)
    except NoHermitianOrbit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotRss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not invariants_of(elt).agrees(a):
        print("error: representative failed its round-trip check", file=sys.stderr)
        return 3
    print(json.dumps(matrix_to_json(elt, args.side, cfg), indent=2, sort_keys=True))
    return 0


def cmd_fourier_check(args: RunConfig) -> int:
    cfg = args.field_config()
    level = (args.level, args.level)
    results = {
        "unit_selfdual": unit_selfdual_check(cfg, args.n),
        "order_four": fourier_order_four_check(cfg, args.n, level, args.trials, args.seed),
        "sl2_relations": sl2_relation_check(cfg, args.n, level, args.trials, args.seed + 1),
    }
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0 if all(results.values()) else 1


def cmd_lemma1(args: RunConfig) -> int:
    cfg = args.field_config()
    rng = _child_rng(args.seed, 0)
    done = 0
    failures = 0
    attempts = 0
    records = []
    while done < args.samples:
        attempts += 1
        if attempts > 200 * args.samples:
            print("error: sampling exhausted", file=sys.stderr)
            return 3
        x = sample_hermitian(args.n, cfg, args.height, rng)
        if not is_rss(x):
            continue
        q = block_q(x)
        if q.is_zero_at_precision() or q.valuation() != 0:
            continue
        try:
            rep = lemma1_check(x, args.explosion_bound)
        except NotRss:
            continue
        records.append({
            "index": done,
            "eq_u": rep.eq_u,
            "eq_gl": rep.eq_gl,
            "o_u": rep.o_u,
            "o_gl": rep.o_gl,
            "lambda_integral": rep.lam_integral,
        })
        if not rep.ok:
            failures += 1
        done += 1
    report = {
        "meta": _meta(cfg, args),
        "samples": records,
        "summary": {"total": done, "failures": failures},
    }
    _emit_report(report, args)
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fl-lab",
        description="verification lab for unitary vs. general-linear orbital integral matching",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_samples=True):
        sp.add_argument("--p", type=int, default=3)
        sp.add_argument("--u", type=int, default=None)
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--precision", type=int, default=None)
        sp.add_argument("--explosion-bound", type=int, default=12, dest="explosion_bound")
        sp.add_argument("--height", type=int, default=50)
        sp.add_argument("--out", default=None)
        sp.add_argument("--csv", default=None)
        if with_samples:
            sp.add_argument("--samples", type=int, default=100)

    sp = sub.add_parser("verify", help="randomized matching campaign")
    add_common(sp)
    sp.add_argument("--vanishing-fraction", type=float, default=0.2,
                    dest="vanishing_fraction")

    sp = sub.add_parser("orbit", help="one orbital integral from a matrix file")
    add_common(sp, with_samples=False)
    sp.add_argument("--side", choices=("u", "gl"), required=True)
    sp.add_argument("--input", required=True)
    sp.add_argument("--oracle", action="store_true")

    sp = sub.add_parser("invariants", help="invariant tuple of a matrix file")
    add_common(sp, with_samples=False)
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("represent", help="representative matrix from invariants")
    add_common(sp, with_samples=False)
    sp.add_argument("--side", choices=("u", "gl"), required=True)
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("fourier-check", help="transform and SL2-relation identities")
    add_common(sp, with_samples=False)
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--trials", type=int, default=10)

    sp = sub.add_parser("lemma1", help="descent identities at unit q")
    add_common(sp)
    return parser


def _resolve_precision(ns) -> int:
    if getattr(ns, "precision", None) is not None:
        return ns.precision
    env = os.environ.get("FLLAB_PRECISION")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError("FLLAB_PRECISION must be an integer")
    return DEFAULT_PRECISION


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args = RunConfig(
            n=getattr(ns, "n", 2),
            p=getattr(ns, "p", 3),
            u=getattr(ns, "u", None),
            samples=getattr(ns, "samples", 100),
            seed=getattr(ns, "seed", 0),
            height=getattr(ns, "height", 50),
            precision=_resolve_precision(ns),
            explosion_bound=getattr(ns, "explosion_bound", 12),
            vanishing_fraction=getattr(ns, "vanishing_fraction", 0.2),
            out=getattr(ns, "out", None),
            csv=getattr(ns, "csv", None),
            level=getattr(ns, "level", 1),
            trials=getattr(ns, "trials", 10),
            oracle=getattr(ns, "oracle", False),
            side=getattr(ns, "side", None),
            input=getattr(ns, "input", None),
        )
        args.field_config()  # validate p, u, precision before any work
    except (ValueError, FLLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "verify": cmd_verify,
        "orbit": cmd_orbit,
        "invariants": cmd_invariants,
        "represent": cmd_represent,
        "fourier-check": cmd_fourier_check,
        "lemma1": cmd_lemma1,
    }
    try:
        return handlers[ns.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"error: precision exhausted: {exc}", file=sys.stderr)
        return 3
    except FLLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
