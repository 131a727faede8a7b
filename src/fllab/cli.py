"""fl-lab: command-line driver for verification campaigns and ad-hoc runs.

Subcommands: verify, orbit, invariants, represent, fourier-check, lemma1.
Exit codes: 0 success, 1 mathematical mismatch / failed identity,
2 usage or parse error (sampling exhausted included: the options admit no
sample), 3 precision exhausted (represent and lemma1 only), 4 refused: the
lattices to enumerate exceed --explosion-bound, or the oracle does not
support the input (verify records an oversized sample and goes on).

Every input is an exact rational, and verify, orbit and invariants compute
exactly: a matrix file that is not exactly hermitian is refused, not rounded.
p-adic truncation enters only where a square root is taken, in the norm
equations of represent --side u and lemma1, so only those two read
--precision (or FLLAB_PRECISION): the number of digits such a root keeps.

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
from fractions import Fraction

from . import __version__
from .errors import (
    ExplosionGuard,
    FLLabError,
    NoHermitianOrbit,
    NotRss,
    OracleTooLarge,
    PrecisionExhausted,
    SamplingExhausted,
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


def field_config(args: argparse.Namespace) -> FieldConfig:
    u = args.u if args.u is not None else smallest_nonresidue(args.p)
    return FieldConfig(args.p, u, getattr(args, "precision", DEFAULT_PRECISION))


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
    raise SamplingExhausted("could not sample a vanishing point")


def _run_one_sample(index: int, cfg, args: argparse.Namespace):
    rng = _child_rng(args.seed, index)
    period = round(1 / args.vanishing_fraction) if args.vanishing_fraction > 0 else 0
    inject = period > 0 and index % period == 0
    if inject:
        a = _sample_vanishing_point(args.n, cfg, max(args.height, 8), rng)
    else:
        _, _, a = sample_matched_pair(args.n, cfg, args.height, rng)
    comp = fl_compare(a, bound_exp=args.explosion_bound)
    return a, comp


def cmd_verify(args: argparse.Namespace) -> int:
    if not 0 <= args.vanishing_fraction <= 1:
        raise ValueError("--vanishing-fraction must lie in [0, 1]")
    if args.n == 1 and args.vanishing_fraction:
        # every rss point of size 1 has a hermitian preimage
        raise ValueError("--n 1 has no vanishing points: pass --vanishing-fraction 0")
    cfg = field_config(args)
    samples = []
    mismatches = 0
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
            "explosion_skips": explosion_skips,
        },
    }
    _emit_report(report, args)
    return 1 if mismatches else 0


def _meta(cfg: FieldConfig, args: argparse.Namespace) -> dict:
    return {
        "p": cfg.p,
        "u": cfg.u,
        "n": args.n,
        "seed": args.seed,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def _emit_report(report: dict, args: argparse.Namespace):
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


def load_matrix(path: str):
    with open(path) as fh:
        obj = json.load(fh)
    p = int(obj["p"])
    u = int(obj.get("u", smallest_nonresidue(p)))
    cfg = FieldConfig(p, u)
    n = int(obj["n"])
    side = obj.get("side", "gl")
    if side not in ("u", "gl"):
        raise ValueError(f"side must be u or gl, not {side!r}")
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
    if side == "u":
        # truncated digits are written as exact numbers, and a file is read as
        # exact: write an exactly hermitian matrix, sigma of the written upper
        # triangle below the diagonal, and the F-part on it
        for i in range(n):
            entries[i][i] = format_scalar(elt.mat[i, i].f_part())
            for j in range(i):
                entries[i][j] = format_scalar(parse_scalar(entries[j][i], cfg, quad=True).sigma())
    return {"p": cfg.p, "u": cfg.u, "n": n, "side": side, "entries": entries}


def cmd_orbit(args: argparse.Namespace) -> int:
    elt, side, cfg = load_matrix(args.input)
    if args.side and args.side != side:
        print(f"note: file says side={side}, flag says side={args.side}; using flag",
              file=sys.stderr)
        side = args.side
    if not is_rss(elt):
        print("error: not relatively regular semi-simple", file=sys.stderr)
        return 1
    oracle = orbital_oracle(side, elt, args.explosion_bound) if args.oracle else None
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
        out["oracle"] = oracle
        out["oracle_agrees"] = oracle == res.value
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    elt, side, cfg = load_matrix(args.input)
    a = invariants_of(elt)
    out = a.to_json_dict()
    out["rss"] = a.is_rss()
    if a.n >= 2:
        out["q"] = format_scalar(a.q())
    if out["rss"]:
        out["hermitian_exists"] = a.hermitian_exists()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_represent(args: argparse.Namespace) -> int:
    with open(args.input) as fh:
        obj = json.load(fh)
    cfg = field_config(args)
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


def cmd_fourier_check(args: argparse.Namespace) -> int:
    if args.level < 0:
        print("error: level must be non-negative", file=sys.stderr)
        return 2
    cfg = field_config(args)
    level = (args.level, args.level)
    results = {
        "unit_selfdual": unit_selfdual_check(cfg, args.n, level),
        "order_four": fourier_order_four_check(cfg, args.n, level, args.trials, args.seed),
        "sl2_relations": sl2_relation_check(cfg, args.n, level, args.trials, args.seed + 1),
    }
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0 if all(results.values()) else 1


def cmd_lemma1(args: argparse.Namespace) -> int:
    cfg = field_config(args)
    rng = _child_rng(args.seed, 0)
    done = 0
    failures = 0
    attempts = 0
    records = []
    while done < args.samples:
        attempts += 1
        if attempts > 200 * args.samples:
            raise SamplingExhausted("no unit-q rss sample found")
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
        "meta": dict(_meta(cfg, args), precision=cfg.precision),
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

    # each subcommand registers only the options it reads; --out and --csv are paths
    ints = {"--p": 3, "--u": None, "--n": 2, "--seed": 0, "--explosion-bound": 12,
            "--height": 50, "--samples": 100, "--precision": None}
    campaign = ("--p", "--u", "--n", "--seed", "--explosion-bound", "--height", "--samples",
                "--out", "--csv")
    helps = {"--precision": "p-adic digits kept by the square roots that represent --side u "
                            f"and lemma1 take (default {DEFAULT_PRECISION}, or FLLAB_PRECISION)"}

    def add_common(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, type=int if flag in ints else str, default=ints.get(flag),
                            help=helps.get(flag))

    sp = sub.add_parser("verify", help="randomized matching campaign")
    add_common(sp, *campaign)
    sp.add_argument("--vanishing-fraction", type=float, default=0.2,
                    dest="vanishing_fraction")

    sp = sub.add_parser("orbit", help="one orbital integral from a matrix file")
    add_common(sp, "--explosion-bound")
    sp.add_argument("--side", choices=("u", "gl"),
                    help="read the matrix as this side (default: the side the file gives)")
    sp.add_argument("--input", required=True)
    sp.add_argument("--oracle", action="store_true")

    sp = sub.add_parser("invariants", help="invariant tuple of a matrix file")
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("represent", help="representative matrix from invariants")
    add_common(sp, "--p", "--u", "--precision")
    sp.add_argument("--side", choices=("u", "gl"), required=True)
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("fourier-check", help="transform and SL2-relation identities")
    add_common(sp, "--p", "--u", "--n", "--seed")
    sp.add_argument("--level", type=int, default=1)
    sp.add_argument("--trials", type=int, default=10)

    sp = sub.add_parser("lemma1", help="descent identities at unit q")
    add_common(sp, *campaign, "--precision")
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
        # validate p, u, precision and the integer options, where registered,
        # before any work
        if "precision" in ns:
            ns.precision = _resolve_precision(ns)
        if "p" in ns:
            field_config(ns)
        for name, least in (("samples", 1), ("trials", 1), ("height", 1),
                            ("explosion_bound", 0)):
            if getattr(ns, name, least) < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {least}")
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
        return handlers[ns.command](ns)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"error: precision exhausted: {exc}", file=sys.stderr)
        return 3
    except SamplingExhausted as exc:
        print(f"error: sampling exhausted: {exc}", file=sys.stderr)
        return 2
    except (ExplosionGuard, OracleTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FLLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
