"""fllab benchmark.

    python3 perfbench/run.py --workload <campaign|deep|oracle|weil> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout that holds the fllab sources under src/.
Closed loop, one client, one thread: the next op starts when the previous
one has returned.  Inputs come from --seed and are built during set-up; the
timed region holds only the call under test.  Every answer is checked, and a
wrong one ends the run with exit code 1.

--trace 0 prints the end-to-end metrics; --trace 1 runs the block pool once
untraced, then traced until --seconds, and prints the per-layer metrics.
End-to-end times are scaled to a reference host speed (see HostSpeed).
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# A run goes on past --seconds until this many ops are answered, so that at
# least ten of them lie beyond p90 even when the host is slow.
MIN_ANSWERED = 100
# Seconds the speed kernel takes on the reference host; scaled times read as
# if measured there.
REF_KERNEL_S = 0.001
# Host speed samples taken in a row before and after set-up.
SETUP_PROBES = 5
# After an op, one more host speed sample per this much op time, up to
# MAX_PROBES, so that a long op is scaled by the speed of the stretch it
# spans rather than of one instant.
PROBE_EVERY_S = 0.05
MAX_PROBES = 20


def speed_kernel():
    """Fixed work in the styles fllab spends its time in, without fllab."""
    s = Fraction(0)  # rational arithmetic, as in the p-adic scalars
    for i in range(1, 40):
        s += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    seen = {}  # small objects, dicts and sorting, as in the lattice walk
    acc = 0
    for i in range(500):
        acc = (acc * 31 + i) % 1000003
        seen[acc & 255] = (acc, i)
    rows = sorted(seen.values())
    a = np.arange(64, dtype=np.int64)  # small integer tables, as in weil
    t = 0
    for i in range(25):
        t += int((np.roll(a, i) * a % 7).sum())
    return s, rows, t


class HostSpeed:
    """Tracks the speed of a shared host, which swings by up to 2x, within
    fractions of a second as well as from minute to minute, and takes every
    op with it.

    ``sample`` times `speed_kernel` (best of three) outside the timed region.
    After every op comes a burst of samples, longer after a long op.  An op's
    time is scaled by REF_KERNEL_S over the mean kernel time of the bursts
    just before and just after it.  The kernel calls no fllab code, so a
    change to the program moves scaled times exactly as it moves raw ones.
    """

    def __init__(self):
        self.samples = []  # kernel seconds
        self.start = 0  # index of the first sample of the latest burst

    def sample(self):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            speed_kernel()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)

    def burst(self, count: int) -> tuple[int, int]:
        """`count` samples in a row; returns the first and last index."""
        self.start = len(self.samples)
        for _ in range(count):
            self.sample()
        return self.start, len(self.samples) - 1

    def after_op(self, seconds: float) -> int:
        """The burst after an op of `seconds`; returns its last index."""
        return self.burst(1 + min(MAX_PROBES, int(seconds / PROBE_EVERY_S)))[1]

    def factor(self, first: int, last: int) -> float:
        """Scale for a stretch measured between samples `first` and `last`."""
        return REF_KERNEL_S / statistics.fmean(self.samples[first:last + 1])


class Record:
    """Outcomes of the ops of one measured stretch."""

    def __init__(self):
        self.attempted = 0
        self.durations = []  # seconds, answered ops only
        self.elapsed = 0.0  # summed durations of every attempted op
        # (seconds, first and last host speed sample around it, answered)
        # per attempted op
        self.ops = []
        self.refused = Counter()  # exception name -> count
        self.histogram = Counter()  # checked value -> count
        self.nontrivial = 0  # answered ops with a lattice count above 1

    @property
    def answered(self) -> int:
        return len(self.durations)

    def scaled(self, speed: HostSpeed) -> list:
        """(seconds at the reference host speed, answered) per attempted op."""
        return [(dt * speed.factor(first, last), ok) for dt, first, last, ok in self.ops]


def _nontrivial(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, tuple):
        return max(abs(v) for v in value) > 1
    return abs(value) > 1


def run_op(op, rec: Record, refusals, tracer=None, speed=None):
    args = op.build()
    if tracer is not None:
        tracer.armed = True
    t0 = time.perf_counter()
    try:
        out = op.call(*args)
        refused = None
    except refusals as exc:
        out, refused = None, type(exc).__name__
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.armed = False
    if refused is None:
        value = op.check(out)  # raises WrongAnswer before the op is counted
        rec.durations.append(dt)
        rec.histogram[value] += 1
        rec.nontrivial += _nontrivial(value)
    else:
        rec.refused[refused] += 1
    rec.attempted += 1
    rec.elapsed += dt
    if speed is not None:
        rec.ops.append((dt, speed.start, speed.after_op(dt), refused is None))


def run_blocks(blocks, rec, refusals, seconds=None, tracer=None, speed=None):
    """Whole blocks in order, cycling, until the timed region reaches
    `seconds` with MIN_ANSWERED ops answered; one pass over every block when
    `seconds` is None."""
    gc.collect()
    i = 0
    while (i < len(blocks)) if seconds is None else (
            i == 0 or rec.elapsed < seconds or rec.answered < MIN_ANSWERED):
        for op in blocks[i % len(blocks)]:
            run_op(op, rec, refusals, tracer, speed)
        i += 1


def warm_up(blocks, refusals):
    """One op of each family, from the cheap end of the first block."""
    seen = set()
    rec = Record()
    for op in blocks[0]:
        if op.family not in seen:
            seen.add(op.family)
            run_op(op, rec, refusals)


def set_up(make, seed, refusals, speed):
    """Inputs and warm-up; returns the blocks and the scaled set-up time."""
    first, _ = speed.burst(SETUP_PROBES)
    t0 = time.perf_counter()
    blocks = make(seed)
    warm_up(blocks, refusals)
    dt = time.perf_counter() - t0
    _, last = speed.burst(SETUP_PROBES)
    return blocks, dt * speed.factor(first, last)


def end_to_end(rec: Record, speed: HostSpeed, setup_s: float) -> dict:
    scaled = rec.scaled(speed)
    ms = [1000 * dt for dt, ok in scaled if ok]
    return {
        "ops_per_s": (rec.answered / sum(dt for dt, _ in scaled), "ops/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "answered_ratio": (rec.answered / rec.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(blocks, refusals, seconds, speed):
    """One untraced pass over every block, then traced passes until the traced
    timed region reaches `seconds`.  Whole passes repeat the same work, so the
    per-op counts do not depend on how many passes fit."""
    import tracer as tracing

    plain = Record()
    run_blocks(blocks, plain, refusals, speed=speed)
    tr = tracing.Tracer()
    rec = Record()
    tr.install()
    try:
        while rec.attempted == 0 or rec.elapsed < seconds:
            run_blocks(blocks, rec, refusals, tracer=tr, speed=speed)
    finally:
        tr.uninstall()
    overhead = (statistics.fmean(dt for dt, _ in rec.scaled(speed))
                / statistics.fmean(dt for dt, _ in plain.scaled(speed)))
    metrics = tracing.layer_metrics(tr, rec.attempted, rec.elapsed, rec.answered,
                                    rec.nontrivial, rec.refused, overhead)
    return rec, metrics, tracing.absent_metrics(tr, metrics)


def emit(correct, rec, metrics):
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": sum(rec.refused.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fllab" / "__init__.py").is_file():
        print(f"error: no fllab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports fllab

    import_s = time.perf_counter() - _T_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    make = workloads.WORKLOADS[args.workload]
    refusals = workloads.REFUSALS
    rec = Record()
    speed = HostSpeed()
    import_s *= speed.factor(*speed.burst(SETUP_PROBES))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            blocks, dt = set_up(make, args.seed, refusals, speed)
            setups.append(dt)
        setup_s = import_s + statistics.median(setups)
        absent = []
        if args.trace:
            rec, metrics, absent = traced(blocks, refusals, args.seconds, speed)
        else:
            run_blocks(blocks, rec, refusals, args.seconds, speed=speed)
            metrics = end_to_end(rec, speed, setup_s)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        emit(False, rec, {})
        return 1
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "answered": rec.answered,
        "refused": dict(rec.refused),
        "histogram": {str(k): v for k, v in sorted(rec.histogram.items(), key=str)},
        "absent": absent,
        "raw_op_s": rec.elapsed,
        "host_speed": [round(REF_KERNEL_S / x, 3) for x in
                       statistics.quantiles(speed.samples, n=4)[::-1]],
    }))
    emit(True, rec, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
