"""steincalc benchmark: seeded closed-loop workloads with output checks.

Usage (from the repository root):

    python3 bench/run.py --workload desk|trees|families --seed N --seconds S --trace 0|1

One client issues the next op when the last returns.  Each run does an
untimed warm-up round, then whole rounds until ``--seconds`` of call time
have passed and at least MIN_OPS ops ran.  The warm-up round is the same
for every ``--seed``: it is generated from PINNED_SEED, and its outputs
must match the digests recorded in digests.json (``--record`` re-pins
them).  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs
the same rounds twice, untraced and then with spans around every public
function of the program, and reports per-layer self times.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Times count only the calls into the program, not the untimed checks
between them.  A shared host's speed drifts by tens of percent within a
run and between runs, so every timing is given at reference speed: after
each CAL_EVERY_S of op time the runner times ``calibrate()``, a fixed piece
of interpreter work of the kind the program does (Fractions, big integers,
dicts, lists), and scales each op's latency by REF_S over the median of the
CAL_NEAREST samples nearest it in time.  A change to the program moves the
scaled times in full; a slower or faster host moves the samples too, which
cancels most of its effect.  The raw figures are printed beside the scaled
ones.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

STALL_LIMIT_S = 30.0  # ~10x the slowest op any seed completes (a genus-5 report)
MIN_OPS = 100  # so at least 10 samples lie beyond p90
SETUP_REPEATS = 15
DIGESTS = BENCH / "digests.json"
PINNED_SEED = 1  # seed of the warm-up round, whose output digests are pinned
CAL_EVERY_S = 0.1  # op time between two calibrate() samples
CAL_NEAREST = 9  # calibrate() samples whose median scales an op or an import
REF_S = 0.002  # nominal calibrate() time: scaled times are those of a host where it takes 2 ms

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import steincalc.cli\n"
    "print(time.perf_counter() - t)\n"
)


class Stall(BaseException):
    """An op ran past the stall guard.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise Stall()


def calibrate():
    """Fixed interpreter work, timed to track the host's speed."""
    for _ in range(5):
        acc, big, memo = Fraction(0), 1, {}
        for i in range(1, 120):
            acc += Fraction((-1) ** i, i)
            big = big * 3 + i
            memo[(i % 11, i % 13)] = [x * i for x in range(8)]
    return acc, big, memo


def time_calibrate() -> float:
    """Seconds for one calibrate(), with the collector off.

    A collection would walk the program's live objects, so the sample
    would depend on the program's heap rather than only on the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        calibrate()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def measure_setup() -> tuple:
    """Median time for a fresh interpreter to import steincalc.cli, scaled and raw.

    The first import is untimed: it compiles the bytecode caches.  Each
    timed import is scaled by the median of CAL_NEAREST calibrate() samples
    taken just before it.
    """
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        ref = statistics.median(time_calibrate() for _ in range(CAL_NEAREST))
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            raw.append(float(out.stdout))
            scaled.append(raw[-1] * REF_S / ref)
    return statistics.median(scaled), statistics.median(raw)


def digest(content) -> str:
    text = json.dumps(content, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Phase:
    """Runs rounds of ops in a closed loop and records each op's outcome."""

    def __init__(self, pinned=None, tracer=None):
        self.pinned = pinned or []  # recorded digests, in op order
        self.tracer = tracer
        self.latencies = []  # seconds per attempted op; a failed op counts at least the stall limit
        self.starts = []  # perf_counter() at each op's start
        self.ok = []  # whether each op passed
        self.cal = []  # (perf_counter() at start, seconds) of each calibrate() sample
        self._since_cal = float("inf")  # op time since the last sample
        self.busy_s = 0.0  # time spent inside op calls
        self.failed = 0
        self.wrong = 0
        self.digests = []
        self.props = []
        self.errors = []
        self.rounds = 0

    @property
    def attempted(self):
        return len(self.latencies)

    def run_op(self, op):
        if self._since_cal >= CAL_EVERY_S:
            self.cal.append((perf_counter(), time_calibrate()))
            self._since_cal = 0.0
        signal.setitimer(signal.ITIMER_REAL, STALL_LIMIT_S)
        start = perf_counter()
        try:
            out = op.call()
            error = None
        except Stall:
            error = "stall"
        except Exception as exc:  # the program raised: a failed op, not a harness crash
            error = f"raised {type(exc).__name__}: {exc}"
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        if self.tracer is not None:
            self.tracer.end_op()
        self.busy_s += elapsed
        self._since_cal += elapsed
        self.starts.append(start)
        if error is None:
            try:
                d = digest(op.check(out))
                index = len(self.digests)
                if index < len(self.pinned) and self.pinned[index] != d:
                    error = f"digest {d} != recorded {self.pinned[index]}"
                self.digests.append(d)
            except Exception as exc:  # a malformed output is a wrong output
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.wrong += error != "stall"
            self.errors.append(f"{op.kind}: {error}")
            elapsed = max(elapsed, STALL_LIMIT_S)
        self.ok.append(error is None)
        self.latencies.append(elapsed)
        self.props.append((op.kind, op.props, elapsed))

    def run(self, stream, seconds=None, rounds=None):
        while True:
            if rounds is not None and self.rounds >= rounds:
                break
            if rounds is None and self.busy_s >= seconds and self.attempted >= MIN_OPS:
                break
            for op in next(stream):
                self.run_op(op)
            self.rounds += 1
        return self.rounds

    def scaled_latencies(self) -> list:
        """Each passed op's latency at reference speed; failed ops keep theirs."""
        times = [t for t, _ in self.cal]
        out = []
        for start, elapsed, ok in zip(self.starts, self.latencies, self.ok):
            i = bisect.bisect(times, start)
            lo = max(0, min(i - CAL_NEAREST // 2, len(times) - CAL_NEAREST))
            ref = statistics.median(r for _, r in self.cal[lo : lo + CAL_NEAREST])
            out.append(elapsed * REF_S / ref if ok else elapsed)
        return out


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(phase: Phase, setup_s: float, scaled=True) -> dict:
    """The end-to-end metrics; ``scaled=False`` gives the raw figures."""
    latencies = phase.scaled_latencies() if scaled else phase.latencies
    ms = [1000.0 * x for x in latencies]
    return {
        "ops_per_s": ((phase.attempted - phase.failed) / sum(latencies), "1/s"),
        "op_p50_ms": (percentile(ms, 50), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def describe_inputs(props) -> list:
    """Per-kind op counts, median latency and the range of each input property."""
    kinds = {}
    for kind, p, elapsed in props:
        kinds.setdefault(kind, []).append((p, elapsed))
    lines = []
    for kind, rows in sorted(kinds.items()):
        parts = [f"{kind}: {len(rows)} ops, median {1000 * statistics.median(e for _, e in rows):.2f} ms"]
        for key in sorted({k for p, _ in rows for k in p}):
            vals = [p[key] for p, _ in rows if key in p]
            if all(isinstance(v, bool) for v in vals):
                parts.append(f"{key} {sum(vals)}/{len(vals)}")
            elif all(isinstance(v, (int, float)) for v in vals):
                parts.append(f"{key} {min(vals)}..{max(vals)}")
            else:
                parts.append(f"{key} {len({json.dumps(v) for v in vals})} distinct")
        lines.append("  " + ", ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "trees", "families"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="pin the warm-up round's output digests")
    args = parser.parse_args(argv)

    if not (SRC / "steincalc" / "__init__.py").is_file():
        print(f"error: no steincalc sources under {SRC}", file=sys.stderr)
        return 2
    setup_s, setup_raw = measure_setup() if args.trace == 0 and not args.record else (0.0, 0.0)
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    signal.signal(signal.SIGALRM, _on_alarm)
    pinned_all = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pinned = pinned_all.get(args.workload, [])

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup = Phase([] if args.record else pinned)
        warmup.run(workloads.rounds(args.workload, PINNED_SEED, workdir, warmup=True), rounds=1)
        if args.record:
            if warmup.failed:
                print("\n".join(warmup.errors), file=sys.stderr)
                return 1
            pinned_all[args.workload] = warmup.digests
            DIGESTS.write_text(json.dumps(pinned_all, indent=1, sort_keys=True) + "\n")
            return 0
        if warmup.attempted != len(pinned):
            print(f"error: digests.json pins {len(pinned)} {args.workload} outputs but the warm-up "
                  f"round has {warmup.attempted} ops; re-pin with --record", file=sys.stderr)
            return 1
        if args.trace == 0:
            phase = Phase()
            phase.run(workloads.rounds(args.workload, args.seed, workdir), seconds=args.seconds)
            phases = [warmup, phase]
            metrics = end_to_end(phase, setup_s)
            raw = end_to_end(phase, setup_raw, scaled=False)
        else:
            plain = Phase()
            rounds = plain.run(workloads.rounds(args.workload, args.seed, workdir), seconds=args.seconds / 2)
            tracer = tracing.Tracer()
            traced = Phase(tracer=tracer)
            tracer.install()
            try:
                traced.run(workloads.rounds(args.workload, args.seed, workdir), rounds=rounds)
            finally:
                tracer.restore()
            phases = [warmup, plain, traced]
            phase = traced
            metrics = tracer.metrics(traced.busy_s)
            metrics["trace.overhead"] = (traced.busy_s / plain.busy_s, "ratio")
            raw = {}
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            tracer.dump(out / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    for err in sorted({e for p in phases for e in p.errors})[:20]:
        print(f"failed op: {err}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed, "
          f"{len(pinned)} warm-up outputs checked against pinned digests")
    print(f"timed phase: {phase.attempted} ops, {phase.busy_s:.3f} s in calls; inputs:")
    print("\n".join(describe_inputs(phase.props)))
    cal = sorted(r for p in phases for _, r in p.cal)
    print(f"calibrate(): median {1000 * statistics.median(cal):.3f} ms over {len(cal)} samples "
          f"({1000 * cal[0]:.3f}..{1000 * cal[-1]:.3f}); end-to-end times are scaled to {1000 * REF_S:g} ms")
    for name, (value, unit) in metrics.items():
        note = f"  ({phase.attempted} samples)" if name.startswith("op_p") else ""
        if name in raw and unit != "MB":
            note += f"  (raw {raw[name][0]:.6g})"
        print(f"  {name:40s} {value:>16.6g} {unit}{note}")
    # fail_frac is 0 on a healthy run, so it travels as the result's
    # failed/attempted fields rather than as a metric.
    print(f"  {'fail_frac':40s} {failed / attempted:>16.6g} ratio  ({failed} of {attempted})")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
