"""Benchmark of steinalg: seeded closed-loop workloads, end-to-end metrics,
and a traced run for per-layer metrics.

    python3 perfbench/run.py                          # every workload in turn
    python3 perfbench/run.py --workload certify --seed 1 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy.  Each workload runs in a
process of its own with one client on one thread: the next op starts when
the previous one has returned and been checked.  A run repeats whole
rounds of the workload's ops until ``--seconds`` have passed, so every run
has the same op mix, and until enough rounds have run for ten samples to
lie beyond the tail percentile.  Untraced, every op and set-up build is
timed between two runs of a fixed calibration loop and scaled to a reference
speed of the machine (see ``speed_scale``).  The last line of output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics and ``--trace 1``
the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("certify", "dense-mul", "parse-deep")
# Set-up is short (0.2-0.5 s a build), so it is taken over enough builds
# to span several seconds of the machine's speed.
SETUP_REPEATS = 15
# A shared virtual machine runs a fixed piece of Python at speeds that swing
# by 1.5-2x, within seconds and over minutes.  Every timed op and build is
# therefore bracketed by a fixed calibration loop, and its time is scaled by
# REFERENCE_CALIBRATION_S over the loop's time around it: the time the op
# would have taken at the speed at which the loop takes the reference time.
CALIBRATION_LOOPS = 100_000
REFERENCE_CALIBRATION_S = 0.010

# Every end-to-end metric, in print order, with its unit.  failed_ops_ratio
# is also carried by the result's "attempted" and "failed" counts.
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("failed_ops_ratio", "ratio"),
              ("peak_rss_mib", "MiB"))
# failed_ops_ratio is 0 when the program is correct, and a metric that is
# always 0 has no spread to bound, so the JSON result leaves it out.
REPORTED = tuple(name for name, _ in END_TO_END if name != "failed_ops_ratio")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import steinalg from this checkout's src/, or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        import steinalg
    except ImportError as exc:
        sys.exit("error: cannot import steinalg from %s: %s" % (SRC, exc))
    where = os.path.abspath(steinalg.__file__)
    if not where.startswith(SRC + os.sep):
        sys.exit("error: imported steinalg from %s, not from %s" % (where, SRC))


def calibration_kernel():
    """Fixed integer arithmetic that touches no program state and allocates
    nothing the garbage collector tracks, so its time measures only the
    speed the machine gives the process."""
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s += i * i % 7
    return s


def calibrate():
    """Seconds one calibration loop takes now."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def speed_scale(before, after):
    """The factor that takes a time measured between two calibrations to the
    reference speed."""
    return 2.0 * REFERENCE_CALIBRATION_S / (before + after)


@dataclass
class Measurement:
    rounds: list = field(default_factory=list)       # per round, seconds per op
    scales: list = field(default_factory=list)       # per round, speed scale per op
    round_walls: list = field(default_factory=list)  # seconds, one per round
    failed: int = 0
    first_failure: str = ""

    @property
    def attempted(self):
        return sum(len(r) for r in self.rounds)

    def latencies(self):
        """Every op's latency in seconds at the reference speed."""
        return [x * k for r, ks in zip(self.rounds, self.scales) for x, k in zip(r, ks)]

    def absorb(self, other):
        self.rounds += other.rounds
        self.scales += other.scales
        self.round_walls += other.round_walls
        self.failed += other.failed
        self.first_failure = self.first_failure or other.first_failure


def measure(ops, seconds, min_rounds=1, tracer=None, calibrated=False):
    """Run whole rounds of ops until ``seconds`` have passed and at least
    ``min_rounds`` rounds have run.

    An op fails when it raises or its check rejects its output; its latency
    counts either way.  Only ``op.run`` is inside the latency; the check
    runs between ops.  With ``calibrated``, a calibration loop runs before
    the first op of a round and after every op, and each op's speed scale
    comes from the loops on either side of it; otherwise every scale is 1.
    """
    clock = time.perf_counter
    speed = calibrate if calibrated else (lambda: REFERENCE_CALIBRATION_S)
    m = Measurement()
    start = clock()
    while True:
        round_start = clock()
        latencies, scales = [], []
        before = speed()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.start_op()
            t0 = clock()
            try:
                out = op.run()
                t1 = clock()
                after = speed()
                ok = op.check(out)
                why = "output failed its check"
            except Exception:
                t1 = clock()
                after = speed()
                ok = False
                why = traceback.format_exc()
            latencies.append(t1 - t0)
            scales.append(speed_scale(before, after))
            before = after
            if not ok:
                m.failed += 1
                if not m.first_failure:
                    m.first_failure = "%s op %d: %s" % (op.kind, i, why)
        end = clock()
        m.rounds.append(latencies)
        m.scales.append(scales)
        m.round_walls.append(end - round_start)
        if end - start >= seconds and len(m.rounds) >= min_rounds:
            return m


def harrell_davis(values, pct):
    """The Harrell-Davis estimate of the pct-th percentile.

    It is a mean of all order statistics weighted by the beta distribution
    of that percentile's rank, so it moves smoothly with every sample
    instead of jumping between the one or two that straddle the percentile.
    On a mix of ops whose costs differ tenfold, and a machine whose speed
    drifts, a single order statistic follows the noise of those few ops.
    """
    xs = sorted(values)
    n = len(xs)
    p = pct / 100.0
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 200 * n
    # Midpoint rule for the beta density over each rank's share of [0, 1].
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((k + 0.5) / steps for k in range(steps))]
    top = max(logs)
    weights = [0.0] * n
    for k, log_density in enumerate(logs):
        weights[k * n // steps] += math.exp(log_density - top)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def quartiles(xs):
    """(first quartile, median, third quartile); one value is all three."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def min_tail_rounds(n_ops, tail_pct):
    """Rounds that put at least 10 samples beyond the tail percentile."""
    beyond = math.floor(n_ops * (1 - tail_pct / 100.0))
    return math.ceil(10 / beyond) if beyond else 1


def end_to_end(m, setup_times, tail_pct):
    """Every end-to-end metric as {name: value}, plus the tail's sample note."""
    latencies = m.latencies()
    tail = harrell_davis(latencies, tail_pct)
    beyond = sum(1 for x in latencies if x > tail)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": m.attempted / sum(latencies),
        "op_p50_ms": 1000.0 * harrell_davis(latencies, 50.0),
        "op_tail_ms": 1000.0 * tail,
        "failed_ops_ratio": m.failed / m.attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = "p%g of %d ops in %d rounds, %d beyond" % (
        tail_pct, len(latencies), len(m.rounds), beyond)
    return values, note


def set_up(workload, seed, size, workdir):
    """Build the inputs SETUP_REPEATS times, each ending with one warm-up op
    and bracketed by calibration loops; returns the last round, every
    set-up time and every build's speed scale."""
    times, scales = [], []
    before = calibrate()
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built = workload.build(seed, size, os.path.join(workdir, "setup%d" % k))
        if not built.warmup.check(built.warmup.run()):
            raise RuntimeError("warm-up %s op failed its check" % built.warmup.kind)
        times.append(time.perf_counter() - t0)
        after = calibrate()
        scales.append(speed_scale(before, after))
        before = after
    return built, times, scales


def run_one(name, seed, seconds, trace, size):
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        for k in range(SETUP_REPEATS):
            os.mkdir(os.path.join(workdir, "setup%d" % k))
        built, raw_setup, setup_scales = set_up(workload, seed, size, workdir)
        setup_times = [t * k for t, k in zip(raw_setup, setup_scales)]
        print("workload %s: seed %d, %s size, %d ops per round, set-up %s s"
              " (unscaled %s s)"
              % (name, seed, size, len(built.ops),
                 " / ".join("%.4f" % t for t in setup_times),
                 " / ".join("%.4f" % t for t in raw_setup)))
        if not trace:
            min_rounds = (min_tail_rounds(len(built.ops), workload.tail_percentile)
                          if size == "full" else 1)
            m = measure(built.ops, seconds, min_rounds, calibrated=True)
            values, note = end_to_end(m, setup_times, workload.tail_percentile)
            units = dict(END_TO_END)
            for metric, _ in END_TO_END:
                extra = "  (%s)" % note if metric == "op_tail_ms" else ""
                print("  %s = %r %s%s" % (metric, values[metric], units[metric], extra))
            raw = [x for r in m.rounds for x in r]
            print("  unscaled: ops_per_s %.4f, op_p50_ms %.2f, op_tail_ms %.2f;"
                  " speed scale quartiles %.3f / %.3f / %.3f"
                  % ((len(raw) / sum(raw), 1000.0 * harrell_davis(raw, 50.0),
                      1000.0 * harrell_davis(raw, workload.tail_percentile))
                     + quartiles([k for ks in m.scales for k in ks])))
            metrics = {k: {"value": values[k], "unit": units[k]} for k in REPORTED}
        else:
            # Untraced and traced rounds alternate, so that a drift of the
            # machine's speed falls on both sides of the overhead ratio.
            tracer = tracing.Tracer()
            untraced, m = Measurement(), Measurement()
            start = time.perf_counter()
            while not m.rounds or time.perf_counter() - start < seconds:
                untraced.absorb(measure(built.ops, 0))
                tracer.install()
                try:
                    m.absorb(measure(built.ops, 0, tracer=tracer))
                finally:
                    tracer.uninstall()
            rounds = len(m.round_walls)
            values = tracer.layer_metrics(rounds)
            untraced_s, traced_s = sum(untraced.round_walls), sum(m.round_walls)
            values["trace.overhead_ratio"] = traced_s / untraced_s
            units = tracing.metric_units()
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "trace-%s-seed%d.json" % (name, seed))
            tracer.write(path, {"workload": name, "seed": seed, "size": size,
                                "rounds": rounds, "ops_per_round": len(built.ops)})
            print("  %d untraced rounds %.4f s, %d traced rounds %.4f s; spans in %s"
                  % (rounds, untraced_s, rounds, traced_s, os.path.relpath(path, ROOT)))
            for metric in sorted(units):
                print("  %s = %r %s" % (metric, values[metric], units[metric]))
            metrics = {k: {"value": values[k], "unit": u}
                       for k, u in sorted(units.items())}
            m.absorb(untraced)
    print("  failed %d of %d ops" % (m.failed, m.attempted))
    if m.first_failure:
        print("first failure: " + m.first_failure, file=sys.stderr)
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def run_all(args):
    """Each workload in a process of its own, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("error: workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure whole rounds until this much time has passed"
                             " (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every round, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    import_program()
    # Exit through SystemExit on SIGTERM, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run_one(args.workload, args.seed, args.seconds, args.trace, args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
