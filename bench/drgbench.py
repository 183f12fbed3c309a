"""drglab benchmark.

    python3 bench/drgbench.py --workload scan-box --seed 1 --seconds 30 --trace 0

Runs one seeded workload in-process through ``drglab.cli.main(argv)`` with
``--format json`` and ``--jobs 1``: a closed loop with one client in one
process, which sends the next op only after the previous one returned.  It
generates the run's op set from the seed (see ``drgbench_ops``), runs it in
passes for ``--seconds`` of wall time, checks every op's output (for the
default seed of ``baseline.json`` the first pass must also hash to the
output digests recorded there), and prints a metric table followed by one
JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are calibrated against the host's current speed (see
``CALIBRATION_REFERENCE_S``), so that runs on a shared host compare.

``--trace 0`` reports the end-to-end metrics of the workload; ``--trace 1``
runs the traced layer profile instead (``drgbench_layers``), which is the
same for every workload, reports the per-layer metrics, and does a fixed
amount of work (about 30 s on a 2-vCPU x86-64 VM) so that its counts
repeat exactly; ``--seconds`` does not apply to it.  ``--workload all``
runs the four workloads one after another, each in its own process, and
prefixes each metric with its workload.

The program is imported from ``src/`` next to this directory; nothing is
installed.  Without that source tree the benchmark exits 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# set-up as a user's first command pays it: import the CLI, build the
# parser and load the catalog cold, in a fresh interpreter; then the same
# interpreter times the calibration loop (see below)
SETUP_CODE = """
import time
t0 = time.perf_counter()
import contextlib, io
import drglab.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = drglab.cli.main(["catalog", "--format", "json"])
elapsed = time.perf_counter() - t0
import statistics
from drgbench import calibration
print(repr(elapsed), repr(statistics.median(calibration() for _ in range(15))), rc, drglab.__file__)
"""


def setup_seconds() -> tuple[float, float]:
    """Set-up seconds in one fresh interpreter, and the seconds of a
    calibration loop in that interpreter right after."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE)))),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    fields = done.stdout.split()
    if done.returncode != 0 or len(fields) != 4 or fields[2] != "0":
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
    if not Path(fields[3]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"set-up probe imported drglab from {fields[3]}, not {SRC}")
    return float(fields[0]), float(fields[1])


MIN_PASSES = 3

# Host-speed calibration.  The host is shared: for stretches of a minute or
# more every op, even the fastest of many passes, runs up to 1.8x slower
# than at other times, so raw wall times of runs minutes apart disagree by
# more than any useful bound.  Every timing is therefore taken between two
# runs of a fixed pure-Python loop (Fraction, int, dict and sort work, like
# the program's) and divided by their mean, and the ratio is scaled back to
# seconds by a fixed reference time of the loop.  A change to drglab moves
# the ratio; a change in host load moves both sides of it.  The figures are
# wall times on a host where the loop takes the reference time; under load,
# ops that suffer more from contention than the loop read somewhat higher.
CALIBRATION_REFERENCE_S = 1.1e-3  # calibration_loop, fastest runs on a quiet 2-vCPU x86-64 VM, Python 3.11


def calibration_loop() -> tuple:
    rng = random.Random(7)
    tally: dict[int, int] = {}
    total = Fraction(0)
    for i in range(1, 240):
        total += Fraction(rng.randrange(1, 50), i % 31 + 1)
        tally[i % 53] = tally.get(i % 53, 0) + i * i
    return total, sorted(tally.values())


def calibration() -> float:
    """Seconds of one calibration loop now."""
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def percentile(values: list[float], p: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def highest_percentile(count: int) -> float:
    """The highest of p50/p90/p99/p99.9 with at least ten of ``count``
    samples beyond it."""
    # (percentile, 1 / the share of samples beyond it)
    return max(p for p, inverse in ((50, 2), (90, 10), (99, 100), (99.9, 1000)) if p == 50 or count >= 10 * inverse)


def load_baseline() -> dict:
    """The seed-commit record: default seed, environment, output digests."""
    return json.loads((HERE / "baseline.json").read_text(encoding="utf-8"))


def measure(name: str, seed: int, seconds: float, profile=None) -> Result:
    """End-to-end metrics of one workload, tracing off.

    The run's op set (the workload's first ``set_rounds`` rounds) runs in
    passes until the next pass would end after ``seconds`` (at least
    ``MIN_PASSES``).  Each op is timed between two calibration loops; its
    sample is its wall time over their mean.  A set-up probe's sample is
    its time over the calibration loop's in the probe's interpreter.  An
    op's latency is the median of its samples over the passes times
    ``CALIBRATION_REFERENCE_S``.  Throughput and the latency percentiles
    come from those per-op times, set-up from the median probe.  The raw
    wall-clock figures are printed beside them.
    """
    import drglab.cli as cli
    from drgbench_ops import FULL, WORKLOADS, Result, check, run_op

    profile = profile or FULL
    result = Result()
    workload = WORKLOADS[name](profile)
    ops = [op for r in range(profile.set_rounds[name]) for op in workload.round(seed, r)]

    setup_seconds()  # warms the bytecode cache
    setup: list[float] = []
    setup_raw: list[float] = []

    def probe_setup() -> None:
        raw, calibrated = setup_seconds()
        setup_raw.append(raw)
        setup.append(raw / calibrated)

    samples: list[list[float]] = [[] for _ in ops]
    raw: list[list[float]] = [[] for _ in ops]
    calibrations: list[float] = []
    work = [0] * len(ops)
    digest = hashlib.sha256()
    start = time.perf_counter()
    passes = 0
    last = 0.0
    while passes < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        # set-up probes are spread over the run, between passes, so that
        # their median spans the same machine load as the ops
        if len(setup) < profile.setup_reps and time.perf_counter() - start >= len(setup) * seconds / profile.setup_reps:
            probe_setup()
        pass_start = time.perf_counter()
        before = calibration()
        for i, op in enumerate(ops):
            rc, out, elapsed, err = run_op(cli.main, op.argv)
            after = calibration()
            samples[i].append(elapsed / ((before + after) / 2))
            raw[i].append(elapsed)
            calibrations.append(before)
            before = after
            if passes == 0:
                digest.update(json.dumps([list(op.argv), rc, out]).encode())
            outcome = check(op, rc, out, err)
            work[i] = outcome.work
            result.record(op, outcome)
        passes += 1
        last = time.perf_counter() - pass_start

    while len(setup) < profile.setup_reps:
        probe_setup()

    baseline = load_baseline()
    if seed == baseline["default_seed"] and profile is FULL:
        recorded = baseline["digests"].get(name)
        if recorded != digest.hexdigest():
            result.correct = False
            print(f"drgbench: {name} output digest {digest.hexdigest()} != recorded {recorded}", file=sys.stderr)

    latencies = [CALIBRATION_REFERENCE_S * statistics.median(s) for s in samples]
    fastest = [min(s) for s in raw]
    count = len(ops) * passes
    slowdown = statistics.median(calibrations) / CALIBRATION_REFERENCE_S
    result.lines.append(f"{name}: {len(ops)} ops x {passes} passes in {time.perf_counter() - start:.1f} s")
    result.lines.append(f"  host: calibration loop at {slowdown:.3f}x its reference time (median of {len(calibrations)})")
    result.add("setup_s", CALIBRATION_REFERENCE_S * statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters")
    result.add("work_per_s", sum(work) / sum(latencies), "work/s", f"{workload.unit}/s; {sum(work)} {workload.unit} per pass")
    result.add("latency_p50_ms", 1000 * percentile(latencies, 50), "ms", f"n={count}")
    result.add("latency_p90_ms", 1000 * percentile(latencies, 90), "ms", f"n={count}, {count // 10} beyond")
    top = highest_percentile(count)
    result.lines.append(f"  {f'(p{top}: highest with >= 10 samples beyond)':44s} {1000 * percentile(latencies, top):>16.6g} ms")
    result.lines.append(
        f"  raw wall clock: setup {statistics.median(setup_raw):.4g} s (median), fastest pass per op:"
        f" {sum(work) / sum(fastest):.6g} {workload.unit}/s, p50 {1000 * percentile(fastest, 50):.6g} ms,"
        f" p90 {1000 * percentile(fastest, 90):.6g} ms"
    )
    result.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "ru_maxrss of the process")
    result.lines.append(f"  {'error_rate':44s} {result.failed / count:>16.6g} frac     {result.failed} of {count} ops")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drglab" / "cli.py").is_file():
        print(f"drgbench: no drglab source tree at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from drgbench_ops import WORKLOADS, Result

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"drgbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 1

    if args.trace:
        from drgbench_layers import layer_profile

        result = layer_profile(args.seed, out_dir=ROOT / ".bench_out")
    elif len(names) == 1:
        result = measure(args.workload, args.seed, args.seconds)
    else:
        # one process per workload, so that set-up and peak memory are each
        # workload's own
        result = Result()
        for name in names:
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)],
                capture_output=True,
                text=True,
                timeout=600,
            )
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            *lines, last = done.stdout.splitlines()
            part = json.loads(last)
            result.lines += lines
            result.attempted += part["attempted"]
            result.failed += part["failed"]
            result.correct &= part["correct"]
            result.metrics.update({f"{name}.{key}": value for key, value in part["metrics"].items()})
    print("\n".join(result.lines))
    print(json.dumps(result.payload()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
