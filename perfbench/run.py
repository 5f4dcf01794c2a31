"""Repository benchmark: end-to-end and per-layer metrics of diagnosis.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 16 --trace 0

``--trace 0`` measures untraced passes and prints the end-to-end
metrics, with times scaled to a reference host speed (see
``hostspeed.py``); ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics (see ``layers.py``). Either way every
output is checked, and the last line of standard output is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and what each layer metric should move are
described in ``NOTES.md`` next to this file.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from statistics import harmonic_mean, median
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters started to time start-up; the median is kept.
STARTUP_REPEATS = 3

END_TO_END_UNITS = {
    "wall_s": "s", "diagnoses_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "top1": "ratio", "recall": "ratio",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def time_cli(speed):
    """Start a fresh interpreter importing the CLI, as every ``repro``
    invocation does before it does any work.

    Returns (seconds, clock start, clock end). The seconds are real
    time: the child runs on while the probe samples in this process.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    start, real = speed.clock(), perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=ROOT,
                   env=env, check=True, timeout=120)
    return perf_counter() - real, start, speed.clock()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import hostspeed
    import layers

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = harness.make_workload(args.workload, args.seed)
    if args.trace:
        tracer = layers.LayerTracer()
        setups, passes = harness.measure(workload, args.seconds,
                                         tracer=tracer)
    else:
        speed = hostspeed.HostSpeed()
        with speed:
            startups = [time_cli(speed) for _ in range(STARTUP_REPEATS)]
            setups, passes = harness.measure(workload, args.seconds,
                                             clock=speed.clock)

    attempted = sum(p.attempted for p in setups + passes)
    failed = sum(p.failed for p in setups + passes)
    untraced = [p for p in passes if not p.traced]
    latencies = [e - s for p in untraced for s, e in p.spans]
    pct, _ = harness.tail(latencies)
    print(f"workload {workload.name}: seed {args.seed}, "
          f"{len(workload.requests)} requests a pass, {len(passes)} passes "
          f"({len(passes) - len(untraced)} traced)")
    print(f"error_rate {failed / attempted:.4f} ({failed} of {attempted} "
          "operations failed)")
    for error in [e for p in setups + passes for e in p.errors][:20]:
        print(f"  check failed: {error}")
    if args.trace:
        traced = [p for p in passes if p.traced]
        metrics = layers.layer_metrics(
            tracer, [p.wall_s for p in traced],
            [p.wall_s for p in untraced],
            warm_hits=sum(p.warm_hits for p in traced),
            warm_misses=sum(p.warm_misses for p in traced))
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        wall = sum(p.wall_s for p in traced) / len(traced)
        for name, value in metrics.items():
            share = (f"  ({100 * value / wall:.1f}% of traced wall)"
                     if units[name] == "s" else "")
            print(f"{name:36s} {value:14.6f} {units[name]}{share}")
    else:
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

        def setup_s(scale):
            return (median(scale(*startup) for startup in startups)
                    + median(scale(p.wall_s, p.start, p.end)
                             for p in setups))

        metrics = harness.end_to_end(untraced, setup_s(speed.scale),
                                     peak_rss_mb, scale=speed.scale)
        raw = harness.end_to_end(untraced, setup_s(harness.raw),
                                 peak_rss_mb)
        units = END_TO_END_UNITS
        print(f"host speed: kernel {harmonic_mean(speed.kernel_s):.5f} s "
              f"at the mean speed of {len(speed.kernel_s)} samples, "
              f"reference {hostspeed.REFERENCE_S} s")
        print(f"{'metric':16s} {'reference-host':>14s} {'raw':>14s}")
        for name, value in metrics.items():
            print(f"{name:16s} {value:14.6f} {raw[name]:14.6f} {units[name]}")
        print(f"latency_tail_s is p{pct:.2f} of {len(latencies)} samples")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
