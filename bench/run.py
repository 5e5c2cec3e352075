"""Benchmark of inaclink: one workload per run, outputs checked, metrics printed.

Usage, from the repository root:

    python3 bench/run.py --workload ks-grid|cli-suite|point-queries \
        [--seed N] [--seconds S] [--trace 0|1]

The library is imported from src/ next to this directory.  Each run makes
round(seconds / pass_seconds) passes (at least one) over the workload's
seeded operations, with host-speed probes (hostspeed.py) timed between ops.
It takes each op's median latency over the passes, raw and scaled to nominal
host speed, checks every output against the references under reference/,
and prints a run record, every metric with its unit, and as its last line
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with nothing wrapped;
the JSON line carries the host-scaled ones (GATED).
--trace 1 makes the untraced passes of half the seconds (at most
MAX_TRACED_PASSES), then the set-up steps and one pass with every public
function wrapped (see tracing.py), whose spans give the per-layer metrics,
then traced repeats up to the untraced pass count.  trace.overhead_s is the
traced wall_norm_s estimate minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

#: fresh-interpreter set-up probes per run, after one untimed warm-up
SETUP_PROBES = 5
#: cap on the untraced, and on the traced, passes of a traced run
MAX_TRACED_PASSES = 20
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def use_checkout_library() -> None:
    """Put src/ first on the path and make sure inaclink is imported from it."""
    package = SRC / "inaclink"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no inaclink sources at {package}")
    sys.path.insert(0, str(SRC))
    import inaclink

    if Path(inaclink.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: inaclink was imported from {inaclink.__file__}, not {package}")


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Machine, versions, BLAS thread settings and commit of this run."""
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def measure_setup(config_path: Path) -> list[float]:
    """Fresh interpreter -> import inaclink, load + validate config, first scenario."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); from inaclink import config; "
        f"config.load_config({str(config_path)!r}).scenario()"
    )
    times = []
    for probe in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        if probe:
            times.append(time.perf_counter() - t0)
    return times


@dataclass
class PassResult:
    latencies: list[float]  # seconds, one per op in op order
    failed: list[bool]  # the op raised or its output failed its check
    openings: list[int]  # index of the host probe before each op
    scaled: list[float] = field(default_factory=list)  # latencies at nominal host speed


def run_pass(workload, ops, host: hostspeed.Probe, tracer=None) -> PassResult:
    """One pass over the ops, back to back but for host probes; outputs are checked afterwards."""
    clock = time.perf_counter
    results, openings = [], []
    for op in ops:
        if tracer is not None:
            tracer.request_id = op.op_id
        t0 = clock()
        try:
            out, error = workload.run(op), None
        except Exception as exc:  # a failing op is counted; the run goes on
            out, error = None, exc
        latency = clock() - t0
        results.append((latency, out, error))
        openings.append(host.after_op(latency))
    failed = [error is not None or not workload.check(op, out) for op, (_, out, error) in zip(ops, results)]
    return PassResult([latency for latency, _, _ in results], failed, openings)


def measure(workload, ops, count: int, tracer=None) -> list[PassResult]:
    """`count` passes with host probes around them; each op's latency is also scaled."""
    host = hostspeed.Probe(workload.probe_kernels)
    host.warm_up()
    host.measure()
    passes = [run_pass(workload, ops, host, tracer) for _ in range(count)]
    host.measure()
    for p in passes:
        p.scaled = [host.scale(lat, at) for lat, at in zip(p.latencies, p.openings)]
    return passes


def pass_count(workload, seconds: float) -> int:
    """As many passes as the workload's nominal pass time fits in `seconds`, at least one."""
    return max(1, round(seconds / workload.pass_seconds))


def typical(passes: list[PassResult], scaled: bool = True) -> list[float]:
    """Each op's median latency over the passes.

    On a shared host, quiet spells come and go over tens of seconds, so an
    op's fastest repeat depends on whether the run met one.  The median
    reads the host's usual state and varies far less from run to run.
    """
    return [statistics.median(lat) for lat in zip(*(p.scaled if scaled else p.latencies for p in passes))]


def percentile_ms(latencies: list[float], q: float, ceiling: float) -> float:
    """Nearest-rank percentile in ms; a failed op (inf) reads as `ceiling`."""
    ranked = sorted(latencies)
    value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return 1e3 * (value if math.isfinite(value) else ceiling)


def latency_metrics(passes: list[PassResult], scaled: bool) -> tuple[float, float, float]:
    """wall (s), p50 and p90 (ms) of each op's median latency; a failed op ranks above any limit."""
    latency = typical(passes, scaled)
    failed = [any(flags) for flags in zip(*(p.failed for p in passes))]
    wall = sum(latency)
    ranked = [math.inf if bad else lat for lat, bad in zip(latency, failed)]
    return wall, percentile_ms(ranked, 0.50, wall), percentile_ms(ranked, 0.90, wall)


def end_to_end(workload, ops, passes: list[PassResult], setup: list[float]) -> dict:
    """Every end-to-end metric of the workload: name -> (value, unit)."""
    wall, p50, p90 = latency_metrics(passes, scaled=False)
    wall_norm, p50_norm, p90_norm = latency_metrics(passes, scaled=True)
    failed = [any(flags) for flags in zip(*(p.failed for p in passes))]
    m = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_norm_s": (wall_norm, "s"),
        "op_p50_norm_ms": (p50_norm, "ms"),
        "op_p90_norm_ms": (p90_norm, "ms"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "host_factor": (wall / wall_norm, "ratio"),
        "op_samples": (len(ops), "count"),
        "failed_share": (sum(sum(p.failed) for p in passes) / (len(ops) * len(passes)), "ratio"),
    }
    draws = workload.needed_draws(ops)
    if draws:
        # on ks-grid each op is one sampler call, so the needed draws are the
        # sum of trials x L over the sampler calls; on cli-suite they are not
        name = "draws_per_s" if workload.name == "ks-grid" else "needed_draws_per_s"
        m[name] = (draws / wall, "1/s")
    if workload.name == "point-queries":
        for kind, name in (("a", "points_per_s"), ("f", "fixes_per_s")):
            passed = sum(op.op_id[0] == kind and not bad for op, bad in zip(ops, failed))
            m[name] = (passed / wall, "1/s")
    return m


#: the end-to-end metrics the result line carries (BENCHMARK.json's end_to_end)
GATED = ("setup_s", "wall_norm_s", "op_p50_norm_ms", "op_p90_norm_ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ks-grid", "cli-suite", "point-queries"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_library()
    import tracing
    from workloads import WORKLOADS

    workdir = WORK_DIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](workdir)
    workload.prepare()
    ops = workload.ops(args.seed)
    known = workload.known_failures()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              **environment()}

    if args.trace == 0:
        setup = measure_setup(workload.config_path)
        passes = measure(workload, ops, pass_count(workload, args.seconds))
        traced = []
    else:
        setup = [math.nan]
        passes = measure(workload, ops, min(pass_count(workload, args.seconds / 2), MAX_TRACED_PASSES))
        with tracing.Tracer() as tracer:
            tracer.request_id = "setup"
            workload.prepare()
            traced = measure(workload, ops, 1, tracer)
        # repeats for the overhead estimate only; their spans are dropped
        while len(traced) < len(passes):
            with tracing.Tracer() as repeat:
                traced += measure(workload, ops, 1, repeat)
        tracer.write_spans(workdir / "spans.csv.gz")
        layer = tracer.metrics()
        layer["trace.overhead_s"] = sum(typical(traced)) - sum(typical(passes))

    failed_ids = [op.op_id for p in passes + traced for op, bad in zip(ops, p.failed) if bad]
    attempted = len(ops) * len(passes + traced)
    new_failures = sorted(set(failed_ids) - known)
    correct = not new_failures

    e2e = end_to_end(workload, ops, passes, setup)
    print("run record: " + json.dumps(record, sort_keys=True))
    print(f"passes: {len(passes)} untraced, {len(traced)} traced; each op's median over the passes is used")
    for name, (value, unit) in e2e.items():
        if args.trace == 0 or name != "setup_s":
            print(f"{name} = {value:.6g} {unit}")
    draws = workload.needed_draws(ops)
    print(f"counts per pass: needed draws {draws}, uniforms {4 * draws}, "
          f"bytes computed from array sizes {8 * 4 * draws}")
    print(f"failed ops: {len(failed_ids)} of {attempted}, {len(set(failed_ids) & known)} distinct ops "
          f"that also failed on the seed; new failures: {new_failures}")

    if args.trace == 0:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in GATED}
    else:
        metrics = {}
        for name in tracing.PER_LAYER:
            unit = tracing.metric_unit(name)
            value = layer.get(name, 0)
            metrics[name] = {"value": float(value) if unit == "s" else value, "unit": unit}
            print(f"{name} = {metrics[name]['value']:.6g} {unit}")
        blind = tracing.blind_layers(workload.tied_layers, layer)
        if blind:
            print(f"trace coverage: no calls traced for {blind}", file=sys.stderr)
            correct = False
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed_ids),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
