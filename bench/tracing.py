"""Span tracing of inaclink's public functions, installed from the outside.

Only a traced run installs anything.  `Tracer.install` wraps each target
function at every attribute of every loaded ``inaclink`` module that holds
it, so a name imported with ``from .montecarlo import sample_cascaded_gains``
is wrapped as well as the module attribute; methods are wrapped on their
class.  `Tracer.uninstall` puts the originals back.

Each call records a span: metric prefix, start, end, parent span and
request id.  Spans stay in memory until the run ends.  Self time is a span's
duration minus the durations of its direct children (calls are serial, so
children never overlap).
"""

from __future__ import annotations

import csv
import gzip
import sys
import time
from collections import defaultdict

from inaclink import channel, cli, config, geometry, montecarlo, navigation, noma, specialfn, sweeps
from inaclink.errors import ConvergenceError, RegionError


def _count_draws(tracer, args, kwargs, result):
    ris, mc = args[0], args[2]
    trials, elements = mc.trials, ris.num_elements
    tracer.counts["montecarlo.sample_cascaded_gains.draws"] += trials * elements
    # computed from array sizes: the 4 L uniform doubles per trial that the
    # stream contract fixes
    tracer.counts["montecarlo.sample_cascaded_gains.bytes_computed"] += 8 * 4 * elements * trials


def _count_iterations(tracer, args, kwargs, result):
    tracer.counts["navigation.lsm_solve.iterations"] += result.iterations_used


def _count_csv_bytes(tracer, args, kwargs, result):
    tracer.counts["sweeps.report_to_csv_text.bytes"] += len(result.encode("utf-8"))


def _count_kummer_failure(tracer, exc):
    if isinstance(exc, ConvergenceError):
        tracer.counts["specialfn.kummer_1f1_half.failed"] += 1


def _count_region_na(tracer, exc):
    if isinstance(exc, RegionError):
        tracer.counts["noma.outage_asymptotic.region_na"] += 1


def _figure_key(args, kwargs):
    figure_id = args[1] if len(args) > 1 else kwargs["figure_id"]
    return f"sweeps.run_sweep.{figure_id}.s"


#: (metric prefix, owner, attribute, result hook, error hook, per-argument time key)
TARGETS = (
    ("montecarlo.sample_cascaded_gains", montecarlo, "sample_cascaded_gains", _count_draws, None, None),
    ("montecarlo.ks_distance", montecarlo, "ks_distance", None, None, None),
    ("montecarlo.outage_events", montecarlo, "outage_events", None, None, None),
    ("montecarlo.mc_outage", montecarlo, "mc_outage", None, None, None),
    ("montecarlo.mc_capacity", montecarlo, "mc_capacity", None, None, None),
    ("channel.cascaded_moments", channel, "cascaded_moments", None, None, None),
    ("channel.effective_gain_cdf", channel, "effective_gain_cdf", None, None, None),
    ("specialfn.kummer_1f1_half", specialfn, "kummer_1f1_half", None, _count_kummer_failure, None),
    ("noma.outage_threshold", noma, "outage_threshold", None, None, None),
    ("noma.outage_closed_form", noma, "outage_closed_form", None, None, None),
    ("noma.outage_asymptotic", noma, "outage_asymptotic", None, _count_region_na, None),
    ("noma.capacity_hardened", noma, "capacity_hardened", None, None, None),
    ("navigation.lsm_solve", navigation, "lsm_solve", _count_iterations, None, None),
    ("navigation.synthesize_pseudoranges", navigation, "synthesize_pseudoranges", None, None, None),
    ("geometry.link_budget", geometry, "link_budget", None, None, None),
    ("geometry.min_satellites", geometry, "min_satellites", None, None, None),
    ("sweeps.run_sweep", sweeps, "run_sweep", None, None, _figure_key),
    ("sweeps.report_to_csv_text", sweeps, "report_to_csv_text", _count_csv_bytes, None, None),
    ("config.load_config", config, "load_config", None, None, None),
    ("config.validate", config.ScenarioConfig, "validate", None, None, None),
    ("config.scenario", config.ScenarioConfig, "scenario", None, None, None),
    ("cli.main", cli, "main", None, None, None),
)

#: metrics reported for every traced run, whether or not the workload reaches them
PER_LAYER = (
    "montecarlo.sample_cascaded_gains.calls",
    "montecarlo.sample_cascaded_gains.self_s",
    "montecarlo.sample_cascaded_gains.draws",
    "montecarlo.sample_cascaded_gains.bytes_computed",
    "montecarlo.ks_distance.calls",
    "montecarlo.ks_distance.self_s",
    *(f"montecarlo.{f}.{s}" for f in ("outage_events", "mc_outage", "mc_capacity") for s in ("calls", "self_s")),
    *(f"channel.{f}.{s}" for f in ("cascaded_moments", "effective_gain_cdf") for s in ("calls", "self_s")),
    "specialfn.kummer_1f1_half.calls",
    "specialfn.kummer_1f1_half.self_s",
    "specialfn.kummer_1f1_half.failed",
    *(f"noma.{f}.{s}"
      for f in ("outage_threshold", "outage_closed_form", "outage_asymptotic", "capacity_hardened")
      for s in ("calls", "self_s")),
    "noma.outage_asymptotic.region_na",
    "navigation.lsm_solve.calls",
    "navigation.lsm_solve.self_s",
    "navigation.lsm_solve.iterations",
    "navigation.synthesize_pseudoranges.calls",
    "navigation.synthesize_pseudoranges.self_s",
    *(f"geometry.{f}.{s}" for f in ("link_budget", "min_satellites") for s in ("calls", "self_s")),
    "sweeps.run_sweep.calls",
    "sweeps.run_sweep.self_s",
    *(f"sweeps.run_sweep.{fig}.s" for fig in sweeps.FIGURE_IDS),
    "sweeps.report_to_csv_text.calls",
    "sweeps.report_to_csv_text.self_s",
    "sweeps.report_to_csv_text.bytes",
    *(f"config.{f}.{s}" for f in ("load_config", "validate", "scenario") for s in ("calls", "self_s")),
    "cli.main.calls",
    "cli.main.s",
    "trace.overhead_s",
)


def blind_layers(tied: tuple[str, ...], metrics: dict[str, float]) -> list[str]:
    """Tied function prefixes the trace saw no call of."""
    return [prefix for prefix in tied if not metrics.get(f"{prefix}.calls")]


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its last name component."""
    stat = name.rsplit(".", 1)[1]
    if stat in ("s", "self_s", "overhead_s"):
        return "s"
    if stat in ("bytes", "bytes_computed"):
        return "bytes"
    return "count"


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        # span: [prefix, start, end, parent index, request id]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.request_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, prefix, fn, on_result, on_error, time_key):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [prefix, clock(), 0.0, stack[-1] if stack else -1, self.request_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if time_key is not None:
                    counts[time_key(args, kwargs)] += span[2] - span[1]
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every target at each inaclink module attribute that holds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "inaclink" or name.startswith("inaclink."))]
        for prefix, owner, attr, on_result, on_error, time_key in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, original, on_result, on_error, time_key)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._patched.append((holder, name, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """calls, inclusive s and self_s per prefix, plus the hook counters."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out: defaultdict[str, float] = defaultdict(int)
        for span, covered in zip(self.spans, child):
            dur = span[2] - span[1]
            out[f"{span[0]}.calls"] += 1
            out[f"{span[0]}.s"] += dur
            out[f"{span[0]}.self_s"] += dur - covered
        out.update(self.counts)
        return dict(out)

    def write_spans(self, path) -> None:
        """Write all spans as gzip'd CSV: index, name, start, end, parent, request."""
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "request"])
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent, rid])
