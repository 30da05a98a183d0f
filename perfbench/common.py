"""Shared pieces of the benchmark: bookkeeping, statistics, the layer table."""

from __future__ import annotations

import math
import resource
import sys
from typing import Dict, List, Optional, Tuple

from layer_trace import LayerTrace


class Record:
    """Attempted/failed operation counts plus the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.problems.append(why)
        print(f"CHECK FAILED: {why}", file=sys.stderr)

    def cross_check(self, name: str, traced, program) -> None:
        """A trace counter must equal the counter the program keeps."""
        if traced != program:
            self.fail(0, f"{name}: trace counted {traced}, program reports {program}")


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        return math.nan
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# The layer table
# ---------------------------------------------------------------------- #

#: Timed layers: (layer, calls metric, seconds metric, self time?). Each
#: seconds metric ``X_s`` also yields ``X_share``, percent of the traced
#: item time.
_SPANS: Tuple[Tuple[str, Optional[str], str, bool], ...] = (
    ("engine.sim.run", "engine.sim.run_calls", "engine.sim.run_s", False),
    ("engine.kernel.step", "engine.kernel.step_calls", "engine.kernel.step_self_s", True),
    ("engine.app.consumers", "engine.app.consumers_calls", "engine.app.consumers_s", False),
    (
        "memsim.pages.distribution",
        "memsim.pages.distribution_calls",
        "memsim.pages.distribution_s",
        False,
    ),
    ("memsim.mbind", "memsim.mbind.calls", "memsim.mbind.mbind_s", False),
    ("core.interleave.apply", "core.interleave.apply_calls", "core.interleave.apply_s", False),
    ("core.dwp.on_epoch", "core.dwp.on_epoch_calls", "core.dwp.on_epoch_self_s", True),
    (
        "memsim.contention.solve",
        "memsim.contention.solve_calls",
        "memsim.contention.solve_s",
        False,
    ),
    (
        "experiments.common.deploy",
        "experiments.common.deploy_calls",
        "experiments.common.deploy_s",
        False,
    ),
    ("fleet.scheduler.run", "fleet.scheduler.run_calls", "fleet.scheduler.run_s", False),
    ("fleet.scheduler.run", None, "fleet.scheduler.self_s", True),
    (
        "memsim.contention.fleet_solve",
        "memsim.contention.fleet_solve_calls",
        "memsim.contention.fleet_solve_s",
        False,
    ),
    (
        "memsim.contention.bound",
        "memsim.contention.bound_calls",
        "memsim.contention.bound_s",
        False,
    ),
    ("fleet.backend.advance", "fleet.backend.advance_calls", "fleet.backend.advance_s", False),
    ("fleet.backend.admit", "fleet.backend.admit_calls", "fleet.backend.admit_s", False),
    ("fleet.backend.evict", "fleet.backend.evict_calls", "fleet.backend.evict_s", False),
    ("fleet.faults", "fleet.faults.calls", "fleet.faults.query_s", False),
)


def make_tracer() -> LayerTrace:
    """Every layer of both workload families, so a layer that a workload
    leaves idle reports zero calls there."""
    t = LayerTrace()
    counts = t.counts

    def sim_done(args, _result):
        sim = args[0]
        counts["epochs"] += sim.epoch
        if sim.solver_cache is not None:
            counts["cache_hits"] += sim.solver_cache.hits
            counts["cache_misses"] += sim.solver_cache.misses

    def moved(_args, outcome):
        counts["pages_moved"] += outcome.pages_moved

    def scored(args, _result):
        counts["fleet_entries"] += len(args[0])

    for name in ("epochs", "cache_hits", "cache_misses", "pages_moved", "fleet_entries"):
        counts[name] = 0
    t.span("engine.sim.run", "repro.engine.sim:Simulator.run", after=sim_done)
    t.span("engine.kernel.step", "repro.engine.kernel:EpochKernel.step")
    t.span("engine.app.consumers", "repro.engine.app:Application.consumers")
    t.span(
        "memsim.pages.distribution",
        "repro.memsim.pages:AddressSpace.placement_distribution",
        "repro.memsim.pages:AddressSpace.node_histogram",
    )
    t.span("memsim.mbind", "repro.memsim.mbind:mbind", "repro.memsim.mbind:mbind_segment")
    t.span(
        "core.interleave.apply",
        "repro.core.interleave:apply_weighted_placement",
        after=moved,
    )
    t.span(
        "core.interleave.apply",
        "repro.core.interleave:apply_weighted_user",
        "repro.core.interleave:apply_weighted_kernel",
    )
    t.span("core.dwp.on_epoch", "repro.core.dwp:DWPTuner.on_epoch")
    # Every DWP decision consumes exactly one stall measurement.
    t.count(
        "stall_samples",
        "repro.engine.sim:Simulator.sample_stall_rate",
        "repro.engine.sim:Simulator.sample_stall_stats",
    )
    t.span(
        "memsim.contention.solve",
        "repro.memsim.contention:solve",
        "repro.memsim.contention:solve_batch",
        "repro.memsim.contention:solve_batch_arrays",
        "repro.memsim.contention:SolverCache.solve",
        "repro.memsim.contention:SolverCache.solve_keyed",
    )
    t.span("experiments.common.deploy", "repro.experiments.common:deploy_app")
    t.span("fleet.scheduler.run", "repro.fleet.scheduler:FleetScheduler.run")
    t.count("ticks", "repro.fleet.scheduler:FleetScheduler._tick_incremental")
    t.span(
        "memsim.contention.fleet_solve",
        "repro.memsim.contention:solve_batch_fleet_lazy",
        after=scored,
    )
    t.span("memsim.contention.fleet_solve", "repro.memsim.contention:solve_batch_fleet")
    t.span("memsim.contention.bound", "repro.memsim.contention:candidate_rate_bound")
    t.span("fleet.backend.advance", "repro.fleet.backend:MachineBackend.advance")
    t.span("fleet.backend.admit", "repro.fleet.backend:MachineBackend.admit")
    t.span("fleet.backend.evict", "repro.fleet.backend:MachineBackend.evict_all")
    from repro.fleet.faults import FleetFaultInjector, HealthTracker

    for cls in (FleetFaultInjector, HealthTracker):
        for attr in sorted(vars(cls)):
            if not attr.startswith("_") and callable(vars(cls)[attr]):
                t.span("fleet.faults", f"repro.fleet.faults:{cls.__name__}.{attr}")
    return t


def layer_metrics(tracer: LayerTrace, item_s: float, fleet_counters=None) -> Dict[str, float]:
    """Per-layer metric values of one traced phase. Shares are percent of
    ``item_s``, the traced items' summed host seconds."""
    out: Dict[str, float] = {}
    for layer, calls_name, secs_name, use_self in _SPANS:
        st = tracer.layers[layer]
        secs = st.self_s if use_self else st.incl_s
        if calls_name:
            out[calls_name] = st.calls
        out[secs_name] = secs
        out[secs_name[:-2] + "_share"] = 100.0 * secs / item_s if item_s > 0 else 0.0
    c = tracer.counts
    run = tracer.layers["engine.sim.run"]
    out["engine.sim.epochs"] = c["epochs"]
    out["engine.sim.host_us_per_epoch"] = (
        1e6 * run.incl_s / c["epochs"] if c["epochs"] else 0.0
    )
    out["core.interleave.pages_moved"] = c["pages_moved"]
    out["core.dwp.iterations"] = c["stall_samples"]
    lookups = c["cache_hits"] + c["cache_misses"]
    out["memsim.contention.cache_hit_rate"] = c["cache_hits"] / lookups if lookups else 0.0
    sched = tracer.layers["fleet.scheduler.run"]
    out["fleet.scheduler.ticks"] = c["ticks"]
    out["fleet.scheduler.host_us_per_tick"] = (
        1e6 * sched.incl_s / c["ticks"] if c["ticks"] else 0.0
    )
    out["fleet.scheduler.entries_scored"] = c["fleet_entries"]
    fc = fleet_counters or {"memo_hits": 0, "bound_pruned": 0, "requeues": 0}
    out["fleet.scheduler.memo_hits"] = fc["memo_hits"]
    out["fleet.scheduler.bound_pruned"] = fc["bound_pruned"]
    seen = fc["memo_hits"] + c["fleet_entries"]
    out["fleet.scheduler.memo_hit_rate"] = fc["memo_hits"] / seen if seen else 0.0
    out["fleet.scheduler.requeues"] = fc["requeues"]
    out["trace.item_s"] = item_s
    return out
