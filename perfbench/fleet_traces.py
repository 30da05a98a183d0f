"""``fleet-steady`` and ``fleet-chaos``: arrival traces on the 64-machine fleet.

Each run replays ``TRACES`` distinct Poisson traces (2,400 arrivals at
2/s, seeds derived from the benchmark seed) on the heterogeneous fleet
with incremental scoring, serial solves and a 2 s tick. ``fleet-chaos``
adds a full-intensity chaos plan per trace with checkpointed requeue.
One item is one arrival; one timed fleet run (scheduler construction
plus ``run``) gives one per-arrival time sample. Every fleet run starts
from the same solver-cache state (see :meth:`Fleet.run`), so a run costs
the same however many runs came before it.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import sys
import time
import traceback
import zlib

import common

MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
RATE_PER_S = 2.0
ARRIVALS = 2400
TRACES = 4
TICK_S = 2.0
MAX_TIME_S = 10_000_000.0
#: Warm-up trace length (untimed) and the short trace rerun through the
#: scalar scoring mode as the output check.
WARM_ARRIVALS = 240
CHECK_ARRIVALS = 64
#: Where ``repro.fleet.backend`` keeps its per-class-machine solver cache.
SOLVER_CACHE_ATTR = "_fleet_canon_solver"


def _seed(*parts) -> int:
    return zlib.crc32("/".join(map(str, parts)).encode())


def _result_key(r):
    """Everything a run decided and produced, for equality checks."""
    return (
        r.placements,
        r.completions,
        r.utilization,
        r.end_time,
        r.arrivals,
        r.placed,
        r.pending_left,
        r.ticks,
        r.solver_calls,
        r.entries_scored,
        r.memo_hits,
        r.bound_pruned,
        r.requeues,
        r.stranded,
        r.admission_rejections,
        r.completions_lost,
        r.slo_violations,
    )


class Fleet:
    """Set-up state: the fleet, the traces and chaos plans, canonical
    profiles; builds and warms up in the constructor (all of it counts as
    set-up)."""

    def __init__(self, seed: int, chaos: bool):
        from repro.engine import pick_worker_nodes
        from repro.fleet import (
            FleetScheduler,
            SchedulerConfig,
            build_fleet,
            canonical_for,
            chaos_plan,
        )
        from repro.workloads import TraceSpec, build_trace

        self.FleetScheduler = FleetScheduler
        self.fleet = build_fleet(MIX)
        self.machines = list({id(n.machine): n.machine for n in self.fleet}.values())

        def trace(arrivals, tseed):
            return build_trace(
                TraceSpec(kind="poisson", rate_per_s=RATE_PER_S, arrivals=arrivals, seed=tseed)
            )

        def plan(arrivals, pseed):
            if not chaos:
                return None
            return chaos_plan(
                len(self.fleet), horizon_s=1.5 * arrivals / RATE_PER_S, seed=pseed
            )

        self.config = SchedulerConfig(
            scoring="incremental",
            tick_s=TICK_S,
            shards=1,
            recovery="requeue+checkpoint" if chaos else "requeue",
        )
        self.runs = [
            (trace(ARRIVALS, _seed(seed, j)), plan(ARRIVALS, _seed(seed, j, "chaos")))
            for j in range(TRACES)
        ]
        self.check = (
            trace(CHECK_ARRIVALS, _seed(seed, "check")),
            plan(CHECK_ARRIVALS, _seed(seed, "check", "chaos")),
        )
        # Canonical profiles of every machine class, then an untimed run.
        for machine in self.machines:
            canonical = canonical_for(machine)
            for k in self.config.worker_counts:
                canonical.weights(pick_worker_nodes(machine, k))
        self.run(
            trace(WARM_ARRIVALS, _seed(seed, "warm")),
            plan(WARM_ARRIVALS, _seed(seed, "warm", "chaos")),
        )

    def run(self, trace, plan, config=None):
        # The fluid backend keeps a rename-canonical solver cache on each
        # shared class machine, which would otherwise carry solves from
        # one run into the next. Dropping it makes every run pay its own
        # resident re-solves, as a single fleet run in a fresh process does.
        for machine in self.machines:
            vars(machine).pop(SOLVER_CACHE_ATTR, None)
        sched = self.FleetScheduler(
            self.fleet, trace, config or self.config, seed=42, faults=plan
        )
        return sched.run(MAX_TIME_S)


def conserved(r) -> bool:
    return len(r.completions) + r.stranded + r.pending_left == r.arrivals


def sim_metrics(results):
    slowdowns = [c.slowdown for r in results for c in r.completions]
    return {
        "sim_p99_slowdown": common.percentile(slowdowns, 99),
        "sim_slo_violation_rate": sum(r.slo_violations for r in results)
        / sum(r.arrivals for r in results),
    }


def measure(fleet: Fleet, seconds: float, trace: bool, log, between=lambda: None):
    """Timed phase, output checks and (with ``trace``) the traced runs.
    ``between()`` runs, untimed, after each timed fleet run. Returns
    ``(record, metrics, layer metrics or None)``."""
    rec = common.Record()

    # ---- timed phase: whole passes over the traces until ``seconds`` ---
    first = [None] * TRACES
    walls, arrivals = [], 0
    i = 0
    while i % TRACES or sum(walls) < seconds:
        j = i % TRACES
        tr, plan = fleet.runs[j]
        gc.collect()
        t0 = time.perf_counter()
        try:
            res = fleet.run(tr, plan)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            res = None
        walls.append(time.perf_counter() - t0)
        arrivals += len(tr)
        if res is None:
            rec.fail(len(tr), f"fleet run {i} raised")
        elif not conserved(res):
            rec.fail(len(tr), f"fleet run {i}: completed + stranded + pending != arrivals")
        elif i < TRACES:
            first[j] = res
        elif _result_key(res) != _result_key(first[j]):
            rec.fail(len(tr), f"fleet run {i} differs from the first run of trace {j}")
        i += 1
        if i == TRACES:
            # After a fixed amount of work, so host speed cannot move it.
            peak_rss_mb = common.peak_rss_mb()
        between()
    rec.attempted += arrivals
    per_item = [w / len(fleet.runs[k % TRACES][0]) for k, w in enumerate(walls)]
    metrics = {
        "items_per_s": arrivals / sum(walls),
        "item_p50_ms": 1e3 * statistics.median(per_item),
        "peak_rss_mb": peak_rss_mb,
    }
    complete = all(r is not None for r in first)
    if complete:
        metrics.update(sim_metrics(first))
    else:
        metrics.update(sim_p99_slowdown=0.0, sim_slo_violation_rate=0.0)
    log(f"timed: {i} fleet runs, {arrivals} arrivals in {sum(walls):.3f} s")

    # ---- output check: short trace, incremental vs scalar scoring ------
    tr, plan = fleet.check
    rec.attempted += 2 * len(tr)
    try:
        inc = fleet.run(tr, plan)
        ref = fleet.run(tr, plan, dataclasses.replace(fleet.config, scoring="scalar"))
        same = (
            inc.placements == ref.placements
            and inc.completions == ref.completions
            and inc.utilization == ref.utilization
        )
        if not (same and conserved(inc) and conserved(ref)):
            rec.fail(2 * len(tr), "scalar scoring disagrees with incremental on the check trace")
        else:
            log(f"check: {len(tr)}-arrival trace identical under scalar scoring "
                f"({len(inc.placements)} placements, {inc.requeues} requeues)")
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rec.fail(2 * len(tr), "check trace raised")

    if not trace:
        return rec, metrics, None

    # ---- traced runs: each trace once ------------------------------------
    tracer = common.make_tracer()
    traced, traced_walls = [], []
    with tracer:
        for tr, plan in fleet.runs:
            gc.collect()
            t0 = time.perf_counter()
            try:
                traced.append(fleet.run(tr, plan))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                traced.append(None)
            traced_walls.append(time.perf_counter() - t0)
    traced_arrivals = sum(len(tr) for tr, _p in fleet.runs)
    rec.attempted += traced_arrivals
    same = complete and all(
        t is not None and _result_key(t) == _result_key(f) for t, f in zip(traced, first)
    )
    counters = {"memo_hits": 0, "bound_pruned": 0, "requeues": 0}
    # Equal results imply equal sim_* metrics and program counters.
    if not same:
        rec.fail(traced_arrivals, "traced fleet runs differ from the untraced runs")
    else:
        for k in counters:
            counters[k] = sum(getattr(r, k) for r in traced)
        layer = tracer.layers["memsim.contention.fleet_solve"]
        rec.cross_check(
            "memsim.contention.fleet_solve_calls",
            layer.calls,
            sum(r.solver_calls for r in traced),
        )
        rec.cross_check("fleet.scheduler.ticks", tracer.counts["ticks"], sum(r.ticks for r in traced))
        rec.cross_check(
            "fleet.scheduler.entries_scored",
            tracer.counts["fleet_entries"],
            sum(r.entries_scored for r in traced),
        )
    item_s = sum(traced_walls)
    layers = common.layer_metrics(tracer, item_s, counters)
    layers["trace.overhead"] = 100.0 * (item_s / sum(walls[:TRACES]) - 1.0)
    return rec, metrics, layers
