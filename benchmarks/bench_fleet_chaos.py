"""Fleet fault tolerance — chaos recovery vs stranding, and fault-layer cost.

Pins down the fault layer's three contracts on the 64-machine
heterogeneous fleet:

1. **Zero-fault identity** — a ``None`` fault argument and a
   zero-intensity plan produce bitwise-identical placements,
   completions, and utilisation, in both the incremental and scalar
   scoring modes (the whole fault layer is gated on the injector).
2. **Recovery** — under the full-intensity chaos plan,
   ``recovery="requeue+checkpoint"`` completes >= 99% of arrivals while
   ``recovery="none"`` strands work on crashed machines.
3. **Equivalence under faults** — the incremental and scalar scoring
   modes stay bitwise-identical even with crashes, degradations, and
   lossy admission active (fault draws happen in decision order, which
   both modes share).

Set ``BWAP_BENCH_QUICK=1`` to shrink the trace and skip the 99%
completion floor (CI smoke mode); the identity assertions always run.
"""

import os
import time

from repro.fleet import FleetScheduler, SchedulerConfig, build_fleet, chaos_plan
from repro.workloads import TraceSpec, build_trace

_QUICK = bool(os.environ.get("BWAP_BENCH_QUICK"))

#: 64 machines across four classes (two of them custom topologies).
_MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
_ARRIVALS = 48 if _QUICK else 240
_MAX_TIME = 1_000_000.0
#: Chaos windows land inside the span the trace keeps the fleet busy.
_HORIZON_S = 1.5 * _ARRIVALS / 4.0


def _trace():
    return build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=_ARRIVALS, seed=17)
    )


def _plan():
    return chaos_plan(sum(c for _n, c in _MIX), horizon_s=_HORIZON_S, seed=23)


def _run(scoring: str, faults, recovery: str):
    sched = FleetScheduler(
        build_fleet(_MIX),
        _trace(),
        SchedulerConfig(scoring=scoring, tick_s=2.0, recovery=recovery,
                        retry_backoff_s=5.0),
        seed=42,
        faults=faults,
    )
    t0 = time.perf_counter()
    result = sched.run(_MAX_TIME)
    wall = time.perf_counter() - t0
    return result, wall


def _assert_bitwise_equal(a, b):
    """Every decision and outcome of the two runs must be identical."""
    assert a.placements == b.placements
    assert a.completions == b.completions
    assert a.utilization == b.utilization
    assert a.end_time == b.end_time
    assert a.placed == b.placed
    assert a.requeues == b.requeues
    assert a.stranded == b.stranded
    assert a.admission_rejections == b.admission_rejections
    assert a.completions_lost == b.completions_lost
    assert a.lost_work_bytes == b.lost_work_bytes


def _run_matrix():
    plan = _plan()
    # Warm both paths (machine tables, canonical profiles, numpy dispatch).
    warm_trace = build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=8, seed=1)
    )
    for scoring in ("incremental", "scalar"):
        FleetScheduler(
            build_fleet(_MIX), warm_trace, SchedulerConfig(scoring=scoring, tick_s=2.0)
        ).run(_MAX_TIME)

    # Contract 1: fault-free == zero-intensity plan, in both modes.
    base_i, _w = _run("incremental", None, "requeue")
    base_s, _w = _run("scalar", None, "requeue")
    _assert_bitwise_equal(base_i, base_s)
    null_i, _w = _run("incremental", plan.scaled(0.0), "requeue")
    null_s, _w = _run("scalar", plan.scaled(0.0), "requeue")
    for base, null in ((base_i, null_i), (base_s, null_s)):
        _assert_bitwise_equal(base, null)
        assert base.entries_scored == null.entries_scored

    # Contracts 2 and 3: full-intensity chaos.
    none_r, _w = _run("incremental", plan, "none")
    ckpt_i, ckpt_wall = _run("incremental", plan, "requeue+checkpoint")
    ckpt_s, _w = _run("scalar", plan, "requeue+checkpoint")
    _assert_bitwise_equal(ckpt_i, ckpt_s)

    return {
        "arrivals": ckpt_i.arrivals,
        "none": none_r,
        "ckpt": ckpt_i,
        "ckpt_wall": ckpt_wall,
    }


class BenchFleetChaos:
    def test_chaos_recovery(self, benchmark, once, capsys, ledger):
        r = once(benchmark, _run_matrix)
        arrivals = r["arrivals"]
        none_r, ckpt = r["none"], r["ckpt"]
        none_rate = len(none_r.completions) / arrivals
        ckpt_rate = len(ckpt.completions) / arrivals
        ledger(
            "fleet_chaos",
            {
                "arrivals": arrivals,
                "completion_rate_none": none_rate,
                "completion_rate_recovered": ckpt_rate,
                "stranded_none": none_r.stranded,
                "requeues_recovered": ckpt.requeues,
                "availability": ckpt.availability,
                "lost_work_frac_recovered": (
                    ckpt.lost_work_bytes / ckpt.arrived_work_bytes
                    if ckpt.arrived_work_bytes
                    else 0.0
                ),
            },
            guarded=("completion_rate_recovered",),
            wall_s=r["ckpt_wall"],
        )
        with capsys.disabled():
            machines = sum(c for _n, c in _MIX)
            print()
            print(
                f"Fleet chaos ({machines} machines, {arrivals} arrivals, "
                f"full-intensity plan):"
            )
            print(
                f"  no recovery       : {len(none_r.completions)}/{arrivals} "
                f"completed, {none_r.stranded} stranded"
            )
            print(
                f"  requeue+checkpoint: {len(ckpt.completions)}/{arrivals} "
                f"completed, {ckpt.requeues} requeues, "
                f"availability {ckpt.availability:.4f}"
            )
        # The headline claims: recovery restores >= 99% completion on a
        # fleet where no-recovery strands work.
        if not _QUICK:
            assert ckpt_rate >= 0.99
            assert none_r.stranded > 0
            assert len(none_r.completions) < arrivals
