"""Incremental fleet scheduling — memoised, pruned ticks at scale.

The incremental scoring mode replays version-keyed score memos, prunes
candidates against an exact per-machine rate bound, and batches every
remaining solve of a tick into one vectorised call. This benchmark pins
down its two claims on the 64-machine heterogeneous fleet:

1. **Speed** — on a saturated trace incremental scoring admits >= 2300
   arrivals/s, >= 20x the scalar reference's rate on the trace's first
   240 arrivals, and a 1,000,000-arrival trace completes in
   single-digit minutes.
2. **Exactness** — placements, completions, SLO accounting, and
   utilisation are bitwise-identical to the scalar reference, fault-free
   and under the full-intensity chaos plan: the memo replays the very
   floats the solver produced and the bound only discards
   provably-losing candidates.

The scalar reference re-solves every candidate, so it runs only on the
240-arrival prefix; the guarded speedup comes from that prefix in both
quick and full mode, which keeps CI runs comparable with the committed
ledger. Set ``BWAP_BENCH_QUICK=1`` to shrink the throughput trace and
skip the timing floors and the million-arrival run (CI smoke mode); the
exactness assertions always run.
"""

import os
import time

from repro.fleet import FleetScheduler, SchedulerConfig, build_fleet, chaos_plan
from repro.workloads import TraceSpec, build_trace

_QUICK = bool(os.environ.get("BWAP_BENCH_QUICK"))

#: 64 machines across four classes (two of them custom topologies).
_MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
#: Saturated trace: arrivals outpace drain, so every tick scores a full
#: pending batch — the regime where exhaustive scoring cost explodes.
#: The quick trace stays long enough (240 arrivals) for the memo to
#: reach steady state, so the quick hit rate is scale-comparable to the
#: committed full-mode baseline that bench-compare guards against.
_ARRIVALS = 240 if _QUICK else 2400
#: Prefix on which incremental and scalar scoring are timed and compared.
_PREFIX = 240
_RATE = 8.0
_MAX_TIME = 10_000_000.0
#: Throughput floor: 10x the ~230 arrivals/s of the exhaustive
#: one-batched-solve-per-tick scoring this mode replaced.
_FLOOR_ARRIVALS_PER_S = 2300.0
_MILLION = 1_000_000


def _trace(arrivals):
    return build_trace(
        TraceSpec(kind="poisson", rate_per_s=_RATE, arrivals=arrivals, seed=17)
    )


def _plan(arrivals):
    return chaos_plan(
        sum(c for _n, c in _MIX), horizon_s=1.5 * arrivals / _RATE, seed=23
    )


def _run(scoring, arrivals, *, faults=None):
    sched = FleetScheduler(
        build_fleet(_MIX),
        _trace(arrivals),
        SchedulerConfig(scoring=scoring, tick_s=2.0),
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
    assert a.slo_violations == b.slo_violations
    assert a.availability == b.availability
    assert a.machine_downtime == b.machine_downtime


def _run_all():
    # Warm every path (machine tables, canonical profiles, numpy
    # dispatch) so the timed runs measure the scheduling loop.
    warm_trace = build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=8, seed=1)
    )
    for scoring in ("scalar", "incremental"):
        FleetScheduler(
            build_fleet(_MIX), warm_trace, SchedulerConfig(scoring=scoring, tick_s=2.0)
        ).run(_MAX_TIME)

    # Throughput on the full trace.
    inc, inc_wall = _run("incremental", _ARRIVALS)

    # Exactness and the guarded speedup on the prefix, fault-free.
    scalar_pre, scalar_pre_wall = _run("scalar", _PREFIX)
    inc_pre, inc_pre_wall = _run("incremental", _PREFIX)
    _assert_bitwise_equal(scalar_pre, inc_pre)

    # Exactness under full-intensity chaos.
    plan = _plan(_PREFIX)
    chaos_s, _w = _run("scalar", _PREFIX, faults=plan)
    chaos_i, _w = _run("incremental", _PREFIX, faults=plan)
    _assert_bitwise_equal(chaos_s, chaos_i)
    assert chaos_i.requeues > 0

    million_wall = None
    if not _QUICK:
        _m, million_wall = _run("incremental", _MILLION)

    return {
        "inc": inc,
        "inc_wall": inc_wall,
        "scalar_pre": scalar_pre,
        "scalar_pre_wall": scalar_pre_wall,
        "inc_pre": inc_pre,
        "inc_pre_wall": inc_pre_wall,
        "million_wall": million_wall,
    }


class BenchFleetScale:
    def test_incremental_throughput(self, benchmark, once, capsys, ledger):
        r = once(benchmark, _run_all)
        inc, scalar_pre, inc_pre = r["inc"], r["scalar_pre"], r["inc_pre"]
        inc_aps = inc.arrivals / r["inc_wall"]
        scalar_aps = _PREFIX / r["scalar_pre_wall"]
        speedup = r["scalar_pre_wall"] / r["inc_pre_wall"]
        # Deterministic across machines: how many candidate solves the
        # memo + bound eliminated relative to the scalar reference on
        # the prefix, and the fraction of candidate scores replayed from
        # the memo on the full trace.
        reduction = scalar_pre.entries_scored / max(inc_pre.entries_scored, 1)
        hit_rate = inc.memo_hits / max(inc.memo_hits + inc.entries_scored, 1)
        metrics = {
            "arrivals": inc.arrivals,
            "incremental_arrivals_per_s": inc_aps,
            "scalar_arrivals_per_s": scalar_aps,
            "speedup_vs_scalar": speedup,
            "entries_scored": inc.entries_scored,
            "memo_hits": inc.memo_hits,
            "bound_pruned": inc.bound_pruned,
            "candidate_reduction": reduction,
            "memo_hit_rate": hit_rate,
        }
        if r["million_wall"] is not None:
            metrics["million_arrivals_wall_s"] = r["million_wall"]
        ledger(
            "fleet_scale",
            metrics,
            guarded=("speedup_vs_scalar", "memo_hit_rate"),
            wall_s=r["inc_wall"] + r["scalar_pre_wall"] + r["inc_pre_wall"],
        )
        with capsys.disabled():
            machines = sum(c for _n, c in _MIX)
            print()
            print(
                f"Incremental fleet scheduling ({machines} machines, "
                f"{inc.arrivals} arrivals):"
            )
            print(
                f"  incremental: {inc_aps:8.1f} arrivals/s "
                f"({inc.entries_scored} scored, {inc.memo_hits} memo hits, "
                f"{inc.bound_pruned} pruned)"
            )
            print(
                f"  first {_PREFIX}: scalar {scalar_aps:.1f} arrivals/s, "
                f"speedup {speedup:.2f}x "
                f"(candidate reduction {reduction:.1f}x)"
            )
            if r["million_wall"] is not None:
                print(
                    f"  1M arrivals: {r['million_wall']:.0f}s "
                    f"({_MILLION / r['million_wall']:.0f} arrivals/s)"
                )
        # The headline claims: the throughput floor, >= 20x over the
        # scalar reference, and a million-arrival trace in single-digit
        # minutes.
        if not _QUICK:
            assert inc_aps >= _FLOOR_ARRIVALS_PER_S
            assert speedup >= 20.0
            assert r["million_wall"] < 600.0
