"""Fleet scheduling — incremental scoring vs the scalar reference.

Each scheduling tick the fleet scheduler ranks every (pending app x
machine x worker-set) candidate placement. The incremental mode (the
default) replays version-keyed score memos, prunes candidates against
an exact rate bound, and solves the survivors of a tick in one
vectorised :func:`repro.memsim.solve_batch_fleet_lazy` call; the scalar
reference runs the identical decision procedure with one
:func:`repro.memsim.solve` per candidate. This benchmark pins down the
two claims on one 240-arrival trace:

1. **Speed** — on a 64-machine heterogeneous fleet the incremental run
   admits arrivals at >= 20x the scalar reference's rate.
2. **Exactness** — both modes produce bitwise-identical placement
   decisions, completions, and utilisation: memo replays and batched
   solves reproduce the scalar solves' floats, not an approximation.

Set ``BWAP_BENCH_QUICK=1`` to skip the timing floor (CI smoke mode); the
trace is the same in both modes, so the guarded ratio stays comparable,
and the exactness assertions always run.
"""

import os
import time

from repro.fleet import FleetScheduler, SchedulerConfig, build_fleet
from repro.workloads import TraceSpec, build_trace

_QUICK = bool(os.environ.get("BWAP_BENCH_QUICK"))

#: 64 machines across four classes (two of them custom topologies).
_MIX = (("A", 16), ("B", 16), ("dual", 16), ("sym4", 16))
_ARRIVALS = 240
_MAX_TIME = 1_000_000.0


def _trace():
    return build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=_ARRIVALS, seed=17)
    )


def _run(scoring: str):
    fleet = build_fleet(_MIX)
    trace = _trace()
    sched = FleetScheduler(
        fleet,
        trace,
        SchedulerConfig(scoring=scoring, tick_s=2.0),
        seed=42,
    )
    t0 = time.perf_counter()
    result = sched.run(_MAX_TIME)
    wall = time.perf_counter() - t0
    return result, wall


def _assert_bitwise_equal(inc, scalar):
    """Every decision and outcome of the two modes must be identical."""
    assert inc.placements == scalar.placements
    assert inc.completions == scalar.completions
    assert inc.utilization == scalar.utilization
    assert inc.end_time == scalar.end_time
    assert inc.placed == scalar.placed


def _run_both():
    # Warm both paths (machine tables, canonical profiles, numpy dispatch)
    # so the timed runs measure the scheduling loop, not one-time setup.
    warm_fleet = build_fleet(_MIX)
    warm_trace = build_trace(
        TraceSpec(kind="poisson", rate_per_s=4.0, arrivals=8, seed=1)
    )
    for scoring in ("incremental", "scalar"):
        FleetScheduler(
            warm_fleet, warm_trace, SchedulerConfig(scoring=scoring, tick_s=2.0)
        ).run(_MAX_TIME)
    inc, inc_wall = _run("incremental")
    scalar, scalar_wall = _run("scalar")
    _assert_bitwise_equal(inc, scalar)
    return {
        "arrivals": inc.arrivals,
        "inc_entries": inc.entries_scored,
        "scalar_entries": scalar.entries_scored,
        "inc_wall": inc_wall,
        "scalar_wall": scalar_wall,
        "inc_solver_calls": inc.solver_calls,
        "scalar_solver_calls": scalar.solver_calls,
    }


class BenchFleet:
    def test_arrivals_per_second(self, benchmark, once, capsys, ledger):
        r = once(benchmark, _run_both)
        inc_aps = r["arrivals"] / r["inc_wall"]
        scalar_aps = r["arrivals"] / r["scalar_wall"]
        speedup = r["scalar_wall"] / r["inc_wall"]
        ledger(
            "fleet",
            {
                "arrivals": r["arrivals"],
                "entries_scored": r["inc_entries"],
                "scalar_entries_scored": r["scalar_entries"],
                "incremental_arrivals_per_s": inc_aps,
                "scalar_arrivals_per_s": scalar_aps,
                "speedup": speedup,
            },
            guarded=("speedup", "incremental_arrivals_per_s"),
            wall_s=r["inc_wall"] + r["scalar_wall"],
        )
        with capsys.disabled():
            machines = sum(c for _n, c in _MIX)
            print()
            print(f"Fleet scheduling ({machines} machines, {r['arrivals']} arrivals):")
            print(
                f"  incremental: {inc_aps:8.1f} arrivals/s "
                f"({r['inc_entries']} candidates scored, "
                f"{r['inc_solver_calls']} solver calls)"
            )
            print(
                f"  scalar     : {scalar_aps:8.1f} arrivals/s "
                f"({r['scalar_entries']} candidates scored, "
                f"{r['scalar_solver_calls']} solver calls)"
            )
            print(f"  speedup    : {speedup:.2f}x")
        # The headline claim: >= 20x arrivals/sec over the scalar reference.
        if not _QUICK:
            assert speedup >= 20.0
