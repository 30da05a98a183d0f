"""Incremental fleet scheduling: memo replay and bound pruning.

The load-bearing property: ``scoring="incremental"`` is a pure
execution-strategy change. Placements, completions, SLO accounting, and
utilisation are bitwise-identical to the scalar reference, which solves
every candidate from scratch — across disciplines and backends, and
under full-intensity chaos (including capacity-scaling brown-outs) —
because the memo replays the very floats the solver produced and the
rate bound only ever discards candidates that provably lose the
rank-key scan.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.experiments.fleet import outcome_from_result
from repro.fleet import (
    FleetScheduler,
    SchedulerConfig,
    build_fleet,
    chaos_plan,
)
from repro.fleet.backend import FlowBackend, make_backend
from repro.fleet.scheduler import DISCIPLINES, SCORINGS
from repro.memsim import (
    DEFAULT_MC_MODEL,
    candidate_rate_bound,
    solve,
)
from repro.topology import machine_a, machine_b
from repro.workloads import TraceSpec, build_trace, trace_catalog

_MIX = (("A", 2), ("B", 2), ("dual", 1), ("sym4", 1))
_MIX16 = (("A", 4), ("B", 4), ("dual", 4), ("sym4", 4))


def _run(scoring, *, discipline="best-rate", faults=None, arrivals=40,
         rate=2.0, backend="flow", seed=11, mix=_MIX):
    fleet = build_fleet(mix)
    trace = build_trace(
        TraceSpec(kind="poisson", rate_per_s=rate, arrivals=arrivals, seed=7)
    )
    cfg = SchedulerConfig(
        backend=backend, scoring=scoring, discipline=discipline, tick_s=2.0,
        recovery="requeue+checkpoint",
    )
    return FleetScheduler(fleet, trace, cfg, seed=seed, faults=faults).run(
        1_000_000.0
    )


def _assert_identical(a, b):
    assert a.placements == b.placements
    assert a.completions == b.completions
    assert a.utilization == b.utilization
    assert a.end_time == b.end_time
    assert a.ticks == b.ticks
    assert a.requeues == b.requeues
    assert a.stranded == b.stranded
    assert a.admission_rejections == b.admission_rejections
    assert a.completions_lost == b.completions_lost
    assert a.lost_work_bytes == b.lost_work_bytes
    assert a.slo_violations == b.slo_violations
    assert a.availability == b.availability
    assert a.machine_downtime == b.machine_downtime


# --------------------------------------------------------------------- #
# Bitwise identity with the scalar reference
# --------------------------------------------------------------------- #


class TestIncrementalIdentity:
    @pytest.mark.parametrize("faults", [None, "chaos"], ids=["none", "chaos"])
    @pytest.mark.parametrize("backend", ["flow", "sim"])
    @pytest.mark.parametrize("discipline", DISCIPLINES)
    def test_same_as_scalar(self, discipline, backend, faults):
        # The simulator backend runs a sparser, shorter trace: every
        # machine steps a full epoch-kernel simulation.
        arrivals, rate = (40, 2.0) if backend == "flow" else (8, 0.5)
        plan = None
        if faults == "chaos":
            # Full intensity: crashes, flaps, capacity-scaling
            # brown-outs, lossy admission — every memo/bound/fresh path
            # runs with per-machine capacity scales in play.
            plan = chaos_plan(6, horizon_s=2.0 * arrivals / rate, seed=3)
            assert any(d.capacity_scale < 1.0 for d in plan.degradations)
        kw = dict(discipline=discipline, backend=backend, faults=plan,
                  arrivals=arrivals, rate=rate)
        ref = _run("scalar", **kw)
        inc = _run("incremental", **kw)
        _assert_identical(ref, inc)
        assert ref.placed > 0
        if plan is not None:
            # The plan must actually have fired for this to mean anything.
            assert ref.requeues + ref.admission_rejections > 0
        # The stored summary agrees too, except for the fields that
        # measure the scoring mode itself.
        mode_fields = dict(
            solver_calls=0, entries_scored=0, memo_hits=0, bound_pruned=0
        )
        assert dataclasses.replace(
            outcome_from_result(ref), **mode_fields
        ) == dataclasses.replace(outcome_from_result(inc), **mode_fields)

    # The three tests below pin the identity with the scalar reference
    # on inputs the grid above leaves out.

    @pytest.mark.parametrize(
        "discipline", ["best-rate", "first-fit", "least-loaded"]
    )
    def test_incremental_per_discipline(self, discipline):
        # A backlogged queue on a fleet big enough for the memo and the
        # bound to engage: several apps claim machines in one tick, so
        # pruning must keep every candidate that could win once the
        # best-scoring machines are taken.
        kw = dict(discipline=discipline, mix=_MIX16, arrivals=60, rate=8.0)
        ref = _run("scalar", **kw)
        inc = _run("incremental", **kw)
        _assert_identical(ref, inc)
        assert max(c.wait_s for c in ref.completions) > 0.0
        if discipline != "first-fit":
            assert inc.bound_pruned > 0

    def test_matches_scalar(self):
        # Identical machines score identically, so every placement is
        # decided by the first-max tie-break, and all of them share one
        # class memo.
        mix = (("A", 6),)
        ref = _run("scalar", mix=mix)
        inc = _run("incremental", mix=mix)
        _assert_identical(ref, inc)
        assert inc.memo_hits > 0

    def test_incremental_under_chaos(self):
        """Full-intensity chaos on the backlogged queue: crashes and
        brown-outs land while apps wait, so requeued apps re-enter a
        tick in which other apps claim machines too."""
        kw = dict(arrivals=40, rate=8.0)
        plan = chaos_plan(6, horizon_s=10.0, seed=3)
        assert any(d.capacity_scale < 1.0 for d in plan.degradations)
        ref = _run("scalar", faults=plan, **kw)
        _assert_identical(ref, _run("incremental", faults=plan, **kw))
        assert ref.requeues + ref.admission_rejections > 0

    def test_replay_is_deterministic(self):
        """Two independent schedulers (cold memo vs cold memo) and the
        counters they report agree exactly."""
        a = _run("incremental")
        b = _run("incremental")
        _assert_identical(a, b)
        assert (a.memo_hits, a.bound_pruned, a.entries_scored) == (
            b.memo_hits, b.bound_pruned, b.entries_scored
        )


# --------------------------------------------------------------------- #
# Counters and controls
# --------------------------------------------------------------------- #


class TestIncrementalCounters:
    def test_memo_and_pruning_cut_entries(self):
        # Enough same-class machines that memoised empty-machine scores
        # and the bound pay off against re-solving every candidate.
        scalar = _run("scalar", mix=_MIX16, arrivals=60, rate=4.0)
        inc = _run("incremental", mix=_MIX16, arrivals=60, rate=4.0)
        _assert_identical(scalar, inc)
        assert inc.memo_hits > 0
        assert inc.bound_pruned > 0
        assert inc.entries_scored < scalar.entries_scored
        # At most one batch solve per tick, and solve-free ticks skip
        # even that; the scalar reference solves once per entry.
        assert inc.solver_calls <= inc.ticks
        assert scalar.solver_calls == scalar.entries_scored

    def test_first_fit_needs_no_solver(self):
        inc = _run("incremental", discipline="first-fit")
        assert inc.solver_calls == 0
        assert inc.entries_scored == 0

    def test_exhaustive_modes_report_neutral_counters(self):
        scalar = _run("scalar")
        assert scalar.memo_hits == 0
        assert scalar.bound_pruned == 0

    def test_scoring_validation(self):
        assert SCORINGS == ("scalar", "incremental")
        assert SchedulerConfig().scoring == "incremental"
        for bad in ("bogus", "batched"):
            with pytest.raises(ValueError, match="scoring"):
                SchedulerConfig(scoring=bad)

    def test_shards_validation(self):
        assert SchedulerConfig(shards=1).shards == 1
        for bad in (0, 2):
            with pytest.raises(ValueError, match="shards"):
                SchedulerConfig(shards=bad)


# --------------------------------------------------------------------- #
# The rate bound is a true upper bound (pruning soundness)
# --------------------------------------------------------------------- #


class TestCandidateRateBound:
    @pytest.mark.parametrize("machine_fn", [machine_a, machine_b])
    @pytest.mark.parametrize("k", [1, 2])
    def test_bound_dominates_any_resident_context(self, machine_fn, k):
        """For every workload kind and worker set, the bound computed
        from the empty machine upper-bounds the candidate's achieved
        total rate in arbitrary resident company — the exact property
        pruning relies on."""
        machine = machine_fn()
        backend = make_backend(
            "flow", 0, "t", machine, policy="bwap", dwp=0.8, seed=1
        )
        catalog = trace_catalog(TraceSpec())
        rng = np.random.default_rng(0)
        workers = tuple(range(k))
        for wl in catalog[:4]:
            cons, _t, _tpn = backend.candidate_consumers("cand", wl, workers)
            bound = candidate_rate_bound(machine, cons)
            # Alone on the machine.
            alone = solve(machine, cons, DEFAULT_MC_MODEL)
            assert bound >= sum(
                alone.rates[(c.app_id, c.node)] for c in cons
            )
            # Against two random residents.
            residents = []
            for i, other in enumerate(rng.choice(catalog, size=2)):
                rcons, _t2, _tpn2 = backend.candidate_consumers(
                    f"res{i}", other, workers
                )
                residents.extend(rcons)
            crowded = solve(machine, residents + cons, DEFAULT_MC_MODEL)
            assert bound >= sum(
                crowded.rates[(c.app_id, c.node)] for c in cons
            )

    def test_bound_respects_capacity_scale(self):
        machine = machine_a()
        backend = make_backend(
            "flow", 0, "t", machine, policy="bwap", dwp=0.8, seed=1
        )
        wl = trace_catalog(TraceSpec())[0]
        cons, _t, _tpn = backend.candidate_consumers("cand", wl, (0,))
        from repro.memsim.contention import machine_tables

        num_res = len(machine_tables(machine).res_keys)
        scale = np.full(num_res, 0.5)
        scaled_bound = candidate_rate_bound(machine, cons, capacity_scale=scale)
        scaled = solve(machine, cons, DEFAULT_MC_MODEL, capacity_scale=scale)
        assert scaled_bound >= sum(
            scaled.rates[(c.app_id, c.node)] for c in cons
        )
        assert scaled_bound <= candidate_rate_bound(machine, cons)


# --------------------------------------------------------------------- #
# State-version bookkeeping (what keys the memo)
# --------------------------------------------------------------------- #


class TestStateVersion:
    def _backend(self) -> FlowBackend:
        return make_backend(
            "flow", 0, "t", machine_a(), policy="bwap", dwp=0.8, seed=1
        )

    def test_admit_finish_and_evict_bump(self):
        b = self._backend()
        wl = trace_catalog(TraceSpec())[0]
        v0 = b.state_version
        b.admit("a", wl, (0,), 0.0)
        assert b.state_version > v0
        v1 = b.state_version
        b.advance(1e9)  # the app finishes: completion bumps again
        assert b.state_version > v1
        b.admit("b", wl, (0,), 0.0)
        v2 = b.state_version
        assert b.evict_all() and b.state_version > v2
        v3 = b.state_version
        assert not b.evict_all() and b.state_version == v3

    def test_free_node_cache_tracks_versions(self):
        b = self._backend()
        free0 = b.free_nodes()
        b.admit("a", trace_catalog(TraceSpec())[0], (0,), 0.0)
        assert b.free_nodes() != free0
        assert 0 in b.occupied_nodes()
