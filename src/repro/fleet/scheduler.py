"""Trace-driven fleet scheduler with incremental, delta-scored ticks.

Each scheduling tick the scheduler admits arrivals, then places pending
apps greedily in arrival order: every (app x machine x worker-set)
candidate is ranked by the configured discipline and the first-max
wins. The production scoring mode (``scoring="incremental"``, the
default) only solves what changed: candidate scores are memoised per
machine keyed by its monotonic
:attr:`~repro.fleet.backend.MachineBackend.state_version` (plus the
arrival kind, worker set, and active capacity-scale key), candidates
that provably cannot beat the incumbent best are pruned by a cheap
residual-capacity bound (:func:`repro.memsim.candidate_rate_bound`),
and the surviving solves of a tick share one
:func:`repro.memsim.solve_batch_fleet_lazy` call.

``scoring="scalar"`` is the reference: a plain loop that solves every
candidate from scratch with one :func:`repro.memsim.solve` each. Because
memoised scores replay bitwise, pruning only ever removes
provably-losing candidates, and the batched solver is bitwise-identical
to the scalar one, both modes produce byte-for-byte the same
placements, completions, and SLO accounting — with and without chaos
faults (asserted by ``tests/test_fleet_incremental.py`` and the fleet
benchmarks).

Between ticks the fleet skips idle spans in one jump (to the tick
containing the next arrival, or to the horizon when only running apps
remain), so sparse traces cost time proportional to events, not to
simulated seconds.

Fault tolerance (``faults=`` / :mod:`repro.fleet.faults`): under a
:class:`~repro.fleet.faults.FleetFaultPlan` the scheduler evicts the
residents of crashing machines and requeues them with bounded
exponential backoff (``recovery="requeue"``; ``"requeue+checkpoint"``
additionally resumes from the last completed progress quantum), skips
crashed and circuit-breaker-blocked machines when placing, scores
degraded machines with scaled link capacities, and realises
admission-rejection / lost-completion draws in decision order so both
scoring modes see identical fault sequences. Every fault hook is gated
on the injector: ``faults=None`` (or a null plan) leaves the fault-free
run byte-for-byte what it was before the fault layer existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fleet.backend import (
    FleetCompletion,
    MachineBackend,
    machine_seed,
    make_backend,
)
from repro.fleet.cluster import FleetNode
from repro.fleet.faults import HealthTracker, as_fleet_injector
from repro.memsim.contention import candidate_rate_bound, solve
from repro.memsim import solve_batch_fleet_lazy
from repro.engine.threads import pick_worker_nodes
from repro.experiments.common import Heartbeat
from repro.workloads.arrivals import ArrivalTrace

#: Scheduling disciplines: how a pending app ranks its feasible candidates.
DISCIPLINES = ("best-rate", "first-fit", "least-loaded")

#: Scoring modes: one scalar solve per candidate (the reference the tests
#: and benchmarks compare against), or memo+prune delta scoring
#: ("incremental", the default) — byte-for-byte identical.
SCORINGS = ("scalar", "incremental")

#: Reserved app id of memoised candidate consumers. Trace app ids are
#: ``"job<N>"`` and can never collide with it, so one cached consumer
#: list scores every arrival of a kind: the solver's rates are positional
#: and :meth:`BatchArrays.app_total_rate` matches by id, so reading the
#: placeholder's total is bitwise the score the real app would get.
_CAND_APP = "\x00cand"

#: Sentinel score of a candidate eliminated by the rate bound.
_PRUNED = object()

#: Recovery policies for work interrupted by a machine crash (or a lost
#: completion report): strand it, requeue it from scratch, or requeue it
#: from its last completed checkpoint quantum.
RECOVERIES = ("none", "requeue", "requeue+checkpoint")


@dataclass(frozen=True)
class SchedulerConfig:
    """Scheduler knobs (all folded into the run fingerprint)."""

    backend: str = "flow"
    policy: str = "bwap"
    dwp: float = 0.8
    tick_s: float = 5.0
    worker_counts: Tuple[int, ...] = (1, 2)
    max_pending_per_tick: int = 8
    discipline: str = "best-rate"
    scoring: str = "incremental"
    #: What happens to work a crash (or lost completion) interrupts.
    recovery: str = "requeue"
    #: Re-placements allowed per app beyond its first attempt.
    max_retries: int = 3
    #: Base of the exponential requeue backoff: attempt ``a``'s failure
    #: delays re-eligibility by ``retry_backoff_s * 2**(a-1)``.
    retry_backoff_s: float = 20.0
    #: Progress-checkpoint granularity (fraction of the app's work);
    #: ``"requeue+checkpoint"`` resumes from the last completed quantum.
    checkpoint_quantum: float = 0.25
    #: SLO deadline multiplier: an app meets its SLO when it finishes
    #: within ``slo_slowdown`` times its fault-free ideal duration.
    slo_slowdown: float = 4.0
    #: Circuit-breaker cooldown after a restart (doubles per crash of the
    #: same machine); 0 disables the breaker.
    breaker_cooldown_s: float = 60.0
    #: Kept only so callers that still pin the serial setting
    #: (``shards=1``) keep working: every solve runs in-process, so any
    #: other value raises. Not part of the run fingerprint.
    shards: int = 1

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ValueError(f"tick_s must be positive, got {self.tick_s}")
        if not self.worker_counts or any(k <= 0 for k in self.worker_counts):
            raise ValueError(f"bad worker_counts {self.worker_counts}")
        if self.max_pending_per_tick <= 0:
            raise ValueError(
                f"max_pending_per_tick must be positive, got {self.max_pending_per_tick}"
            )
        if self.discipline not in DISCIPLINES:
            raise ValueError(
                f"unknown discipline {self.discipline!r}; use {DISCIPLINES}"
            )
        if self.scoring not in SCORINGS:
            raise ValueError(f"unknown scoring {self.scoring!r}; use {SCORINGS}")
        if not 0 <= self.dwp <= 1:
            raise ValueError(f"dwp must be in [0, 1], got {self.dwp}")
        if self.recovery not in RECOVERIES:
            raise ValueError(f"unknown recovery {self.recovery!r}; use {RECOVERIES}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be non-negative, got {self.retry_backoff_s}"
            )
        if not 0 < self.checkpoint_quantum <= 1:
            raise ValueError(
                f"checkpoint_quantum must be in (0, 1], got {self.checkpoint_quantum}"
            )
        if self.slo_slowdown < 1:
            raise ValueError(f"slo_slowdown must be >= 1, got {self.slo_slowdown}")
        if self.breaker_cooldown_s < 0:
            raise ValueError(
                f"breaker_cooldown_s must be non-negative, got {self.breaker_cooldown_s}"
            )
        if self.shards != 1:
            raise ValueError(
                f"shards must be 1 (solves always run in-process), got {self.shards}"
            )


@dataclass
class FleetResult:
    """Everything a fleet run produced, in deterministic order."""

    #: Admission decisions in decision order: ``(app_id, mid, workers)``.
    #: Requeued apps appear once per placement attempt.
    placements: List[Tuple[str, int, Tuple[int, ...]]]
    #: Completions sorted by ``(finish_s, app_id)``.
    completions: List[FleetCompletion]
    arrivals: int
    placed: int
    pending_left: int
    ticks: int
    #: Solver invocations: one per scored entry in scalar mode, at most
    #: one batched call per tick in incremental mode.
    solver_calls: int
    entries_scored: int
    end_time: float
    utilization: Dict[int, float]
    machine_class: Dict[int, str]
    # ---- fault-tolerance accounting (zeros on a fault-free run) ------- #
    #: Apps put back in the queue after a crash eviction or a lost
    #: completion report.
    requeues: int = 0
    #: Apps abandoned: recovery disabled, or the retry budget exhausted.
    stranded: int = 0
    #: Placement decisions bounced by the lossy admission path.
    admission_rejections: int = 0
    #: Completion reports that were lost (the work had to be redone).
    completions_lost: int = 0
    #: Work performed and then discarded (crash progress below the last
    #: checkpoint, rerun work after lost completions, stranded progress).
    lost_work_bytes: float = 0.0
    #: Completions that missed their SLO deadline.
    slo_violations: int = 0
    #: Total work submitted by the arrivals that entered the system.
    arrived_work_bytes: float = 0.0
    #: Total original work of the apps that completed (goodput numerator:
    #: checkpoint-resumed attempts still credit the full app).
    completed_work_bytes: float = 0.0
    #: ``1 - sum(downtime) / (machines * end_time)``.
    availability: float = 1.0
    #: Seconds each machine spent crashed within ``[0, end_time]``.
    machine_downtime: Dict[int, float] = field(default_factory=dict)
    # ---- incremental-scheduling observability (zeros on scalar runs,
    # ---- where every candidate is re-scored from scratch) ------------- #
    #: Candidate scores replayed from the version-keyed memo.
    memo_hits: int = 0
    #: Candidates eliminated by the residual-capacity rate bound.
    bound_pruned: int = 0


class _Pend:
    """One pending (or requeued) arrival awaiting placement."""

    __slots__ = ("idx", "eligible_s", "attempts", "resume_frac", "done")

    def __init__(self, idx: int, eligible_s: float):
        self.idx = idx
        self.eligible_s = eligible_s
        #: Placements so far (0 while never placed).
        self.attempts = 0
        #: Checkpointed fraction of the original work already banked.
        self.resume_frac = 0.0
        #: Retired from the pending queue (admitted); awaiting compaction.
        self.done = False


class _PendQueue:
    """Order-preserving pending queue with O(1) amortised retirement.

    A saturated trace keeps hundreds of thousands of arrivals pending,
    and ``list.remove`` on every admit is O(queue) — the backlog shift
    alone dominated million-arrival runs. Admits instead flag the record
    ``done`` and the queue compacts lazily: leading retired records are
    popped by advancing a head pointer (admits overwhelmingly retire
    from the front of the queue, where the tick batches come from), and
    the backing list is trimmed once the dead prefix dominates. Visible
    order — arrivals and requeues append, retired records disappear — is
    exactly that of the plain list this replaces, so every scoring mode
    sees identical batches.
    """

    __slots__ = ("_items", "_head", "_retired")

    def __init__(self) -> None:
        self._items: List[_Pend] = []
        self._head = 0  # leading retired records already skipped
        self._retired = 0  # retired records at index >= _head

    def __len__(self) -> int:
        return len(self._items) - self._head - self._retired

    def append(self, rec: _Pend) -> None:
        if rec.done:
            # A requeued record may still occupy its retired slot; drop
            # the stale entry so its position becomes the queue tail.
            self._compact()
            rec.done = False
        self._items.append(rec)

    def retire(self, rec: _Pend) -> None:
        rec.done = True
        self._retired += 1

    def _compact(self) -> None:
        self._items = [
            r for r in self._items[self._head:] if not r.done
        ]
        self._head = 0
        self._retired = 0

    def batch(self, limit: int, now: Optional[float] = None) -> List[_Pend]:
        """First ``limit`` live records, optionally only those eligible
        at ``now`` — the same records ``pending[:limit]`` (or the
        eligibility-filtered slice) used to yield."""
        items = self._items
        h = self._head
        n = len(items)
        while h < n and items[h].done:
            h += 1
            self._retired -= 1
        self._head = h
        if h > 1024 and h * 2 >= n:
            del items[:h]
            self._head = 0
        out: List[_Pend] = []
        for idx in range(self._head, len(items)):
            r = items[idx]
            if r.done or (now is not None and r.eligible_s > now):
                continue
            out.append(r)
            if len(out) >= limit:
                break
        return out


def _trace_work_bytes(trace: ArrivalTrace, count: int) -> float:
    """Total ``work_bytes`` of the first ``count`` arrivals (vectorised)."""
    if count <= 0:
        return 0.0
    base = np.array([wl.work_bytes for wl in trace.catalog])
    return float(
        (base[np.asarray(trace.kind_idx[:count], dtype=int)] * trace.work_scale[:count]).sum()
    )


class FleetScheduler:
    """Admits a trace onto a fleet of machine backends."""

    def __init__(
        self,
        fleet: Sequence[FleetNode],
        trace: ArrivalTrace,
        config: SchedulerConfig = SchedulerConfig(),
        *,
        seed: int = 42,
        faults=None,
    ):
        self.fleet = list(fleet)
        for idx, node in enumerate(self.fleet):
            if node.mid != idx:
                raise ValueError(f"fleet node {idx} has mid {node.mid}")
        self.trace = trace
        self.config = config
        self.injector = as_fleet_injector(faults, num_machines=len(self.fleet))
        #: Worker-set choices keyed by (machine identity, occupied nodes,
        #: k) — pure and shared across ticks and same-class machines.
        self._worker_cache: Dict[Tuple[int, Tuple[int, ...], int], Tuple[int, ...]] = {}
        # ---- incremental-scoring state (unused by the scalar mode) ---- #
        #: Candidate (consumers, threads) templates keyed by (machine
        #: identity, workers, arrival kind), built once under the
        #: reserved ``_CAND_APP`` id. Consumers depend on the workload
        #: only through fields ``work_scale`` never touches, so one
        #: template serves every arrival of a kind across ticks and
        #: same-class machines — for scoring, bounds, and (re-labelled
        #: with the real app id) the fluid admit path.
        self._cand_cache: Dict[Tuple[int, Tuple[int, ...], int], tuple] = {}
        #: Per-machine score memo: mid -> (state_version, {(scale_key,
        #: workers, kind): score}). The bucket is discarded whenever the
        #: backend's version moved (versions are monotonic, never reused).
        self._score_memo: Dict[int, Tuple[int, Dict[tuple, float]]] = {}
        #: Empty-machine scores keyed by (machine identity, workers, kind,
        #: scale_key) — independent of any state version, shared across
        #: same-class machines, and valid forever.
        self._empty_memo: Dict[tuple, float] = {}
        #: Rate upper bounds, same key space as :attr:`_empty_memo`.
        self._bound_memo: Dict[tuple, float] = {}
        self.backends: List[MachineBackend] = [
            make_backend(
                config.backend,
                node.mid,
                node.class_name,
                node.machine,
                policy=config.policy,
                dwp=config.dwp,
                seed=machine_seed(seed, node.mid),
                slo_slowdown=config.slo_slowdown,
                # The full-fidelity backend degrades inside its own
                # simulator (per-link fault windows); the fluid backend
                # degrades through per-advance capacity scales instead.
                sim_faults=(
                    self.injector.sim_fault_plan(node.mid, node.machine)
                    if self.injector is not None and config.backend == "sim"
                    else None
                ),
            )
            for node in self.fleet
        ]

    # ------------------------------------------------------------------ #
    # Candidate ranking
    # ------------------------------------------------------------------ #

    def _rank_key(self, backend: MachineBackend, score: float, k: int) -> tuple:
        """Larger key wins; ties break toward lower machine id, smaller k."""
        d = self.config.discipline
        if d == "best-rate":
            return (score, -backend.mid, -k)
        if d == "first-fit":
            return (-backend.mid, -k)
        # least-loaded: most free nodes first, then predicted rate.
        return (len(backend.free_nodes()), score, -backend.mid, -k)

    def _eligible(self, now: float, health) -> List[MachineBackend]:
        """Machines that may take a placement at ``now``: neither crashed
        nor held out by the circuit breaker."""
        injector = self.injector
        if injector is None:
            return self.backends
        return [
            b
            for b in self.backends
            if not injector.crashed_at(b.mid, now) and health.allows(b.mid, now)
        ]

    # ------------------------------------------------------------------ #
    # Scalar reference
    # ------------------------------------------------------------------ #

    def _tick_scalar(self, batch, scales, now, health, place, counts) -> None:
        """Reference tick: every candidate solved from scratch.

        Apps are placed in arrival order. For each one, every unclaimed
        eligible machine and feasible worker count is scored with one
        :func:`solve` of the machine's residents plus the candidate, and
        the first-max :meth:`_rank_key` wins. :meth:`_tick_incremental`
        must reproduce these decisions bit for bit.
        """
        trace = self.trace
        eligible = self._eligible(now, health)
        claimed: set = set()
        for r in batch:
            app_id = trace.app_id(r.idx)
            workload = trace.workload(r.idx)
            best = None
            for b in eligible:
                if b.mid in claimed:
                    continue
                resident = b.resident_consumers() if b.num_live else []
                free_len = len(b.free_nodes())
                for k in self.config.worker_counts:
                    if k > free_len:
                        continue
                    workers = pick_worker_nodes(
                        b.machine, k, exclude=b.occupied_nodes()
                    )
                    cons, _threads, _tpn = b.candidate_consumers(
                        app_id, workload, workers
                    )
                    alloc = solve(
                        b.machine, resident + cons, capacity_scale=scales.get(b.mid)
                    )
                    counts["solver_calls"] += 1
                    counts["entries_scored"] += 1
                    key = self._rank_key(b, alloc.app_total_rate(app_id), k)
                    if best is None or key > best[0]:
                        best = (key, b, workers)
            if best is not None and place(r, best[1], best[2]):
                claimed.add(best[1].mid)

    # ------------------------------------------------------------------ #
    # Incremental scoring
    # ------------------------------------------------------------------ #

    def _cand_template(self, backend: MachineBackend, workers, kind: int, p: int):
        """Memoised candidate ``(consumers, threads)`` of (machine,
        workers, kind) under the reserved ``_CAND_APP`` id. Exact across
        arrivals of a kind: per-arrival work scaling touches only
        ``work_bytes``, which the construction never reads."""
        key = (id(backend.machine), workers, kind)
        tpl = self._cand_cache.get(key)
        if tpl is None:
            cons, threads, _tpn = backend.candidate_consumers(
                _CAND_APP, self.trace.workload(p), workers
            )
            tpl = (cons, threads)
            self._cand_cache[key] = tpl
        return tpl

    def _tick_incremental(self, batch, scales, now, health, place, counts) -> None:
        """One tick of the memo+prune decision procedure.

        Replays :meth:`_tick_scalar` exactly: apps are processed in
        arrival order, and each app's first-max ``_rank_key`` scan sees
        the same candidate set with the same float scores — replayed
        from the version-keyed memo, freshly solved, or absent only when
        the rate bound proves the candidate loses to the incumbent.
        Machines claimed by earlier admissions this tick are skipped at
        admission time, and unclaimed machines' occupancy never mutates
        mid-tick, so worker sets and free-node counts match too.
        """
        cfg = self.config
        injector = self.injector
        kind_idx = self.trace.kind_idx
        rank_key = self._rank_key
        empty_memo = self._empty_memo
        eligible = self._eligible(now, health)
        resident_cache: Dict[int, list] = {}
        workers_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        claimed: set = set()
        memo_hits = 0

        def pick_workers(b: MachineBackend, k: int) -> Tuple[int, ...]:
            ck = (b.mid, k)
            workers = workers_cache.get(ck)
            if workers is None:
                wk = (id(b.machine), b.occupied_nodes(), k)
                workers = self._worker_cache.get(wk)
                if workers is None:
                    workers = pick_worker_nodes(b.machine, k, exclude=wk[1])
                    self._worker_cache[wk] = workers
                workers_cache[ck] = workers
            return workers

        def admit(r, b: MachineBackend, workers: Tuple[int, ...]) -> None:
            p = r.idx
            template = self._cand_template(b, workers, int(kind_idx[p]), p)
            if place(r, b, workers, template):
                claimed.add(b.mid)

        if cfg.discipline == "first-fit":
            # first-fit ranks on (-mid, -k) alone: the winner is the
            # lowest-mid feasible machine at its smallest feasible worker
            # count, found by an early-exit scan — zero solver work.
            for r in batch:
                for b in eligible:
                    if b.mid in claimed:
                        continue
                    free_len = len(b.free_nodes())
                    ks = [k for k in cfg.worker_counts if k <= free_len]
                    if ks:
                        admit(r, b, pick_workers(b, min(ks)))
                        break
            return

        # --- Phase A: per-kind prefetch (memo replay + prune + ONE solve)
        # Candidate scores depend on the arrival only through its kind,
        # and no machine state changes until phase B admits — so one
        # scan per *distinct kind* covers every app in the batch, and
        # all cold survivors across kinds share a single batch solve.
        # Each kind ends up with its full candidate list sorted by
        # descending rank key.
        last_at: Dict[int, int] = {}
        for j, r in enumerate(batch):
            last_at[int(kind_idx[r.idx])] = j
        kind_cands: Dict[int, List[tuple]] = {}
        entries: List[tuple] = []
        entry_scales: List[Optional[np.ndarray]] = []
        meta: List[tuple] = []
        for r in batch:
            p = r.idx
            kind = int(kind_idx[p])
            if kind in kind_cands:
                continue
            cands: List[tuple] = []
            kind_cands[kind] = cands
            per_mid_best: Dict[int, tuple] = {}
            cold: List[tuple] = []
            for b in eligible:
                mid = b.mid
                free_len = len(b.free_nodes())
                scale_key = (
                    injector.scale_key_for(mid, now) if injector is not None else None
                )
                if b.num_live:
                    memo = self._score_memo.get(mid)
                    if memo is None or memo[0] != b.state_version:
                        memo = (b.state_version, {})
                        self._score_memo[mid] = memo
                    bucket = memo[1]
                    empty = False
                else:
                    bucket = empty_memo
                    empty = True
                for k in cfg.worker_counts:
                    if k > free_len:
                        continue
                    workers = pick_workers(b, k)
                    mkey = (
                        (id(b.machine), workers, kind, scale_key)
                        if empty
                        else (scale_key, workers, kind)
                    )
                    score = bucket.get(mkey)
                    if score is None:
                        cold.append((b, workers, k, scale_key, bucket, mkey))
                    else:
                        memo_hits += 1
                        key = rank_key(b, score, k)
                        cands.append((key, b, workers))
                        pb = per_mid_best.get(mid)
                        if pb is None or key > pb:
                            per_mid_best[mid] = key
            if cold:
                # Prune threshold: by the time the *last* app of this
                # kind (batch index j_max) scans, at most j_max machines
                # are claimed. A cold candidate whose bound key loses to
                # the per-machine best hit of j_max + 1 DISTINCT machines
                # therefore always has an unclaimed, listed candidate
                # above it — dropping it can never change any app's
                # first-max. (Bound keys upper-bound true keys, and the
                # unique (mid, k) tail rules out ties.)
                need = last_at[kind] + 1
                if len(per_mid_best) > need:
                    thresh = sorted(per_mid_best.values(), reverse=True)[need]
                else:
                    thresh = None
                for b, workers, k, scale_key, bucket, mkey in cold:
                    cons = self._cand_template(b, workers, kind, p)[0]
                    scale = scales.get(b.mid) if injector is not None else None
                    bkey = (id(b.machine), workers, kind, scale_key)
                    bound = self._bound_memo.get(bkey)
                    if bound is None:
                        bound = candidate_rate_bound(
                            b.machine, cons, capacity_scale=scale
                        )
                        self._bound_memo[bkey] = bound
                    if thresh is not None and rank_key(b, bound, k) < thresh:
                        counts["bound_pruned"] += 1
                        continue
                    res = resident_cache.get(b.mid)
                    if res is None:
                        res = b.resident_consumers() if b.num_live else []
                        resident_cache[b.mid] = res
                    entries.append((b.machine, res + cons))
                    entry_scales.append(scale)
                    meta.append((kind, b, workers, k, bucket, mkey))
        if entries:
            counts["solver_calls"] += 1
            counts["entries_scored"] += len(entries)
            fb = solve_batch_fleet_lazy(
                entries,
                capacity_scales=entry_scales if injector is not None else None,
            )
            for i, (kind, b, workers, k, bucket, mkey) in enumerate(meta):
                score = fb.app_total_rate(i, _CAND_APP)
                bucket[mkey] = score
                kind_cands[kind].append((rank_key(b, score, k), b, workers))
        for cands in kind_cands.values():
            # Rank keys are unique, so the sort never compares backends.
            cands.sort(key=lambda c: c[0], reverse=True)
        # --- Phase B: sequential admission over the sorted lists --------
        # The first unclaimed entry IS the scalar scan's first-max:
        # unclaimed machines' state is frozen within the tick, claimed
        # machines are skipped by both paths, and every unpruned
        # candidate is listed.
        for r in batch:
            for _key, b, workers in kind_cands[int(kind_idx[r.idx])]:
                if b.mid not in claimed:
                    admit(r, b, workers)
                    break
        counts["memo_hits"] += memo_hits

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self, max_time: float = 1_000_000.0) -> FleetResult:
        if max_time <= 0:
            raise ValueError(f"max_time must be positive, got {max_time}")
        cfg = self.config
        injector = self.injector
        health = (
            HealthTracker(cfg.breaker_cooldown_s) if injector is not None else None
        )
        times = self.trace.times
        n = len(self.trace)
        i = 0  # next arrival index
        now = 0.0
        pending = _PendQueue()
        placements: List[Tuple[str, int, Tuple[int, ...]]] = []
        ticks = 0
        requeues = 0
        stranded = 0
        admission_rejections = 0
        completions_lost = 0
        lost_work_bytes = 0.0
        #: Pending records of the currently running attempts (injector
        #: runs only — fault-free runs never need to find them again).
        inflight: Dict[str, _Pend] = {}
        seen_completions = [0] * len(self.backends)
        last_fault_t = -math.inf
        hb = Heartbeat(n, label="fleet")
        tick = (
            self._tick_incremental
            if cfg.scoring == "incremental"
            else self._tick_scalar
        )
        #: Scoring counters (memo and bound counts stay zero on scalar runs).
        counts = {
            "solver_calls": 0,
            "entries_scored": 0,
            "memo_hits": 0,
            "bound_pruned": 0,
        }

        def place(r: _Pend, b: MachineBackend, workers, template=None) -> bool:
            """Admit ``r`` onto ``b`` unless the lossy admission path
            bounces it (it then stays pending and retries next tick)."""
            nonlocal admission_rejections
            if injector is not None and injector.admission_rejected():
                admission_rejections += 1
                return False
            p = r.idx
            app_id = self.trace.app_id(p)
            r.attempts += 1
            b.admit(
                app_id,
                self.trace.workload(p),
                workers,
                float(times[p]),
                resume_frac=r.resume_frac,
                attempts=r.attempts,
                template=template,
            )
            placements.append((app_id, b.mid, workers))
            pending.retire(r)
            if injector is not None:
                inflight[app_id] = r
            return True

        def requeue_or_strand(rec: _Pend, total_frac: float) -> None:
            """Decide the fate of interrupted work under the recovery
            policy; ``total_frac`` is the overall progress the app had
            banked when the fault hit."""
            nonlocal requeues, stranded, lost_work_bytes
            work_bytes = self.trace.workload(rec.idx).work_bytes
            if cfg.recovery == "none" or rec.attempts > cfg.max_retries:
                stranded += 1
                lost_work_bytes += total_frac * work_bytes
                return
            new_resume = 0.0
            if cfg.recovery == "requeue+checkpoint":
                q = cfg.checkpoint_quantum
                # Resume from the last completed quantum, but always
                # strictly below 1: a lost completion redoes at least its
                # final quantum.
                new_resume = min(
                    max(rec.resume_frac, math.floor(total_frac / q) * q),
                    math.floor((1.0 - 1e-12) / q) * q,
                )
            lost_work_bytes += max(0.0, total_frac - new_resume) * work_bytes
            rec.resume_frac = new_resume
            rec.eligible_s = now + cfg.retry_backoff_s * 2.0 ** (rec.attempts - 1)
            requeues += 1
            pending.append(rec)

        while now < max_time:
            while i < n and float(times[i]) <= now:
                pending.append(_Pend(i, float(times[i])))
                i += 1

            # --- Crash onsets reached by the last advance ----------------
            # Advances clamp at fault-window edges, so every crash start
            # in (last_fault_t, now] happened exactly at the current clock
            # and the backends' state is the pre-crash state at that time.
            if injector is not None:
                for _start, mid, end in injector.crash_starts_in(last_fault_t, now):
                    b = self.backends[mid]
                    health.record_crash(mid, end)
                    for app_id, attempt_frac in b.evict_all():
                        rec = inflight.pop(app_id)
                        total_frac = (
                            rec.resume_frac + (1.0 - rec.resume_frac) * attempt_frac
                        )
                        requeue_or_strand(rec, total_frac)
                last_fault_t = now

            # Capacity multipliers for this instant; the advance below is
            # clamped at window edges, so they hold for its whole span.
            scales: Dict[int, Optional[np.ndarray]] = {}
            if injector is not None:
                for b in self.backends:
                    scales[b.mid] = injector.capacity_scale_for(
                        b.mid, b.machine, now
                    )

            if injector is None:
                batch = pending.batch(cfg.max_pending_per_tick)
            else:
                batch = pending.batch(cfg.max_pending_per_tick, now)
            if batch:
                ticks += 1
                tick(batch, scales, now, health, place, counts)

            # --- Advance the fleet clock ---------------------------------
            live = any(b.num_live for b in self.backends)
            if pending:
                next_time = now + cfg.tick_s
            elif i < n:
                # Idle gap: jump straight to the tick holding the arrival.
                gap = max(1.0, math.ceil((float(times[i]) - now) / cfg.tick_s))
                next_time = now + cfg.tick_s * gap
            elif live:
                next_time = max_time  # drain the running apps
            else:
                break
            next_time = min(next_time, max_time)
            if injector is not None:
                # Never integrate across a fault-window edge: stop there,
                # process the crash / new scale set, then continue.
                edge = injector.next_edge_after(now)
                if edge is not None and edge < next_time:
                    next_time = edge
            if next_time <= now:
                break
            for b in self.backends:
                if injector is not None:
                    b.set_capacity_scale(scales.get(b.mid))
                b.advance(next_time)
            now = next_time

            # --- Lost completion reports ---------------------------------
            if injector is not None:
                for b in self.backends:
                    start = seen_completions[b.mid]
                    tail = b.completions[start:]
                    if tail:
                        kept = []
                        for comp in tail:
                            rec = inflight.pop(comp.app_id)
                            if injector.completion_lost():
                                completions_lost += 1
                                b.forget_app(comp.app_id)
                                # The attempt ran to the end; only the
                                # report was lost.
                                requeue_or_strand(rec, 1.0)
                            else:
                                kept.append(comp)
                        if len(kept) != len(tail):
                            b.completions[start:] = kept
                    seen_completions[b.mid] = len(b.completions)

            if hb.enabled:
                hb.beat(
                    sum(len(b.completions) for b in self.backends), force=False
                )

        completions: List[FleetCompletion] = []
        for b in self.backends:
            completions.extend(b.completions)
        completions.sort(key=lambda c: (c.finish_s, c.app_id))
        if hb.enabled:
            hb.beat(len(completions), force=True)
        end_time = now
        drained = not pending and i >= n and not any(b.num_live for b in self.backends)
        if drained and completions:
            # All work finished before the horizon: measure utilisation
            # over the span that actually saw activity.
            end_time = max(c.finish_s for c in completions)
        machine_downtime: Dict[int, float] = {}
        availability = 1.0
        if injector is not None and end_time > 0:
            machine_downtime = {
                b.mid: injector.downtime_in(b.mid, end_time) for b in self.backends
            }
            availability = 1.0 - sum(machine_downtime.values()) / (
                len(self.backends) * end_time
            )
        return FleetResult(
            placements=placements,
            completions=completions,
            arrivals=n,
            placed=len(placements),
            pending_left=len(pending),
            ticks=ticks,
            solver_calls=counts["solver_calls"],
            entries_scored=counts["entries_scored"],
            end_time=end_time,
            utilization={b.mid: b.utilization(end_time) for b in self.backends},
            machine_class={node.mid: node.class_name for node in self.fleet},
            requeues=requeues,
            stranded=stranded,
            admission_rejections=admission_rejections,
            completions_lost=completions_lost,
            lost_work_bytes=lost_work_bytes,
            slo_violations=sum(1 for c in completions if not c.slo_ok),
            arrived_work_bytes=_trace_work_bytes(self.trace, i),
            completed_work_bytes=sum(c.work_bytes for c in completions),
            availability=availability,
            machine_downtime=machine_downtime,
            memo_hits=counts["memo_hits"],
            bound_pruned=counts["bound_pruned"],
        )
