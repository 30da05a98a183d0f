"""Independent max-min fairness certificate for contention allocations.

The identity tests prove that every solver entry point agrees with
:func:`repro.memsim.solve`; they cannot prove that ``solve`` itself is
right, because every entry point shares one progressive-filling loop.
This checker shares no solver code. It rebuilds each resource's load and
effective capacity from the machine description alone — routes, hop
efficiency, link and ingress capacities, the memory controller's
de-rating curve (reader count = distinct consumer nodes reading that
controller) and the write cost factor — and takes nothing from
``MachineTables`` except the ``res_keys`` order a capacity scale is
expressed in. It then checks the three conditions that certify a
max-min fair allocation:

1. no resource carries more than its capacity;
2. no consumer gets more than its demand;
3. every consumer below its demand crosses a saturated resource on which
   its rate is the largest among that resource's users.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsim.contention import machine_tables, solve, solve_batch_fleet_lazy
from repro.memsim.controller import MCModel
from repro.memsim.flows import Consumer
from repro.topology import ring
from repro.topology.builders import random_machine

#: Relative tolerance of every certificate comparison.
REL_TOL = 1e-6


def _usage(machine, consumer, mc_model):
    """Resource -> GB/s of load per GB/s of the consumer's rate."""
    use = {}
    write_scale = 1.0 + consumer.write_fraction * (mc_model.write_cost_factor - 1.0)
    w = consumer.node
    for s, frac in enumerate(consumer.mix):
        if frac <= 0.0:
            continue
        use[("mc", s)] = use.get(("mc", s), 0.0) + frac * write_scale
        if s == w:
            continue
        route = machine.route(s, w)
        overhead = 1.0 / machine.hop_efficiency ** max(0, route.hops - 1)
        for link in route.links:
            key = ("link", link.src, link.dst)
            use[key] = use.get(key, 0.0) + frac * overhead
        if math.isfinite(machine.ingress_capacity(w)):
            use[("ingress", w)] = use.get(("ingress", w), 0.0) + frac
    return use


def _capacity(machine, key, readers, mc_model):
    kind = key[0]
    if kind == "mc":
        peak = machine.node(key[1]).local_bandwidth
        return mc_model.effective_capacity(peak, len(readers[key[1]]))
    if kind == "link":
        return machine.link(key[1], key[2]).capacity
    return machine.ingress_capacity(key[1])


def assert_maxmin_certificate(machine, consumers, alloc, mc_model, scale=None):
    """Fail unless ``alloc`` is a max-min fair allocation of ``consumers``."""
    live = []
    for c in consumers:
        if c.demand > 0 and float(np.sum(c.mix)) > 0:
            live.append(c)
        else:
            assert alloc.rates[c.key()] == 0.0, c.key()
    usage = {c.key(): _usage(machine, c, mc_model) for c in live}
    readers = {}
    for c in live:
        for s, frac in enumerate(c.mix):
            if frac > 0.0:
                readers.setdefault(s, set()).add(c.node)
    scale_of = {}
    if scale is not None:
        scale_of = dict(zip(machine_tables(machine).res_keys, scale))

    load, cap, users = {}, {}, {}
    for c in live:
        rate = alloc.rates[c.key()]
        for key, coef in usage[c.key()].items():
            load[key] = load.get(key, 0.0) + coef * rate
            users.setdefault(key, []).append(c)
    for key in load:
        cap[key] = _capacity(machine, key, readers, mc_model) * scale_of.get(key, 1.0)

    # 1. Feasibility.
    for key, ld in load.items():
        assert ld <= cap[key] * (1 + REL_TOL), (key, ld, cap[key])
    # 2. Demand caps.
    for c in live:
        rate = alloc.rates[c.key()]
        assert 0.0 <= rate <= c.demand * (1 + REL_TOL), (c.key(), rate, c.demand)
    # 3. Every unsatisfied consumer has a saturated bottleneck it tops.
    for c in live:
        rate = alloc.rates[c.key()]
        if rate >= c.demand * (1 - REL_TOL):
            continue
        witnesses = [
            key
            for key in usage[c.key()]
            if load[key] >= cap[key] * (1 - REL_TOL)
            and all(
                alloc.rates[o.key()] <= rate * (1 + REL_TOL) for o in users[key]
            )
        ]
        assert witnesses, (c.key(), rate, c.demand)


_MC_MODELS = st.builds(
    MCModel,
    efficiency_floor=st.floats(0.3, 1.0),
    contention_decay=st.floats(0.0, 1.5),
    write_cost_factor=st.floats(1.0, 2.5),
)


@st.composite
def _machines(draw):
    if draw(st.booleans()):
        return random_machine(draw(st.integers(0, 10_000)))
    # Rings route multi-hop traffic over shared links.
    return ring(draw(st.integers(3, 6)), hop_efficiency=draw(st.floats(0.5, 1.0)))


@st.composite
def _consumer_sets(draw, machine):
    n = machine.num_nodes
    out, keys = [], set()
    for _ in range(draw(st.integers(0, 7))):
        app = f"app{draw(st.integers(0, 2))}"
        node = draw(st.integers(0, n - 1))
        if (app, node) in keys:
            continue
        keys.add((app, node))
        # Mixes are page-placement fractions: ratios of page counts.
        pages = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n)))
        mix = pages / pages.sum() if pages.sum() else np.zeros(n)
        demand = draw(
            st.one_of(st.just(0.0), st.floats(0.05, 40.0), st.just(math.inf))
        )
        out.append(
            Consumer(
                app,
                node,
                4,
                mix,
                demand,
                write_fraction=draw(st.floats(0.0, 1.0)),
            )
        )
    return out


def _scales(draw, machine):
    if not draw(st.booleans()):
        return None
    num_res = machine_tables(machine).num_res
    return np.array(
        draw(
            st.lists(
                st.floats(0.05, 1.0, exclude_min=True),
                min_size=num_res,
                max_size=num_res,
            )
        )
    )


@given(data=st.data(), mc_model=_MC_MODELS)
@settings(max_examples=150, deadline=None)
def test_solve_is_maxmin_fair(data, mc_model):
    machine = data.draw(_machines())
    consumers = data.draw(_consumer_sets(machine))
    scale = _scales(data.draw, machine)
    alloc = solve(machine, consumers, mc_model, capacity_scale=scale)
    assert_maxmin_certificate(machine, consumers, alloc, mc_model, scale)


@given(data=st.data(), mc_model=_MC_MODELS)
@settings(max_examples=40, deadline=None)
def test_fleet_batch_entries_are_maxmin_fair(data, mc_model):
    # One shared Machine object per class, as the fleet holds them.
    classes = [data.draw(_machines()) for _ in range(data.draw(st.integers(1, 3)))]
    entries, scales = [], []
    for _ in range(data.draw(st.integers(1, 8))):
        machine = classes[data.draw(st.integers(0, len(classes) - 1))]
        entries.append((machine, data.draw(_consumer_sets(machine))))
        scales.append(_scales(data.draw, machine))
    batch = solve_batch_fleet_lazy(entries, mc_model, capacity_scales=scales)
    for i, (machine, consumers) in enumerate(entries):
        assert_maxmin_certificate(
            machine, consumers, batch.allocation(i), mc_model, scales[i]
        )
