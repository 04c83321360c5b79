"""Replaying a stored plan under any ceiling that answers its checks alike.

Every completed plan is stored per (policy, cores, interfaces) on its
network with the largest total its power checks allowed and the smallest
they refused, and a later plan under a ceiling that allows the first and
refuses the second returns the stored assignments without running the loop.
The replayed plan must be exactly the plan the loop makes with the store
cleared.

The hypothesis property's example budget is hypothesis's active profile;
CI's ``schedule-oracle`` job runs it under the larger ``schedule-oracle``
profile registered in ``tests/conftest.py``.
"""

import functools
import math
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cores.core import build_core
from repro.errors import ReproError
from repro.itc02.model import Module
from repro.noc.network import Network, NocConfig
from repro.schedule import greedy
from repro.schedule.greedy import EventDrivenScheduler, GreedyScheduler
from repro.schedule.power import PowerConstraint
from repro.schedule.result import validate_schedule
from repro.schedule.variants import FastestCompletionScheduler
from repro.system.presets import PAPER_SYSTEMS, build_paper_system
from repro.tam.interfaces import InterfaceKind, TestInterface

SCHEDULERS = (GreedyScheduler, FastestCompletionScheduler)

#: The paper's fraction band and both ends of it.
FRACTIONS = [round(0.45 + 0.05 * step, 2) for step in range(12)]


@pytest.fixture
def loop_runs(monkeypatch):
    """Counts the plans that ran the event loop instead of replaying."""
    runs = []
    original = EventDrivenScheduler._run

    def counted(self, *args):
        runs.append(type(self).__name__)
        return original(self, *args)

    monkeypatch.setattr(EventDrivenScheduler, "_run", counted)
    return runs


def plan(scheduler, system, count, constraint):
    return scheduler.schedule(
        system_name=system.name,
        cores=system.cores,
        interfaces=system.interfaces(count),
        network=system.network,
        power_constraint=constraint,
    )


def outcome(scheduler, system, count, constraint):
    """A plan, or the type and message of the error it raised."""
    try:
        result = plan(scheduler, system, count, constraint)
    except ReproError as exc:
        return type(exc), str(exc)
    validate_schedule(result, expected_core_ids=system.core_ids)
    return result


def stored_plans(network):
    return greedy._PLANS.get(network, {})


def holds(stored, constraint):
    """Whether ``constraint`` answers a stored plan's checks as its run got
    them: it allows ``max_allowed`` and refuses ``min_refused``."""
    max_allowed, min_refused, _, _ = stored
    return constraint.allows(max_allowed) and (
        min_refused == math.inf or not constraint.allows(min_refused)
    )


def fresh_outcome(scheduler, system, count, constraint):
    """:func:`outcome` with the network's store cleared, which it then gets
    back as it was."""
    kept = greedy._PLANS.pop(system.network, None)
    try:
        return outcome(scheduler, system, count, constraint)
    finally:
        greedy._PLANS.pop(system.network, None)
        if kept is not None:
            greedy._PLANS[system.network] = kept


def ceilings(system, peak):
    """Unconstrained, the fraction band, and absolute ceilings at the
    threshold ``peak``, one ulp below it (still within
    :meth:`PowerConstraint.allows`'s tolerance), on the tolerance's edge
    (``peak - 1e-9`` and its neighbours, where a one-ulp disagreement between
    the checks and the validator's profile shows) and just past it."""
    yield PowerConstraint.unconstrained()
    for fraction in FRACTIONS:
        yield PowerConstraint.fraction_of_total(system.total_core_power, fraction)
    edge = peak - 1e-9
    for limit in (
        peak,
        math.nextafter(peak, 0.0),
        math.nextafter(edge, math.inf),
        edge,
        math.nextafter(edge, 0.0),
        peak - 2e-9,
    ):
        yield PowerConstraint(limit=limit)


@pytest.mark.parametrize("system_name", sorted(PAPER_SYSTEMS))
def test_replay_equals_a_plan_made_with_the_store_cleared(system_name, loop_runs):
    """All 100 paper (system, processors, scheduler) triples, under every
    ceiling of :func:`ceilings` in turn, the store filling as they go: the
    loop runs exactly when no stored plan holds the ceiling, and a ceiling
    below some core's cheapest test raises the same error either way."""
    system = build_paper_system(system_name)
    network = system.network
    for count in range(PAPER_SYSTEMS[system_name].processor_count + 1):
        for scheduler_type in SCHEDULERS:
            scheduler = scheduler_type()
            greedy._PLANS.pop(network, None)
            plan(scheduler, system, count, None)
            ((key, (unconstrained,)),) = stored_plans(network).items()
            for constraint in ceilings(system, unconstrained[0]):
                expect_replay = any(holds(p, constraint) for p in stored_plans(network)[key])
                before = len(loop_runs)
                replayed = outcome(scheduler, system, count, constraint)
                assert (len(loop_runs) == before) == expect_replay
                fresh = fresh_outcome(scheduler, system, count, constraint)
                assert replayed == fresh, (scheduler.name, count, constraint)


def test_a_refused_plan_is_stored_and_replays(loop_runs):
    """d695_leon with 6 reused processors is one of the cells where the
    paper's 50 % ceiling binds."""
    system = build_paper_system("d695_leon")
    network = system.network
    binding = PowerConstraint.fraction_of_total(system.total_core_power, 0.5)
    greedy._PLANS.pop(network, None)
    bound = plan(GreedyScheduler(), system, 6, binding)
    ((stored,),) = stored_plans(network).values()
    max_allowed, min_refused, _, _ = stored
    assert max_allowed <= binding.limit < min_refused < math.inf
    assert plan(GreedyScheduler(), system, 6, binding) == bound
    assert len(loop_runs) == 1
    unconstrained = plan(GreedyScheduler(), system, 6, None)
    assert unconstrained.makespan != bound.makespan
    assert len(loop_runs) == 2
    ((low, high),) = stored_plans(network).values()
    assert low == stored and high[1] == math.inf
    assert not binding.allows(high[0])


def test_stores_are_kept_apart_by_policy_and_interfaces(loop_runs):
    system = build_paper_system("d695_leon")
    greedy._PLANS.pop(system.network, None)
    for scheduler_type in SCHEDULERS:
        for count in (0, 2):
            plan(scheduler_type(), system, count, None)
    assert len(stored_plans(system.network)) == 4
    for scheduler_type in SCHEDULERS:
        for count in (0, 2):
            replayed = plan(scheduler_type(), system, count, None)
            assert replayed.scheduler_name == scheduler_type.name
    assert len(loop_runs) == 4


@functools.lru_cache(maxsize=None)
def paper_system(name):
    return build_paper_system(name)


def interval_edges(stored):
    """Absolute ceilings at either end of a stored plan's ceilings: each of
    its totals, one ulp to either side, and the ``1e-9`` tolerance band
    below it (its edge and that edge's neighbours)."""
    for total in stored[:2]:
        if total == math.inf:
            continue
        edge = total - 1e-9
        for limit in (
            total,
            math.nextafter(total, 0.0),
            math.nextafter(total, math.inf),
            edge,
            math.nextafter(edge, 0.0),
            math.nextafter(edge, math.inf),
            total - 5e-10,
        ):
            if limit > 0:
                yield PowerConstraint(limit=limit)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    system_name=st.sampled_from(["d695_leon", "d695_plasma", "p22810_leon"]),
    data=st.data(),
)
def test_replay_at_and_around_interval_ends_equals_a_fresh_plan(system_name, data):
    """Random ceilings below the unconstrained plan's checked peak, where
    they bind, fill the store; then, each against that filled store, every
    end of every stored interval and fresh random ceilings replay or run
    exactly as the loop plans them with the store cleared."""
    system = paper_system(system_name)
    count = data.draw(st.integers(0, PAPER_SYSTEMS[system_name].processor_count))
    scheduler = data.draw(st.sampled_from(SCHEDULERS))()
    greedy._PLANS.pop(system.network, None)
    plan(scheduler, system, count, None)
    ((unconstrained,),) = stored_plans(system.network).values()
    shares = st.floats(min_value=0.4, max_value=1.05)
    for share in data.draw(st.lists(shares, min_size=1, max_size=6)):
        outcome(scheduler, system, count, PowerConstraint(limit=unconstrained[0] * share))
    filled = dict(stored_plans(system.network))
    probes = [c for plans in filled.values() for p in plans for c in interval_edges(p)]
    probes += [
        PowerConstraint(limit=unconstrained[0] * share)
        for share in data.draw(st.lists(shares, max_size=3))
    ]
    for constraint in probes:
        greedy._PLANS[system.network] = dict(filled)
        replayed = outcome(scheduler, system, count, constraint)
        assert replayed == fresh_outcome(scheduler, system, count, constraint), constraint


def test_a_ceiling_sweep_keeps_each_key_within_the_bound(monkeypatch, loop_runs):
    """A fine sweep of d695_leon's band (6 reused processors) stores dozens
    of distinct plans on one key; with the bound lowered to 6 the key keeps
    the 6 newest, sorted, and still replays each ceiling as the loop plans
    it."""
    monkeypatch.setattr(greedy, "MAX_PLANS_PER_KEY", 6)
    system = build_paper_system("d695_leon")
    scheduler = GreedyScheduler()
    greedy._PLANS.pop(system.network, None)
    limits = [
        PowerConstraint.fraction_of_total(system.total_core_power, 0.3 + step / 400)
        for step in range(160)
    ]
    seen = set()
    for constraint in limits:
        plan(scheduler, system, 6, constraint)
        (kept,) = stored_plans(system.network).values()
        assert len(kept) <= 6
        assert [p[0] for p in kept] == sorted(p[0] for p in kept)
        seen.update(kept)
    assert len(loop_runs) > 12
    newest = sorted(seen, key=lambda p: p[2])[-6:]
    assert sorted(kept, key=lambda p: p[2]) == newest
    for constraint in limits[::8]:
        assert outcome(scheduler, system, 6, constraint) == fresh_outcome(
            scheduler, system, 6, constraint
        )


def zero_cycle_inputs():
    """``z`` takes zero cycles at cycle 0 beside ``b``, which starts then too;
    ``c`` waits for ``b``'s router port."""
    network = Network(NocConfig(width=3, height=1, flit_width=16))
    cores = []
    for index, (name, node, patterns) in enumerate(
        [("z", (1, 0), 0), ("b", (0, 0), 8), ("c", (2, 0), 2)]
    ):
        module = Module(
            number=index + 1,
            name=name,
            inputs=4 if patterns else 0,
            outputs=4 if patterns else 0,
            patterns=patterns,
            power=10.0,
        )
        core = build_core(module, flit_width=16)
        core.place_at(node)
        cores.append(core)
    interfaces = [
        TestInterface(
            identifier=f"ext{index}",
            kind=InterfaceKind.EXTERNAL,
            source_node=(1, 0),
            sink_node=(1, 0),
        )
        for index in range(2)
    ]
    return {"cores": cores, "interfaces": interfaces, "network": network}


def test_zero_cycle_test_counts_in_the_checked_peak_not_the_profile(loop_runs):
    """While ``z`` is registered its power counts in ``b``'s check, though it
    nets to zero in the power profile: a ceiling between the two peaks
    must run the loop, not replay."""
    inputs = zero_cycle_inputs()
    scheduler = GreedyScheduler()
    unconstrained = scheduler.schedule(system_name="zero", **inputs)
    times = {a.core_id: (a.start, a.end) for a in unconstrained.assignments}
    assert times["z"] == (0, 0) and times["b"][0] == 0
    (((max_allowed, _, _, _),),) = stored_plans(inputs["network"]).values()
    z_and_b = sum(a.power for a in unconstrained.assignments if a.core_id in ("z", "b"))
    assert max_allowed >= z_and_b > unconstrained.peak_power()

    between = PowerConstraint(limit=(unconstrained.peak_power() + z_and_b) / 2)
    runs = len(loop_runs)
    constrained = scheduler.schedule(system_name="zero", power_constraint=between, **inputs)
    assert len(loop_runs) == runs + 1
    greedy._PLANS.pop(inputs["network"])
    assert constrained == scheduler.schedule(
        system_name="zero", power_constraint=between, **inputs
    )
    validate_schedule(constrained, expected_core_ids=["z", "b", "c"])


def test_a_ceiling_just_below_the_checked_peak_still_validates():
    """p93791_plasma with 4 reused processors (fastest-completion): the
    tracker's checked peak and the power profile's peak summed the same
    powers in different orders, so a ceiling 1e-9 below the checked peak
    passed every check yet failed validation by one ulp."""
    system = build_paper_system("p93791_plasma")
    scheduler = FastestCompletionScheduler()
    greedy._PLANS.pop(system.network, None)
    unconstrained = plan(scheduler, system, 4, None)
    (((peak, _, _, _),),) = stored_plans(system.network).values()
    assert unconstrained.peak_power() == peak
    greedy._PLANS.pop(system.network)
    edge = plan(scheduler, system, 4, PowerConstraint(limit=peak - 1e-9))
    validate_schedule(edge, expected_core_ids=system.core_ids)
    assert edge.assignments == unconstrained.assignments


def test_threads_planning_one_network_replay_what_they_would_plan_alone(monkeypatch):
    """Eight threads on two cores, switching every microsecond, plan one
    system under many ceilings while storing into one store with a small
    bound: every plan equals the one planned alone, and every key keeps
    within its bound, sorted."""
    monkeypatch.setattr(greedy, "MAX_PLANS_PER_KEY", 4)
    system = build_paper_system("d695_leon")
    requests = [
        (scheduler_type, count, 0.3 + step / 50)
        for scheduler_type in SCHEDULERS
        for count in (4, 6)
        for step in range(0, 30, 3)
    ]

    def plan_request(request):
        scheduler_type, count, fraction = request
        constraint = PowerConstraint.fraction_of_total(system.total_core_power, fraction)
        return outcome(scheduler_type(), system, count, constraint)

    alone = {}
    for request in requests:
        greedy._PLANS.pop(system.network, None)
        alone[request] = plan_request(request)
    greedy._PLANS.pop(system.network, None)

    mismatches = []

    def worker(offset):
        for index in range(len(requests) * 2):
            request = requests[(index * 7 + offset) % len(requests)]
            if plan_request(request) != alone[request]:
                mismatches.append(request)

    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    for kept in stored_plans(system.network).values():
        assert len(kept) <= 4
        assert [p[0] for p in kept] == sorted(p[0] for p in kept)
