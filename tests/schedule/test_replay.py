"""Replaying a clean plan under a ceiling that never binds.

A plan that no power check refused is stored per (policy, cores,
interfaces) on its network, and a later plan under a ceiling that allows its
``peak_checked`` returns the stored assignments without running the loop.
The replayed plan must be exactly the plan the loop makes with the store
cleared.
"""

import math

import pytest

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
    return greedy._CLEAN_PLANS.get(network, {})


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
    ceiling of :func:`ceilings`; a ceiling below some core's cheapest test
    must raise the same error either way."""
    system = build_paper_system(system_name)
    network = system.network
    for count in range(PAPER_SYSTEMS[system_name].processor_count + 1):
        for scheduler_type in SCHEDULERS:
            scheduler = scheduler_type()
            greedy._CLEAN_PLANS.pop(network, None)
            plan(scheduler, system, count, None)
            ((key, clean),) = stored_plans(network).items()
            peak = clean[0]
            for constraint in ceilings(system, peak):
                greedy._CLEAN_PLANS[network] = {key: clean}
                before = len(loop_runs)
                replayed = outcome(scheduler, system, count, constraint)
                assert (len(loop_runs) == before) == constraint.allows(peak)
                greedy._CLEAN_PLANS.pop(network)
                fresh = outcome(scheduler, system, count, constraint)
                assert replayed == fresh, (scheduler.name, count, constraint)


def test_a_refused_plan_is_never_stored(loop_runs):
    """d695_leon with 6 reused processors is one of the cells where the
    paper's 50 % ceiling binds."""
    system = build_paper_system("d695_leon")
    network = system.network
    binding = PowerConstraint.fraction_of_total(system.total_core_power, 0.5)
    greedy._CLEAN_PLANS.pop(network, None)
    bound = plan(GreedyScheduler(), system, 6, binding)
    assert stored_plans(network) == {}
    plan(GreedyScheduler(), system, 6, binding)
    assert len(loop_runs) == 2
    unconstrained = plan(GreedyScheduler(), system, 6, None)
    assert unconstrained.makespan != bound.makespan
    ((peak, _),) = stored_plans(network).values()
    assert not binding.allows(peak)


def test_stores_are_kept_apart_by_policy_and_interfaces(loop_runs):
    system = build_paper_system("d695_leon")
    greedy._CLEAN_PLANS.pop(system.network, None)
    for scheduler_type in SCHEDULERS:
        for count in (0, 2):
            plan(scheduler_type(), system, count, None)
    assert len(stored_plans(system.network)) == 4
    for scheduler_type in SCHEDULERS:
        for count in (0, 2):
            replayed = plan(scheduler_type(), system, count, None)
            assert replayed.scheduler_name == scheduler_type.name
    assert len(loop_runs) == 4


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
    ((peak_checked, _),) = stored_plans(inputs["network"]).values()
    z_and_b = sum(a.power for a in unconstrained.assignments if a.core_id in ("z", "b"))
    assert peak_checked >= z_and_b > unconstrained.peak_power()

    between = PowerConstraint(limit=(unconstrained.peak_power() + z_and_b) / 2)
    runs = len(loop_runs)
    constrained = scheduler.schedule(system_name="zero", power_constraint=between, **inputs)
    assert len(loop_runs) == runs + 1
    greedy._CLEAN_PLANS.pop(inputs["network"])
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
    greedy._CLEAN_PLANS.pop(system.network, None)
    unconstrained = plan(scheduler, system, 4, None)
    ((peak, _),) = stored_plans(system.network).values()
    assert unconstrained.peak_power() == peak
    greedy._CLEAN_PLANS.pop(system.network)
    edge = plan(scheduler, system, 4, PowerConstraint(limit=peak - 1e-9))
    validate_schedule(edge, expected_core_ids=system.core_ids)
    assert edge.assignments == unconstrained.assignments
