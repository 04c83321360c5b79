"""Availability bookkeeping for test interfaces.

The schedulers in :mod:`repro.schedule` are event driven: at every instant
they need to know which interfaces are idle, since when, and which are still
waiting for their processor to be tested.  :class:`ResourcePool` centralises
that state so that the greedy scheduler and its look-ahead variant share the
exact same bookkeeping and differ only in their selection policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ResourceError
from repro.tam.interfaces import TestInterface

#: Sentinel availability time for interfaces whose processor has not been
#: scheduled yet.  Using infinity keeps comparison logic trivial.
NEVER = float("inf")


@dataclass
class InterfaceState:
    """Mutable scheduling state of one test interface.

    Attributes:
        interface: the interface being tracked.
        enabled_at: time from which the interface may be used at all
            (0 for external interfaces, the processor's test completion time
            for processor interfaces, ``NEVER`` until that test is scheduled).
        free_at: time at which the interface finishes its current test.
        available_since: instant the interface last became simultaneously
            enabled and idle — this is the paper's "first test interface
            available" ordering key.
    """

    interface: TestInterface
    enabled_at: float = 0.0
    free_at: float = 0.0
    available_since: float = 0.0

    @property
    def identifier(self) -> str:
        """Identifier of the tracked interface."""
        return self.interface.identifier

    def available_at(self) -> float:
        """Earliest time the interface can start a new test."""
        return max(self.enabled_at, self.free_at)

    def is_available(self, now: float) -> bool:
        """True when the interface is enabled and idle at time ``now``."""
        return self.available_at() <= now


class ResourcePool:
    """Tracks the availability of a set of test interfaces over time."""

    def __init__(self, interfaces: Iterable[TestInterface]):
        self._states: dict[str, InterfaceState] = {}
        for interface in interfaces:
            if interface.identifier in self._states:
                raise ResourceError(
                    f"duplicate interface identifier {interface.identifier!r}"
                )
            enabled = NEVER if interface.requires_enablement else 0.0
            self._states[interface.identifier] = InterfaceState(
                interface=interface,
                enabled_at=enabled,
                available_since=enabled,
            )
        if not self._states:
            raise ResourceError("a resource pool needs at least one interface")
        # Registration-order tie-break map for available(); the pool's
        # membership is fixed after construction, so it is computed once
        # instead of per availability query.
        self._order: dict[str, int] = {
            identifier: index for index, identifier in enumerate(self._states)
        }

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[InterfaceState]:
        return iter(self._states.values())

    def __len__(self) -> int:
        return len(self._states)

    def state(self, identifier: str) -> InterfaceState:
        """State of the interface called ``identifier``."""
        try:
            return self._states[identifier]
        except KeyError as exc:
            raise ResourceError(f"unknown interface {identifier!r}") from exc

    def interfaces(self) -> list[TestInterface]:
        """All interfaces in the pool, in registration order."""
        return [state.interface for state in self._states.values()]

    def available(self, now: float) -> list[InterfaceState]:
        """Interfaces that are idle and enabled at ``now``.

        The list is ordered by the instant each interface became available
        (ties broken by registration order), which implements the paper's
        greedy "first test interface available" policy.
        """
        order = self._order
        candidates = [
            state for state in self._states.values() if state.is_available(now)
        ]
        candidates.sort(key=lambda s: (s.available_since, order[s.identifier]))
        return candidates

    def processor_interfaces_for(self, core_id: str) -> list[InterfaceState]:
        """Interfaces that become usable once core ``core_id`` is tested."""
        return [
            state
            for state in self._states.values()
            if state.interface.processor_core_id == core_id
        ]

    # ------------------------------------------------------------------
    # State transitions.
    # ------------------------------------------------------------------
    def occupy(self, identifier: str, start: float, end: float) -> None:
        """Mark the interface busy from ``start`` to ``end``."""
        state = self.state(identifier)
        if start < state.available_at():
            raise ResourceError(
                f"interface {identifier!r} cannot start at {start}: "
                f"not available before {state.available_at()}"
            )
        if end < start:
            raise ResourceError("occupation end must not precede its start")
        state.free_at = end
        state.available_since = end

    def enable(self, identifier: str, at: float) -> None:
        """Enable a processor interface at time ``at`` (its processor passed)."""
        state = self.state(identifier)
        if not state.interface.requires_enablement:
            raise ResourceError(
                f"interface {identifier!r} does not require enablement"
            )
        state.enabled_at = at
        state.available_since = max(at, state.free_at)
