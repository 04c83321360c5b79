"""Test interfaces: the source/sink pairs a core test runs between.

A :class:`TestInterface` abstracts over the two kinds of test resources the
paper considers, so the scheduler can treat them uniformly:

* an **external** interface (ATE input port + output port), available from
  time zero, zero cycles of pattern-generation overhead;
* a **processor** interface (an embedded processor acting as source and sink),
  available only after the processor's own test has completed, with a
  per-pattern generation overhead and an application power contribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ResourceError
from repro.noc.topology import NodeCoordinate
from repro.processors.characterization import ProcessorCharacterization
from repro.tam.ports import EXTERNAL_CYCLES_PER_PATTERN, IoPort


class InterfaceKind(enum.Enum):
    """The two kinds of test interfaces the paper's planner knows about."""

    EXTERNAL = "external"
    PROCESSOR = "processor"


@dataclass(frozen=True)
class TestInterface:
    """A source/sink pair that can apply a core test over the NoC.

    Attributes:
        identifier: unique interface name (e.g. ``"ext0"`` or ``"proc.leon1"``).
        kind: external tester or reused processor.
        source_node: NoC node stimuli are injected from.
        sink_node: NoC node responses are drained to.
        cycles_per_pattern: pattern-generation overhead added to every pattern
            applied through this interface (0 for ATE, 10 for BIST-running
            processors by default).
        active_power: power drawn by the source/sink itself while a test is
            running (ATE channel power or processor application power).
        processor_core_id: for processor interfaces, the identifier of the
            core-under-test that embodies the processor; the interface only
            becomes usable after that core's test completes.
        memory_bytes: for processor interfaces, the memory available to the
            test application (used to check that a core's test fits).
    """

    __test__ = False

    identifier: str
    kind: InterfaceKind
    source_node: NodeCoordinate
    sink_node: NodeCoordinate
    cycles_per_pattern: int = 0
    active_power: float = 0.0
    processor_core_id: str | None = None
    memory_bytes: int | None = None

    def __post_init__(self) -> None:
        if not self.identifier:
            raise ResourceError("interface identifier must not be empty")
        if self.cycles_per_pattern < 0:
            raise ResourceError(
                f"interface {self.identifier!r}: cycles_per_pattern must be >= 0"
            )
        if self.active_power < 0:
            raise ResourceError(
                f"interface {self.identifier!r}: active_power must be >= 0"
            )
        if self.kind is InterfaceKind.PROCESSOR and not self.processor_core_id:
            raise ResourceError(
                f"processor interface {self.identifier!r} must reference its "
                "processor core"
            )
        if self.kind is InterfaceKind.EXTERNAL and self.processor_core_id:
            raise ResourceError(
                f"external interface {self.identifier!r} must not reference a "
                "processor core"
            )

    def __hash__(self) -> int:
        """The hash of the fields, derived once per interface.

        Interfaces key the job tables and the plan store on every plan, and
        a frozen value hashes the same every time.  The hash sits in the
        instance ``__dict__``, outside the fields, so it takes no part in
        ``repr`` or ``==``; :meth:`__getstate__` leaves it out of pickles,
        since a string's hash differs from process to process.
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash(
                (
                    self.identifier,
                    self.kind,
                    self.source_node,
                    self.sink_node,
                    self.cycles_per_pattern,
                    self.active_power,
                    self.processor_core_id,
                    self.memory_bytes,
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def is_external(self) -> bool:
        """True for ATE-connected interfaces."""
        return self.kind is InterfaceKind.EXTERNAL

    @property
    def is_processor(self) -> bool:
        """True for reused-processor interfaces."""
        return self.kind is InterfaceKind.PROCESSOR

    @property
    def requires_enablement(self) -> bool:
        """True when the interface only becomes usable during the schedule."""
        return self.is_processor


def external_interface(
    identifier: str, input_port: IoPort, output_port: IoPort
) -> TestInterface:
    """Build an external test interface from an input/output port pair."""
    return TestInterface(
        identifier=identifier,
        kind=InterfaceKind.EXTERNAL,
        source_node=input_port.node,
        sink_node=output_port.node,
        cycles_per_pattern=EXTERNAL_CYCLES_PER_PATTERN,
        active_power=input_port.power + output_port.power,
    )


def processor_interface(
    identifier: str,
    characterization: ProcessorCharacterization,
    node: NodeCoordinate,
    processor_core_id: str,
) -> TestInterface:
    """Build a processor test interface from a processor characterisation.

    The processor acts as both source and sink, so both endpoints are the node
    the processor is mapped to.
    """
    return TestInterface(
        identifier=identifier,
        kind=InterfaceKind.PROCESSOR,
        source_node=node,
        sink_node=node,
        cycles_per_pattern=characterization.cycles_per_generated_pattern,
        active_power=characterization.source_power,
        processor_core_id=processor_core_id,
        memory_bytes=characterization.processor.memory_bytes,
    )
