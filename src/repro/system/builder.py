"""Assembly of complete test-planning systems.

A :class:`SocSystem` is everything the planner needs for one chip:

* the configured NoC (:class:`~repro.noc.network.Network`),
* every core under test, placed on the grid — both the benchmark cores and
  the added processor cores,
* the processor characterisations (so processor interfaces can be derived),
* the external I/O ports connected to the ATE.

:class:`SystemBuilder` offers a fluent way to assemble custom systems; the
paper's six systems are available pre-configured in
:mod:`repro.system.presets`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cores.core import CoreUnderTest, build_core, build_cores, total_power
from repro.errors import ConfigurationError, ResourceError
from repro.itc02.model import SocBenchmark
from repro.noc.network import Network, NocConfig
from repro.noc.topology import NodeCoordinate
from repro.processors.characterization import ProcessorCharacterization, characterize
from repro.processors.model import EmbeddedProcessor
from repro.system.placement import spread_placement, verify_placement
from repro.tam.interfaces import (
    TestInterface,
    external_interface,
    processor_interface,
)
from repro.tam.ports import IoPort, PortDirection, pair_external_interfaces


#: The derivations a :class:`SocSystem` memoises in its ``__dict__``.
_MEMOS = ("_interfaces_memo", "_total_core_power_memo", "_core_ids_memo")


@dataclass
class SocSystem:
    """A fully assembled system ready for test planning.

    Attributes:
        name: system name (e.g. ``"d695_leon"``).
        network: the configured NoC.
        cores: every core under test, placed; processor cores included.
        io_ports: external tester access ports.
        processor_characterizations: characterisation of each processor core,
            keyed by the processor core's identifier.
    """

    name: str
    network: Network
    cores: list[CoreUnderTest]
    io_ports: list[IoPort]
    processor_characterizations: dict[str, ProcessorCharacterization] = field(
        default_factory=dict
    )

    @property
    def core_count(self) -> int:
        """Total number of cores, processor cores included."""
        return len(self.cores)

    @property
    def processor_cores(self) -> list[CoreUnderTest]:
        """The cores that are embedded processors, in registration order."""
        return [core for core in self.cores if core.is_processor]

    @property
    def regular_cores(self) -> list[CoreUnderTest]:
        """The cores that are not processors."""
        return [core for core in self.cores if not core.is_processor]

    @property
    def total_core_power(self) -> float:
        """Sum of the test power of all cores — the paper's power-limit base.

        Derived once, as :meth:`interfaces` is.
        """
        total = self.__dict__.get("_total_core_power_memo")
        if total is None:
            total = self.__dict__["_total_core_power_memo"] = total_power(self.cores)
        return total

    @property
    def core_ids(self) -> list[str]:
        """Identifiers of every core in the system, as a fresh list.

        Derived once, as :meth:`interfaces` is.
        """
        identifiers = self.__dict__.get("_core_ids_memo")
        if identifiers is None:
            identifiers = self.__dict__["_core_ids_memo"] = tuple(
                core.identifier for core in self.cores
            )
        return list(identifiers)

    def core(self, identifier: str) -> CoreUnderTest:
        """The core called ``identifier``.

        Raises:
            KeyError: when the system has no such core.
        """
        for core in self.cores:
            if core.identifier == identifier:
                return core
        raise KeyError(f"system {self.name!r} has no core {identifier!r}")

    # ------------------------------------------------------------------
    # Test interface derivation.
    # ------------------------------------------------------------------
    def external_interfaces(self) -> list[TestInterface]:
        """External test interfaces formed by pairing the I/O ports."""
        pairs = pair_external_interfaces(self.io_ports)
        return [
            external_interface(f"ext{i}", input_port, output_port)
            for i, (input_port, output_port) in enumerate(pairs)
        ]

    def processor_interfaces(
        self, reused_processors: int | None = None
    ) -> list[TestInterface]:
        """Processor test interfaces for the first ``reused_processors`` processors.

        Args:
            reused_processors: how many of the system's processors are reused
                as test sources/sinks; ``None`` (default) reuses all of them,
                0 reuses none (the "noproc" configuration).

        Raises:
            ConfigurationError: when more processors are requested than exist.
        """
        processors = self.processor_cores
        if reused_processors is None:
            reused_processors = len(processors)
        if reused_processors < 0 or reused_processors > len(processors):
            raise ConfigurationError(
                f"system {self.name!r} has {len(processors)} processors; "
                f"cannot reuse {reused_processors}"
            )
        interfaces = []
        for core in processors[:reused_processors]:
            characterization = self.processor_characterizations[core.identifier]
            if core.node is None:
                raise ConfigurationError(
                    f"processor core {core.identifier!r} is not placed"
                )
            interfaces.append(
                processor_interface(
                    f"proc.{core.identifier}",
                    characterization,
                    core.node,
                    core.identifier,
                )
            )
        return interfaces

    def interfaces(self, reused_processors: int | None = None) -> list[TestInterface]:
        """External plus processor interfaces for one planning configuration.

        Derived once per reuse level: a built system is read-only (the
        invariant :class:`~repro.runner.cache.SystemCache` relies on), and
        the interfaces are frozen, so each call copies the memoised list into
        a fresh one the caller may change.  The memo sits in the instance
        ``__dict__``, outside the dataclass fields, and :meth:`__getstate__`
        leaves it out of pickles, as it does the memos of
        :attr:`total_core_power` and :attr:`core_ids`.
        """
        memo = self.__dict__.setdefault("_interfaces_memo", {})
        interfaces = memo.get(reused_processors)
        if interfaces is None:
            interfaces = memo[reused_processors] = tuple(
                self.external_interfaces() + self.processor_interfaces(reused_processors)
            )
        return list(interfaces)

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        for memo in _MEMOS:
            state.pop(memo, None)
        return state

    def describe(self) -> str:
        """Multi-line human readable description of the system."""
        lines = [
            f"System {self.name}",
            f"  NoC: {self.network.describe()}",
            f"  Cores: {self.core_count} "
            f"({len(self.regular_cores)} benchmark cores, "
            f"{len(self.processor_cores)} processors)",
            f"  External ports: "
            + ", ".join(f"{p.name}@{p.node}({p.direction.value})" for p in self.io_ports),
            f"  Total core test power: {self.total_core_power:.1f} pu",
        ]
        return "\n".join(lines)


class SystemBuilder:
    """Fluent builder for :class:`SocSystem` instances.

    Typical use::

        system = (
            SystemBuilder("d695_leon", NocConfig(width=4, height=4))
            .add_benchmark(load_benchmark("d695"))
            .add_processors(leon_processor(), count=6)
            .add_io_port("ext_in", (0, 0), PortDirection.INPUT)
            .add_io_port("ext_out", (3, 3), PortDirection.OUTPUT)
            .build()
        )
    """

    def __init__(self, name: str, noc_config: NocConfig):
        if not name:
            raise ConfigurationError("system name must not be empty")
        self._name = name
        self._network = Network(noc_config)
        self._cores: list[CoreUnderTest] = []
        self._io_ports: list[IoPort] = []
        self._characterizations: dict[str, ProcessorCharacterization] = {}

    # ------------------------------------------------------------------
    # Content.
    # ------------------------------------------------------------------
    def add_benchmark(
        self, benchmark: SocBenchmark, *, prefix: str | None = None
    ) -> "SystemBuilder":
        """Add every module of ``benchmark`` as a core under test."""
        self._cores.extend(
            build_cores(
                benchmark,
                flit_width=self._network.flit_width,
                identifier_prefix=prefix if prefix is not None else benchmark.name,
            )
        )
        return self

    def add_core(self, core: CoreUnderTest) -> "SystemBuilder":
        """Add a single, already-built core."""
        if any(existing.identifier == core.identifier for existing in self._cores):
            raise ConfigurationError(f"duplicate core identifier {core.identifier!r}")
        self._cores.append(core)
        return self

    def add_processor(self, processor: EmbeddedProcessor) -> "SystemBuilder":
        """Add one embedded processor (as a core under test + characterisation)."""
        identifier = processor.name
        if any(existing.identifier == identifier for existing in self._cores):
            raise ConfigurationError(f"duplicate core identifier {identifier!r}")
        flit_width = self._network.flit_width
        characterization = characterize(processor, flit_width)
        core = build_core(
            processor.self_test,
            flit_width=flit_width,
            identifier=identifier,
            is_processor=True,
            processor_name=processor.name,
        )
        self._cores.append(core)
        self._characterizations[identifier] = characterization
        return self

    def add_processors(self, prototype: EmbeddedProcessor, count: int) -> "SystemBuilder":
        """Add ``count`` instances of ``prototype``, named ``<name>1..<name>N``."""
        if count < 0:
            raise ConfigurationError("processor count must be non-negative")
        for index in range(1, count + 1):
            self.add_processor(prototype.with_name(f"{prototype.name}{index}"))
        return self

    def add_io_port(
        self, name: str, node: NodeCoordinate, direction: PortDirection, *, power: float = 0.0
    ) -> "SystemBuilder":
        """Attach an external tester port to NoC node ``node``."""
        self._network.topology.require(node)
        if any(port.name == name for port in self._io_ports):
            raise ResourceError(f"duplicate I/O port name {name!r}")
        self._io_ports.append(IoPort(name=name, node=node, direction=direction, power=power))
        return self

    # ------------------------------------------------------------------
    # Assembly.
    # ------------------------------------------------------------------
    def build(self) -> SocSystem:
        """Place the cores and return the assembled system.

        Raises:
            ConfigurationError: when the system has no cores.
            ResourceError: when no external input/output port pair exists.
        """
        if not self._cores:
            raise ConfigurationError(f"system {self._name!r} has no cores")
        pair_external_interfaces(self._io_ports)  # raises when no pair exists
        spread_placement(self._cores, self._network.topology)
        verify_placement(self._cores, self._network.topology)
        return SocSystem(
            name=self._name,
            network=self._network,
            cores=list(self._cores),
            io_ports=list(self._io_ports),
            processor_characterizations=dict(self._characterizations),
        )
