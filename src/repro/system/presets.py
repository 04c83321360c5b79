"""The six systems evaluated by the paper.

Section 3 of the paper extends the three ITC'02 benchmarks with processor
cores and maps them onto grid NoCs:

=============  =================  ==========  ===========  ==========
system         added processors   total cores  NoC grid     ext. ports
=============  =================  ==========  ===========  ==========
d695_leon      6 x Leon            16          4 x 4        1 in, 1 out
d695_plasma    6 x Plasma          16          4 x 4        1 in, 1 out
p22810_leon    8 x Leon            36          5 x 6        1 in, 1 out
p22810_plasma  8 x Plasma          36          5 x 6        1 in, 1 out
p93791_leon    8 x Leon            40          5 x 5        1 in, 1 out
p93791_plasma  8 x Plasma          40          5 x 5        1 in, 1 out
=============  =================  ==========  ===========  ==========

(The paper says the total core counts are 16, 36 and 40: d695 has 10 cores + 6
processors; p22810 is used with 28 flattened modules + 8 processors; p93791
with 32 modules + 8 processors.)

The external input port is attached to the router at the grid origin and the
external output port to the opposite corner, both on the chip boundary where
I/O pads live; the positions can be overridden through
:func:`build_paper_system`'s keyword arguments.  The table itself,
:data:`PAPER_SYSTEMS`, is plain data in :mod:`repro.system.paper`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.itc02.library import load_benchmark
from repro.noc.network import NocConfig
from repro.noc.topology import NodeCoordinate
from repro.processors.leon import leon_processor
from repro.processors.model import EmbeddedProcessor
from repro.processors.plasma import plasma_processor
from repro.system.builder import SocSystem, SystemBuilder
from repro.system.paper import PAPER_SYSTEMS
from repro.tam.ports import PortDirection

_PROCESSOR_FACTORIES = {
    "leon": leon_processor,
    "plasma": plasma_processor,
}


def processor_prototype(model: str) -> EmbeddedProcessor:
    """The processor prototype (default characterisation) for ``model``."""
    try:
        factory = _PROCESSOR_FACTORIES[model.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(_PROCESSOR_FACTORIES))
        raise ConfigurationError(
            f"unknown processor model {model!r}; known models: {known}"
        ) from exc
    return factory()


def build_paper_system(
    name: str,
    *,
    flit_width: int = 32,
    routing_latency: int = 5,
    flow_control_latency: int = 1,
    input_port_node: NodeCoordinate | None = None,
    output_port_node: NodeCoordinate | None = None,
    processor: EmbeddedProcessor | None = None,
) -> SocSystem:
    """Build one of the paper's systems by name (e.g. ``"d695_leon"``).

    Args:
        name: one of :data:`PAPER_SYSTEMS` (case-insensitive).
        flit_width: NoC flit width; the paper does not publish its value, the
            32-bit default matches the HERMES configuration used by the
            authors' group.
        routing_latency: per-router header latency (cycles).
        flow_control_latency: per-flit per-channel latency (cycles).
        input_port_node: node of the ATE input port (default: grid origin).
        output_port_node: node of the ATE output port (default: opposite
            corner).
        processor: override the processor characterisation (the default is the
            model named in the system spec with its default parameters).

    Raises:
        ConfigurationError: for an unknown system name.
    """
    key = name.lower()
    if key not in PAPER_SYSTEMS:
        known = ", ".join(sorted(PAPER_SYSTEMS))
        raise ConfigurationError(
            f"unknown paper system {name!r}; known systems: {known}"
        )
    spec = PAPER_SYSTEMS[key]

    benchmark = load_benchmark(spec.benchmark)
    prototype = processor or processor_prototype(spec.processor_model)

    noc = NocConfig(
        width=spec.grid_width,
        height=spec.grid_height,
        flit_width=flit_width,
        routing_latency=routing_latency,
        flow_control_latency=flow_control_latency,
    )
    input_node = input_port_node or (0, 0)
    output_node = output_port_node or (spec.grid_width - 1, spec.grid_height - 1)

    builder = (
        SystemBuilder(spec.name, noc)
        .add_benchmark(benchmark)
        .add_processors(prototype, spec.processor_count)
        .add_io_port("ext_in", input_node, PortDirection.INPUT)
        .add_io_port("ext_out", output_node, PortDirection.OUTPUT)
    )
    return builder.build()
