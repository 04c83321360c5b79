"""Shared fixtures for the test suite.

The fixtures build small, fast systems so that the unit tests stay quick; the
paper-sized systems are exercised by the integration and experiment tests.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.cores.core import build_core
from repro.itc02.library import load_benchmark
from repro.itc02.model import Module, ScanChain, SocBenchmark
from repro.noc.network import Network, NocConfig
from repro.processors.leon import leon_processor
from repro.processors.plasma import plasma_processor
from repro.system.builder import SystemBuilder
from repro.tam.ports import PortDirection

# Test tooling, not a product setting: CI's schedule-oracle job runs the
# selection oracle (tests/schedule/test_selection_oracle.py), the
# resource-mask property (tests/schedule/test_job_masks.py), the
# validation oracle (tests/schedule/test_validation_oracle.py), the
# interval-replay property (tests/schedule/test_replay.py), the one-pass
# peak property (tests/schedule/test_result.py::TestOnePassPeak) and the
# proof-memo property (tests/schedule/test_result.py::TestProofMemo) with
# `--hypothesis-profile schedule-oracle`; every other run keeps hypothesis's
# default example budget.
settings.register_profile("schedule-oracle", max_examples=500)


def make_module(
    name: str = "core",
    *,
    number: int = 1,
    inputs: int = 8,
    outputs: int = 8,
    chain_lengths: tuple[int, ...] = (20, 20),
    patterns: int = 10,
    power: float = 100.0,
) -> Module:
    """Convenience constructor for a small test module."""
    chains = tuple(ScanChain(index=i, length=length) for i, length in enumerate(chain_lengths))
    return Module(
        number=number,
        name=name,
        inputs=inputs,
        outputs=outputs,
        bidirs=0,
        scan_chains=chains,
        patterns=patterns,
        power=power,
    )


def make_benchmark(module_count: int = 4, name: str = "toy") -> SocBenchmark:
    """A small benchmark with ``module_count`` modules of increasing size."""
    benchmark = SocBenchmark(name=name)
    for index in range(1, module_count + 1):
        benchmark.add_module(
            make_module(
                name=f"m{index}",
                number=index,
                inputs=4 + index,
                outputs=4 + index,
                chain_lengths=(10 * index, 10 * index),
                patterns=5 + 3 * index,
                power=50.0 * index,
            )
        )
    return benchmark


@pytest.fixture
def toy_benchmark() -> SocBenchmark:
    """A four-module synthetic benchmark."""
    return make_benchmark()


@pytest.fixture
def d695() -> SocBenchmark:
    """The bundled d695 benchmark."""
    return load_benchmark("d695")


@pytest.fixture
def small_network() -> Network:
    """A 3x3 NoC with default timing."""
    return Network(NocConfig(width=3, height=3, flit_width=16))


@pytest.fixture
def toy_system(toy_benchmark):
    """A small complete system: toy benchmark + 2 Plasma processors on 3x3."""
    return (
        SystemBuilder("toy_plasma", NocConfig(width=3, height=3, flit_width=16))
        .add_benchmark(toy_benchmark)
        .add_processors(plasma_processor(), 2)
        .add_io_port("ext_in", (0, 0), PortDirection.INPUT)
        .add_io_port("ext_out", (2, 2), PortDirection.OUTPUT)
        .build()
    )


@pytest.fixture
def leon():
    """The default Leon processor characterisation."""
    return leon_processor()


@pytest.fixture
def plasma():
    """The default Plasma processor characterisation."""
    return plasma_processor()


@pytest.fixture
def placed_core(small_network):
    """A single wrapped core placed at (1, 1) on the small network."""
    core = build_core(make_module("lone"), flit_width=small_network.flit_width)
    core.place_at((1, 1))
    return core
