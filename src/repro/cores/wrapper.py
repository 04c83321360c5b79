"""IEEE-1500-style test wrapper design for NoC-attached cores.

When a core is tested over the NoC, the flit width of the network plays the
role that the TAM width plays in bus-based test architectures: per clock cycle
at most ``flit_width`` test bits can be delivered to (and collected from) the
core.  The wrapper therefore partitions the core's wrapper input cells,
wrapper output cells and internal scan chains into at most ``flit_width``
wrapper scan chains, and the per-pattern scan-in/scan-out depth is the length
of the longest resulting chain.

The partitioning algorithm is the standard one from the ITC'02 literature
(a.k.a. *Design_wrapper*): internal scan chains are assigned to wrapper chains
with the Longest Processing Time (LPT) heuristic, then wrapper input cells and
wrapper output cells are distributed over the shortest wrapper chains.  The
result is the classic core test time

    T = (1 + max(s_i, s_o)) * p + min(s_i, s_o)

where ``s_i``/``s_o`` are the longest wrapper scan-in/scan-out chains and
``p`` the number of patterns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import ConfigurationError
from repro.itc02.model import Module


@dataclass(frozen=True)
class WrapperChain:
    """One wrapper scan chain of a wrapper design.

    Attributes:
        index: chain position (0-based).
        scan_cells: internal scan cells routed through this wrapper chain.
        input_cells: wrapper input cells placed on this chain.
        output_cells: wrapper output cells placed on this chain.
    """

    index: int
    scan_cells: int
    input_cells: int
    output_cells: int

    @property
    def scan_in_length(self) -> int:
        """Cycles needed to shift one pattern *in* through this chain."""
        return self.scan_cells + self.input_cells

    @property
    def scan_out_length(self) -> int:
        """Cycles needed to shift one response *out* through this chain."""
        return self.scan_cells + self.output_cells


@dataclass(frozen=True)
class WrapperDesign:
    """The result of wrapping one module for a given access width.

    The chain-length aggregates are ``cached_property``s: the design is
    immutable, and the scheduler reads ``scan_in_length``/``scan_out_length``
    for every (core, interface) candidate it evaluates, so the max over the
    chains is computed once per design instead of once per query.
    """

    module_name: str
    width: int
    chains: tuple[WrapperChain, ...]
    patterns: int

    @cached_property
    def scan_in_length(self) -> int:
        """Longest wrapper scan-in chain (cycles per pattern shift-in)."""
        if not self.chains:
            return 0
        return max(chain.scan_in_length for chain in self.chains)

    @cached_property
    def scan_out_length(self) -> int:
        """Longest wrapper scan-out chain (cycles per pattern shift-out)."""
        if not self.chains:
            return 0
        return max(chain.scan_out_length for chain in self.chains)

    @property
    def used_width(self) -> int:
        """Number of wrapper chains actually carrying cells."""
        return sum(
            1
            for chain in self.chains
            if chain.scan_cells or chain.input_cells or chain.output_cells
        )

    @property
    def cycles_per_pattern(self) -> int:
        """Scan cycles consumed by one pattern (shift-in overlapped with
        shift-out of the previous response, plus the capture cycle)."""
        return 1 + max(self.scan_in_length, self.scan_out_length)

    @property
    def test_time(self) -> int:
        """Total core test application time in cycles for all patterns.

        Classic formula: ``(1 + max(si, so)) * p + min(si, so)``.  The final
        ``min(si, so)`` term accounts for flushing the last response out.
        """
        if self.patterns == 0:
            return 0
        longest = max(self.scan_in_length, self.scan_out_length)
        shortest = min(self.scan_in_length, self.scan_out_length)
        return (1 + longest) * self.patterns + shortest

    @property
    def stimulus_bits_per_pattern(self) -> int:
        """Stimulus bits delivered to the core for one pattern."""
        return sum(chain.scan_in_length for chain in self.chains)

    @property
    def response_bits_per_pattern(self) -> int:
        """Response bits collected from the core for one pattern."""
        return sum(chain.scan_out_length for chain in self.chains)


@lru_cache(maxsize=1024)
def design_wrapper(module: Module, width: int) -> WrapperDesign:
    """Design a test wrapper for ``module`` with at most ``width`` chains.

    The design is a pure function of the frozen module and the width, so it
    is memoised: every system build of a process shares one immutable design
    per (module, width), and self-test modules that repeat across processors
    are wrapped once.  ``design_wrapper.__wrapped__`` is the unmemoised
    function.

    Args:
        module: the ITC'02 module to wrap.
        width: access-mechanism width in bits (the NoC flit width in this
            library); must be positive.

    Returns:
        The wrapper design, from which per-pattern depth and total test time
        are derived.

    Raises:
        ConfigurationError: if ``width`` is not positive.
    """
    if width <= 0:
        raise ConfigurationError(f"wrapper width must be positive, got {width}")

    chain_count = min(width, _useful_chain_count(module))
    chain_count = max(chain_count, 1)

    scan_load = [0] * chain_count
    # LPT assignment of internal scan chains: longest chain first, always onto
    # the currently shortest wrapper chain.  A heap keeps this O(n log w).
    heap = [(0, index) for index in range(chain_count)]
    heapq.heapify(heap)
    for length in sorted(module.scan_chain_lengths, reverse=True):
        load, index = heapq.heappop(heap)
        scan_load[index] = load + length
        heapq.heappush(heap, (load + length, index))

    input_cells = _distribute_cells(scan_load, module.inputs + module.bidirs)
    output_cells = _distribute_cells(scan_load, module.outputs + module.bidirs)

    chains = tuple(
        WrapperChain(
            index=index,
            scan_cells=scan_load[index],
            input_cells=input_cells[index],
            output_cells=output_cells[index],
        )
        for index in range(chain_count)
    )
    return WrapperDesign(
        module_name=module.name,
        width=width,
        chains=chains,
        patterns=module.patterns,
    )


def _useful_chain_count(module: Module) -> int:
    """Largest number of wrapper chains that can carry at least one cell."""
    cells = max(
        module.scan_chain_count + module.inputs + module.bidirs,
        module.scan_chain_count + module.outputs + module.bidirs,
        module.inputs + module.bidirs,
        module.outputs + module.bidirs,
        1,
    )
    return cells


def _distribute_cells(scan_load: list[int], cells: int) -> list[int]:
    """Distribute ``cells`` wrapper cells over the chains, shortest first.

    Returns the number of cells placed on each chain (same indexing as
    ``scan_load``).  The distribution greedily fills the chain that currently
    has the smallest total length, which is optimal for minimising the longest
    chain when cells are unit-size items.
    """
    placed = [0] * len(scan_load)
    if cells <= 0:
        return placed
    heap = [(load, index) for index, load in enumerate(scan_load)]
    heapq.heapify(heap)
    remaining = cells
    while remaining > 0:
        load, index = heapq.heappop(heap)
        # Place one cell at a time; for very large cell counts place a chunk
        # that keeps this chain no longer than the next-shortest chain + 1.
        if heap:
            next_load = heap[0][0]
            chunk = max(1, min(remaining, next_load - load + 1))
        else:
            chunk = remaining
        placed[index] += chunk
        remaining -= chunk
        heapq.heappush(heap, (load + chunk, index))
    return placed
