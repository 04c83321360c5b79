"""Tests of wrapper design, including balancing properties with hypothesis."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cores.wrapper import design_wrapper
from repro.errors import ConfigurationError
from repro.itc02.library import load_benchmark
from repro.itc02.model import Module, ScanChain
from repro.processors.leon import leon_processor
from repro.processors.plasma import plasma_processor

from tests.conftest import make_module


class TestDesignWrapperBasics:
    def test_combinational_core(self):
        module = make_module(inputs=10, outputs=6, chain_lengths=(), patterns=4)
        design = design_wrapper(module, width=4)
        # Ten input cells over four chains: longest chain has three cells.
        assert design.scan_in_length == 3
        assert design.scan_out_length == 2
        assert design.test_time == (1 + 3) * 4 + 2

    def test_single_chain_core(self):
        module = make_module(inputs=0, outputs=0, chain_lengths=(40,), patterns=2)
        design = design_wrapper(module, width=8)
        # The single internal chain cannot be split.
        assert design.scan_in_length == 40
        assert design.scan_out_length == 40
        assert design.test_time == (1 + 40) * 2 + 40

    def test_width_one_serialises_everything(self):
        module = make_module(inputs=5, outputs=3, chain_lengths=(10, 10), patterns=1)
        design = design_wrapper(module, width=1)
        assert design.scan_in_length == 10 + 10 + 5
        assert design.scan_out_length == 10 + 10 + 3

    def test_invalid_width_rejected(self):
        with pytest.raises(ConfigurationError):
            design_wrapper(make_module(), width=0)

    def test_zero_pattern_core_has_zero_time(self):
        module = make_module(patterns=0)
        assert design_wrapper(module, width=4).test_time == 0

    def test_cycles_per_pattern(self):
        module = make_module(inputs=0, outputs=0, chain_lengths=(12,), patterns=3)
        design = design_wrapper(module, width=4)
        assert design.cycles_per_pattern == 13

    def test_known_d695_core_test_time(self):
        s5378 = load_benchmark("d695").module_by_name("s5378")
        design = design_wrapper(s5378, width=32)
        # 4 chains of 46/45/44/44 plus 35 inputs / 49 outputs spread over the
        # remaining wrapper chains: the longest chain stays 46 on the input
        # side and 46 on the output side.
        assert design.scan_in_length == 46
        assert design.scan_out_length == 46
        assert design.test_time == (1 + 46) * 97 + 46

    def test_wider_wrapper_never_slower(self):
        module = load_benchmark("d695").module_by_name("s38417")
        times = [design_wrapper(module, width).test_time for width in (8, 16, 32, 64)]
        assert times == sorted(times, reverse=True)

    def test_used_width_never_exceeds_requested(self):
        module = make_module(inputs=3, outputs=2, chain_lengths=(5,), patterns=1)
        design = design_wrapper(module, width=64)
        assert design.used_width <= 64
        assert len(design.chains) <= 64

    def test_stimulus_and_response_bits(self):
        module = make_module(inputs=4, outputs=6, chain_lengths=(10,), patterns=3)
        design = design_wrapper(module, width=8)
        assert design.stimulus_bits_per_pattern == 10 + 4
        assert design.response_bits_per_pattern == 10 + 6


def small_modules():
    """Strategy for modules with bounded size (keeps wrapper design fast)."""
    return st.builds(
        lambda inputs, outputs, chains, patterns: Module(
            number=1,
            name="h",
            inputs=inputs,
            outputs=outputs,
            bidirs=0,
            scan_chains=tuple(ScanChain(index=i, length=length) for i, length in enumerate(chains)),
            patterns=patterns,
        ),
        inputs=st.integers(min_value=0, max_value=300),
        outputs=st.integers(min_value=0, max_value=300),
        chains=st.lists(st.integers(min_value=1, max_value=120), min_size=0, max_size=40),
        patterns=st.integers(min_value=1, max_value=200),
    )


class TestWrapperProperties:
    @settings(max_examples=80, deadline=None)
    @given(module=small_modules(), width=st.integers(min_value=1, max_value=64))
    def test_all_cells_are_placed(self, module, width):
        design = design_wrapper(module, width)
        assert sum(c.scan_cells for c in design.chains) == module.scan_cells
        assert sum(c.input_cells for c in design.chains) == module.inputs + module.bidirs
        assert sum(c.output_cells for c in design.chains) == module.outputs + module.bidirs

    @settings(max_examples=80, deadline=None)
    @given(module=small_modules(), width=st.integers(min_value=1, max_value=64))
    def test_longest_chain_lower_bound(self, module, width):
        """The longest wrapper chain can never beat the perfect-balance bound
        or the longest internal scan chain."""
        design = design_wrapper(module, width)
        longest_internal = max(module.scan_chain_lengths, default=0)
        in_bits = module.scan_in_bits_per_pattern
        lower = max(longest_internal, -(-in_bits // width) if in_bits else 0)
        assert design.scan_in_length >= lower

    @settings(max_examples=80, deadline=None)
    @given(module=small_modules(), width=st.integers(min_value=1, max_value=64))
    def test_balance_quality(self, module, width):
        """LPT balancing stays within one longest-internal-chain (or one cell
        for combinational cores) of the perfect balance."""
        design = design_wrapper(module, width)
        longest_internal = max(module.scan_chain_lengths, default=0)
        in_bits = module.scan_in_bits_per_pattern
        perfect = -(-in_bits // min(width, max(1, in_bits))) if in_bits else 0
        slack = max(longest_internal, 1)
        assert design.scan_in_length <= perfect + slack

    @settings(max_examples=60, deadline=None)
    @given(module=small_modules())
    def test_monotone_in_width(self, module):
        previous = None
        for width in (1, 2, 4, 8, 16, 32):
            time = design_wrapper(module, width).test_time
            if previous is not None:
                assert time <= previous
            previous = time


def memo_modules():
    """Every module of the bundled benchmarks plus the processor self-tests."""
    modules = [
        module
        for name in ("d695", "p22810", "p93791")
        for module in load_benchmark(name).modules
    ]
    modules += [leon_processor().self_test, plasma_processor().self_test]
    return modules


class TestDesignWrapperMemo:
    def test_repeated_call_returns_the_same_design(self):
        module = load_benchmark("d695").module_by_name("s38417")
        assert design_wrapper(module, 32) is design_wrapper(module, 32)

    def test_equal_modules_share_a_design(self):
        first = make_module(chain_lengths=(7, 9))
        second = make_module(chain_lengths=(7, 9))
        assert first is not second
        assert design_wrapper(first, 8) is design_wrapper(second, 8)

    @pytest.mark.parametrize("width", [1, 8, 32, 64])
    def test_memoised_design_equals_unmemoised(self, width):
        for module in memo_modules():
            expected = design_wrapper.__wrapped__(module, width)
            assert design_wrapper(module, width) == expected, module.name

    @pytest.mark.parametrize("width", [0, -3])
    def test_invalid_width_raises_on_every_call(self, width):
        module = make_module()
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                design_wrapper(module, width)
