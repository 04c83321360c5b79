"""Unit tests for the ITC'02 benchmark data model."""

import math

import pytest

from repro.errors import BenchmarkValidationError
from repro.itc02.model import Module, ScanChain, SocBenchmark

from tests.conftest import make_module


class TestScanChain:
    def test_valid_chain(self):
        chain = ScanChain(index=0, length=12)
        assert chain.length == 12

    def test_negative_index_rejected(self):
        with pytest.raises(BenchmarkValidationError):
            ScanChain(index=-1, length=12)

    def test_zero_length_rejected(self):
        with pytest.raises(BenchmarkValidationError):
            ScanChain(index=0, length=0)


class TestModule:
    def test_scan_cell_total(self):
        module = make_module(chain_lengths=(10, 20, 30))
        assert module.scan_cells == 60
        assert module.scan_chain_count == 3
        assert module.scan_chain_lengths == (10, 20, 30)

    def test_combinational_module(self):
        module = make_module(chain_lengths=())
        assert module.is_combinational
        assert module.scan_cells == 0

    def test_bits_per_pattern(self):
        module = Module(
            number=1,
            name="m",
            inputs=5,
            outputs=7,
            bidirs=2,
            scan_chains=(ScanChain(0, 10),),
            patterns=3,
        )
        assert module.scan_in_bits_per_pattern == 5 + 2 + 10
        assert module.scan_out_bits_per_pattern == 7 + 2 + 10
        assert module.test_data_volume_bits == 3 * (17 + 19)

    def test_negative_counts_rejected(self):
        with pytest.raises(BenchmarkValidationError):
            Module(number=1, name="m", inputs=-1, outputs=0, patterns=1)

    @pytest.mark.parametrize("power", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(BenchmarkValidationError, match="finite"):
            make_module(power=power)

    def test_module_number_must_be_positive(self):
        with pytest.raises(BenchmarkValidationError):
            Module(number=0, name="m", inputs=1, outputs=1, patterns=1)

    def test_with_power_returns_copy(self):
        module = make_module(power=0.0)
        powered = module.with_power(42.0)
        assert powered.power == 42.0
        assert module.power == 0.0
        assert powered.name == module.name


class TestSocBenchmark:
    def test_totals(self):
        benchmark = SocBenchmark(name="b")
        benchmark.add_module(make_module("a", number=1, patterns=10, power=5.0))
        benchmark.add_module(make_module("b", number=2, patterns=20, power=7.0))
        assert benchmark.module_count == 2
        assert benchmark.total_patterns == 30
        assert benchmark.total_power == 12.0
        assert len(benchmark) == 2

    def test_lookup_by_number_and_name(self):
        benchmark = SocBenchmark(name="b")
        module = make_module("alpha", number=3)
        benchmark.add_module(module)
        assert benchmark.module_by_number(3) is module
        assert benchmark.module_by_name("alpha") is module
        with pytest.raises(KeyError):
            benchmark.module_by_number(99)
        with pytest.raises(KeyError):
            benchmark.module_by_name("nope")

    def test_duplicate_module_number_rejected(self):
        benchmark = SocBenchmark(name="b")
        benchmark.add_module(make_module("a", number=1))
        with pytest.raises(BenchmarkValidationError):
            benchmark.add_module(make_module("b", number=1))

    def test_duplicate_module_name_rejected(self):
        benchmark = SocBenchmark(name="b")
        benchmark.add_module(make_module("a", number=1))
        with pytest.raises(BenchmarkValidationError):
            benchmark.add_module(make_module("a", number=2))

    def test_empty_name_rejected(self):
        with pytest.raises(BenchmarkValidationError):
            SocBenchmark(name="")

    def test_with_powers_requires_matching_length(self):
        benchmark = SocBenchmark(name="b")
        benchmark.add_module(make_module("a", number=1))
        with pytest.raises(BenchmarkValidationError):
            benchmark.with_powers([1.0, 2.0])

    def test_with_powers_assigns_in_order(self):
        benchmark = SocBenchmark(name="b")
        benchmark.add_module(make_module("a", number=1))
        benchmark.add_module(make_module("b", number=2))
        powered = benchmark.with_powers([11.0, 22.0])
        assert [m.power for m in powered.modules] == [11.0, 22.0]

    def test_summary_mentions_name_and_counts(self):
        benchmark = SocBenchmark(name="widget")
        benchmark.add_module(make_module("a", number=1))
        text = benchmark.summary()
        assert "widget" in text
        assert "1 modules" in text
