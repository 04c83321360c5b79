"""Tests of the benchmark library and the bundled .soc files it loads."""

import re

import pytest

from repro.cli import main
from repro.errors import UnknownBenchmarkError
from repro.itc02 import library
from repro.itc02.library import (
    available_benchmarks,
    data_directory,
    export_benchmarks,
    load_benchmark,
)
from repro.itc02.model import Module, ScanChain
from repro.itc02.parser import parse_soc_file
from repro.itc02.synth import P22810_SPEC, P93791_SPEC, generate_benchmark
from repro.itc02.validate import validate_benchmark
from repro.itc02.writer import write_soc

#: The published per-core rows of d695, the reference for its bundled file.
#: Columns: name, inputs, outputs, bidirs, scan chain lengths, pattern count,
#: test power (the synthetic values used by power-constrained test
#: scheduling papers on d695).
D695_ROWS = (
    ("c6288", 32, 32, 0, (), 12, 660.0),
    ("c7552", 207, 108, 0, (), 73, 602.0),
    ("s838", 34, 1, 0, (32,), 75, 823.0),
    ("s9234", 36, 39, 0, (54, 53, 52, 52), 105, 275.0),
    ("s38584", 38, 304, 0, (45,) * 18 + (44,) * 14, 110, 690.0),
    ("s13207", 62, 152, 0, (40,) * 14 + (39,) * 2, 234, 354.0),
    ("s15850", 77, 150, 0, (34,) * 6 + (33,) * 10, 95, 530.0),
    ("s5378", 35, 49, 0, (46, 45, 44, 44), 97, 753.0),
    ("s35932", 35, 320, 0, (54,) * 32, 12, 641.0),
    ("s38417", 28, 106, 0, (52,) * 4 + (51,) * 28, 68, 1144.0),
)


def reference_modules(name):
    """The modules a bundled file must hold, from its independent source."""
    if name == "d695":
        return [
            Module(
                number=number,
                name=core,
                inputs=inputs,
                outputs=outputs,
                bidirs=bidirs,
                scan_chains=tuple(
                    ScanChain(index=i, length=length) for i, length in enumerate(chains)
                ),
                patterns=patterns,
                power=power,
            )
            for number, (core, inputs, outputs, bidirs, chains, patterns, power) in enumerate(
                D695_ROWS, start=1
            )
        ]
    spec = {"p22810": P22810_SPEC, "p93791": P93791_SPEC}[name]
    return generate_benchmark(spec).modules


class TestLibrary:
    def test_available_benchmarks_matches_paper(self):
        assert available_benchmarks() == ("d695", "p22810", "p93791")

    def test_unknown_benchmark_raises(self):
        with pytest.raises(UnknownBenchmarkError, match="available benchmarks"):
            load_benchmark("p12345")

    @pytest.mark.parametrize(
        "name", ["../x", "../data/d695", "d695.soc", "/etc/passwd", "data/d695", ""]
    )
    def test_path_like_name_is_refused_before_any_file_is_opened(self, monkeypatch, name):
        opened = []
        monkeypatch.setattr(library, "parse_soc_file", opened.append)
        with pytest.raises(UnknownBenchmarkError, match="available benchmarks"):
            load_benchmark(name)
        assert opened == []

    def test_load_is_case_insensitive(self):
        assert load_benchmark("D695") is load_benchmark("d695")

    def test_missing_package_data_is_an_error(self, monkeypatch, tmp_path, capsys):
        """A build without ``data/*.soc`` has no benchmark to list: the
        library and ``repro benchmarks`` say so, naming the directory."""
        monkeypatch.setattr(library, "data_directory", lambda: tmp_path)
        available_benchmarks.cache_clear()
        message = f"no .soc file found in {tmp_path}"
        try:
            with pytest.raises(UnknownBenchmarkError) as raised:
                available_benchmarks()
            assert str(raised.value) == message
            with pytest.raises(UnknownBenchmarkError, match=re.escape(message)):
                load_benchmark("d695")
            assert main(["benchmarks"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
        finally:
            available_benchmarks.cache_clear()

    def test_load_is_cached(self):
        assert load_benchmark("p22810") is load_benchmark("p22810")

    @pytest.mark.parametrize("name", ["d695", "p22810", "p93791"])
    def test_embedded_benchmarks_validate(self, name):
        validate_benchmark(load_benchmark(name), require_power=True)

    def test_d695_matches_published_structure(self):
        d695 = load_benchmark("d695")
        assert d695.module_count == 10
        s38417 = d695.module_by_name("s38417")
        assert s38417.patterns == 68
        assert s38417.scan_chain_count == 32
        assert s38417.scan_cells == 1636
        s13207 = d695.module_by_name("s13207")
        assert s13207.patterns == 234
        c6288 = d695.module_by_name("c6288")
        assert c6288.is_combinational

    def test_module_counts_match_paper_totals(self):
        # The paper builds systems with 16, 36 and 40 cores by adding 6/8/8
        # processors, so the benchmarks must have 10, 28 and 32 modules.
        assert load_benchmark("d695").module_count == 10
        assert load_benchmark("p22810").module_count == 28
        assert load_benchmark("p93791").module_count == 32

    def test_large_benchmarks_dwarf_d695(self):
        d695 = load_benchmark("d695").total_test_data_volume_bits
        p22810 = load_benchmark("p22810").total_test_data_volume_bits
        p93791 = load_benchmark("p93791").total_test_data_volume_bits
        assert p22810 > 5 * d695
        assert p93791 > p22810

    def test_export_benchmarks(self, tmp_path):
        written = export_benchmarks(tmp_path)
        assert len(written) == 3
        for path in written:
            assert path.exists()
            parsed = parse_soc_file(path)
            assert parsed.module_count == load_benchmark(parsed.name).module_count


class TestBundledDataFiles:
    @pytest.mark.parametrize("name", ["d695", "p22810", "p93791"])
    def test_bundled_soc_files_match_library(self, name):
        """d695's file holds its published rows; the two reconstructed
        files hold exactly what their synth specs generate."""
        loaded = load_benchmark(name)
        assert loaded.name == name
        assert loaded.modules == reference_modules(name)

    @pytest.mark.parametrize("name", ["d695", "p22810", "p93791"])
    def test_writer_reproduces_the_bundled_file(self, name):
        path = data_directory() / f"{name}.soc"
        assert write_soc(load_benchmark(name)).encode("utf-8") == path.read_bytes()
