"""Unit tests for the .soc parser."""

import pytest

from repro.errors import BenchmarkFormatError
from repro.itc02.parser import parse_soc, parse_soc_file, parse_soc_lines

VALID = """
# a comment
SocName demo
TotalModules 2

Module 1 alpha
  Inputs 4
  Outputs 5
  Bidirs 1
  ScanChains 2
  ScanChainLengths 10 12
  Patterns 7
  Power 33.5
EndModule

Module 2 beta   # trailing comment
  Inputs 3
  Outputs 3
  Patterns 2
EndModule
"""


class TestParseValid:
    def test_parses_modules(self):
        benchmark = parse_soc(VALID)
        assert benchmark.name == "demo"
        assert benchmark.module_count == 2
        alpha = benchmark.module_by_name("alpha")
        assert alpha.inputs == 4
        assert alpha.outputs == 5
        assert alpha.bidirs == 1
        assert alpha.scan_chain_lengths == (10, 12)
        assert alpha.patterns == 7
        assert alpha.power == pytest.approx(33.5)

    def test_defaults_for_optional_fields(self):
        beta = parse_soc(VALID).module_by_name("beta")
        assert beta.bidirs == 0
        assert beta.scan_chain_count == 0
        assert beta.power == 0.0

    def test_parse_lines_equivalent(self):
        from_lines = parse_soc_lines(VALID.splitlines())
        assert from_lines.module_count == 2

    def test_parse_file(self, tmp_path):
        path = tmp_path / "demo.soc"
        path.write_text(VALID)
        benchmark = parse_soc_file(path)
        assert benchmark.name == "demo"


class TestParseErrors:
    def test_missing_socname(self):
        with pytest.raises(BenchmarkFormatError, match="SocName"):
            parse_soc("Module 1 a\n  Inputs 1\n  Outputs 1\n  Patterns 1\nEndModule")

    def test_no_socname_at_all(self):
        with pytest.raises(BenchmarkFormatError, match="no SocName"):
            parse_soc("# empty file\n")

    def test_duplicate_socname(self):
        with pytest.raises(BenchmarkFormatError, match="duplicate SocName"):
            parse_soc("SocName a\nSocName b\n")

    def test_total_modules_mismatch(self):
        text = VALID.replace("TotalModules 2", "TotalModules 5")
        with pytest.raises(BenchmarkFormatError, match="TotalModules"):
            parse_soc(text)

    def test_unknown_keyword(self):
        text = VALID.replace("  Bidirs 1", "  Frobnicate 1")
        with pytest.raises(BenchmarkFormatError, match="unknown keyword"):
            parse_soc(text)

    def test_keyword_outside_module(self):
        with pytest.raises(BenchmarkFormatError, match="outside a Module block"):
            parse_soc("SocName x\nInputs 3\n")

    def test_unclosed_module_block(self):
        with pytest.raises(BenchmarkFormatError, match="not closed"):
            parse_soc("SocName x\nModule 1 a\n  Inputs 1\n  Outputs 1\n  Patterns 1\n")

    def test_end_module_without_module(self):
        with pytest.raises(BenchmarkFormatError, match="EndModule without"):
            parse_soc("SocName x\nEndModule\n")

    def test_missing_required_field(self):
        text = (
            "SocName x\nModule 1 a\n  Inputs 1\n  Outputs 1\nEndModule\n"
        )
        with pytest.raises(BenchmarkFormatError, match="Patterns"):
            parse_soc(text)

    def test_scan_chain_count_mismatch(self):
        text = (
            "SocName x\nModule 1 a\n  Inputs 1\n  Outputs 1\n  Patterns 1\n"
            "  ScanChains 3\n  ScanChainLengths 5 5\nEndModule\n"
        )
        with pytest.raises(BenchmarkFormatError, match="scan chains"):
            parse_soc(text)

    def test_non_integer_value(self):
        text = VALID.replace("Inputs 4", "Inputs four")
        with pytest.raises(BenchmarkFormatError, match="integer"):
            parse_soc(text)

    def test_negative_value(self):
        text = VALID.replace("Inputs 4", "Inputs -4")
        with pytest.raises(BenchmarkFormatError, match="non-negative"):
            parse_soc(text)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "NaN", "Infinity"])
    def test_non_finite_power_is_refused_at_its_line(self, token):
        text = VALID.replace("Power 33.5", f"Power {token}")
        line_number = text.splitlines().index(f"  Power {token}") + 1
        with pytest.raises(BenchmarkFormatError, match="finite") as excinfo:
            parse_soc(text)
        assert excinfo.value.line_number == line_number

    def test_error_carries_line_number(self):
        text = VALID.replace("Inputs 4", "Inputs four")
        with pytest.raises(BenchmarkFormatError) as excinfo:
            parse_soc(text)
        assert excinfo.value.line_number is not None
        assert "line" in str(excinfo.value)

    def test_duplicate_field_in_module(self):
        text = VALID.replace("  Bidirs 1", "  Inputs 9")
        with pytest.raises(BenchmarkFormatError, match="duplicate Inputs"):
            parse_soc(text)

    def test_nested_module_block(self):
        text = (
            "SocName x\nModule 1 a\n  Inputs 1\n  Outputs 1\n  Patterns 1\n"
            "Module 2 b\nEndModule\n"
        )
        with pytest.raises(BenchmarkFormatError, match="not closed"):
            parse_soc(text)
