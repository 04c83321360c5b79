"""Tests of the ``repro profile`` cProfile harness."""

import json

import pytest

from repro.cli import build_parser, main
from repro.devtools import PROFILE_SORT_KEYS, profile_specs
from repro.errors import ConfigurationError
from repro.runner.spec import SweepSpec


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(
        name="profile-test",
        systems=("d695_leon",),
        processor_counts=(0, 2),
        power_limits=(("no power limit", None),),
        schedulers=("greedy",),
    )


@pytest.fixture(scope="module")
def report(small_spec):
    return profile_specs(small_spec, limit=50)


class TestProfileSpecs:
    def test_report_shape(self, report):
        assert report.specs == ("profile-test",)
        assert report.point_count == 2
        assert report.sort == "cumulative"
        assert report.total_calls > 0
        assert report.total_time >= 0
        assert 0 < len(report.hotspots) <= 50

    def test_hotspots_ranked_by_sort_key(self, report):
        times = [spot.cumulative_time for spot in report.hotspots]
        assert times == sorted(times, reverse=True)

    def test_planning_functions_are_visible(self, report):
        functions = " ".join(spot.function for spot in report.hotspots)
        assert "greedy" in functions or "planner" in functions

    def test_tottime_sort(self, small_spec):
        ranked = profile_specs(small_spec, sort="tottime", limit=10)
        times = [spot.total_time for spot in ranked.hotspots]
        assert times == sorted(times, reverse=True)

    def test_to_dict_is_json_ready(self, report):
        document = json.loads(json.dumps(report.to_dict()))
        assert document["point_count"] == 2
        assert document["specs"] == ["profile-test"]
        expected_keys = {
            "function",
            "calls",
            "primitive_calls",
            "total_time",
            "cumulative_time",
        }
        assert expected_keys <= set(document["hotspots"][0])

    def test_format_text_lists_hotspots(self, report):
        text = report.format_text()
        assert "profiled 2 grid point(s) of profile-test" in text
        assert f"by {report.sort}:" in text
        assert len(text.splitlines()) == 3 + len(report.hotspots)

    def test_unknown_sort_rejected(self, small_spec):
        with pytest.raises(ConfigurationError):
            profile_specs(small_spec, sort="wallclock")

    def test_nonpositive_limit_rejected(self, small_spec):
        with pytest.raises(ConfigurationError):
            profile_specs(small_spec, limit=0)

    def test_empty_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            profile_specs([])

    def test_sort_keys_cover_cli_choices(self):
        assert set(PROFILE_SORT_KEYS) == {"cumulative", "tottime", "calls"}
        # The parser spells the choices out (it must not import the
        # profiler); they must stay the registry's keys.
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        sort = next(a for a in commands.choices["profile"]._actions if a.dest == "sort")
        assert list(sort.choices) == sorted(PROFILE_SORT_KEYS)


class TestProfileCli:
    def test_text_report_to_stdout(self, capsys):
        argv = [
            "profile",
            "d695_leon",
            "--no-characterize",
            "--counts",
            "0,2",
            "--limit",
            "5",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "top 5 functions by cumulative:" in out

    def test_json_report_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "profile.json"
        argv = [
            "profile",
            "d695_leon",
            "--no-characterize",
            "--counts",
            "0",
            "--power-limits",
            "none",
            "--sort",
            "tottime",
            "--format",
            "json",
            "--out",
            str(out_file),
        ]
        assert main(argv) == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        document = json.loads(out_file.read_text(encoding="utf-8"))
        assert document["sort"] == "tottime"
        assert document["point_count"] == 1
        assert document["hotspots"]

    def test_spec_json_conflicts_still_rejected(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("{}", encoding="utf-8")
        assert main(["profile", "d695_leon", "--spec-json", str(spec_file)]) == 1
        assert "--spec-json" in capsys.readouterr().err
