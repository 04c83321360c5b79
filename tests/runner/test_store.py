"""Tests of the schema-versioned sweep result store."""

import json

import pytest

from repro.errors import ResultStoreError
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec
from repro.runner.store import (
    SCHEMA_VERSION,
    dump_sweeps,
    load_sweeps,
    save_sweeps,
)


@pytest.fixture(scope="module")
def executed():
    spec = SweepSpec(
        name="store-test",
        systems=("d695_plasma",),
        processor_counts=(0, 6),
        power_limits={"no power limit": None},
    )
    outcomes = SweepRunner().run(spec)
    return spec, outcomes


class TestRoundtrip:
    def test_save_and_load(self, executed, tmp_path):
        spec, outcomes = executed
        path = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        (stored,) = load_sweeps(path)
        assert stored.spec == spec
        assert stored.spec_key == spec.content_key()
        assert len(stored.records) == len(outcomes)
        for record, outcome in zip(stored.records, outcomes):
            assert record["makespan"] == outcome.makespan
            assert record["index"] == outcome.point.index

    def test_document_shape(self, executed):
        spec, outcomes = executed
        document = json.loads(dump_sweeps([(spec, outcomes)]))
        assert document["schema_version"] == SCHEMA_VERSION
        assert len(document["sweeps"]) == 1

    def test_records_sorted_by_index(self, executed):
        spec, outcomes = executed
        document = json.loads(dump_sweeps([(spec, list(reversed(outcomes)))]))
        indices = [record["index"] for record in document["sweeps"][0]["records"]]
        assert indices == sorted(indices)


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ResultStoreError, match="cannot read"):
            load_sweeps(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ResultStoreError, match="not valid JSON"):
            load_sweeps(path)

    def test_wrong_schema_version(self, executed, tmp_path):
        spec, outcomes = executed
        path = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        document = json.loads(path.read_text(encoding="utf-8"))
        document["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ResultStoreError, match="schema version"):
            load_sweeps(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(
            json.dumps({"schema_version": SCHEMA_VERSION, "sweeps": [{"spec": {}}]}),
            encoding="utf-8",
        )
        with pytest.raises(ResultStoreError, match="malformed|missing"):
            load_sweeps(path)

    def test_spec_key_mismatch_rejected(self, executed, tmp_path):
        """A stored spec_key that does not hash back to the stored spec must
        be refused: resume decisions keyed on it would skip the wrong
        points."""
        spec, outcomes = executed
        path = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        document = json.loads(path.read_text(encoding="utf-8"))
        document["sweeps"][0]["spec_key"] = "f" * 64
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ResultStoreError, match="hashes to"):
            load_sweeps(path)

    def test_absent_spec_key_backfilled(self, executed, tmp_path):
        """Pre-spec_key documents (the field is optional) still load."""
        spec, outcomes = executed
        path = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["sweeps"][0]["spec_key"]
        path.write_text(json.dumps(document), encoding="utf-8")
        (stored,) = load_sweeps(path)
        assert stored.spec_key == spec.content_key()


class TestAtomicWrites:
    def test_crash_mid_write_leaves_previous_document(
        self, executed, tmp_path, monkeypatch
    ):
        """Simulated crash during save: the staged temp file never reaches the
        destination, so the previous document stays loadable."""
        import os as os_module

        spec, outcomes = executed
        path = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os_module, "replace", crash)
        with pytest.raises(OSError, match="simulated crash"):
            save_sweeps(path, [(spec, outcomes[:1])])
        monkeypatch.undo()

        assert path.read_bytes() == before
        (stored,) = load_sweeps(path)
        assert len(stored.records) == len(outcomes)

    def test_leftover_partial_temp_file_is_ignored(self, executed, tmp_path):
        """A partial ``*.tmp`` staging file left behind by a hard crash must
        not shadow or corrupt the real document."""
        spec, outcomes = executed
        path = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        partial = tmp_path / "results.json.abc123.tmp"
        partial.write_text('{"schema_version": 1, "sweeps": [', encoding="utf-8")
        (stored,) = load_sweeps(path)
        assert len(stored.records) == len(outcomes)

    def test_written_file_respects_umask(self, executed, tmp_path):
        """The staged temp file is 0600; the destination must get the usual
        umask-derived mode, like a plain write_text would."""
        import os as os_module

        spec, outcomes = executed
        umask = os_module.umask(0)
        os_module.umask(umask)
        path = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        assert (path.stat().st_mode & 0o777) == (0o666 & ~umask)

    def test_save_stages_in_target_directory(self, executed, tmp_path, monkeypatch):
        """The temp file must live next to the destination (same filesystem),
        otherwise os.replace would not be atomic."""
        import repro.runner.atomic as atomic_module

        spec, outcomes = executed
        staged_dirs = []
        original = atomic_module.tempfile.NamedTemporaryFile

        def recording(*args, **kwargs):
            staged_dirs.append(kwargs.get("dir"))
            return original(*args, **kwargs)

        monkeypatch.setattr(atomic_module.tempfile, "NamedTemporaryFile", recording)
        save_sweeps(tmp_path / "deep" / "results.json", [(spec, outcomes)])
        assert staged_dirs == [tmp_path / "deep"]


class TestAnalysisLoader:
    def test_load_sweep_records(self, executed, tmp_path):
        from repro.analysis.sweeps import load_sweep_records, records_table

        spec, outcomes = executed
        path = save_sweeps(tmp_path / "results.json", [(spec, outcomes)])
        records = load_sweep_records(path)
        assert len(records) == len(outcomes)
        table = records_table(records)
        assert "d695_plasma" in table
        assert "noproc" in table
