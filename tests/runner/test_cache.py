"""Tests of the content-keyed system and characterisation caches."""

import json

import pytest

import repro.runner.cache as cache_module
from repro.runner.cache import (
    CharacterizationCache,
    SystemCache,
    build_point_system,
    content_key,
)


class TestContentKey:
    def test_stable_across_calls(self):
        payload = {"a": 1, "b": [1, 2, 3]}
        assert content_key(payload) == content_key(payload)

    def test_key_order_insensitive(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_differs_on_content(self):
        assert content_key({"a": 1}) != content_key({"a": 2})


class TestBuildPointSystem:
    def test_builds_paper_system(self):
        system = build_point_system("d695_leon", flit_width=16)
        assert system.name == "d695_leon"
        assert system.network.flit_width == 16

    def test_pattern_penalty_changes_characterization(self):
        default = build_point_system("d695_leon")
        penalised = build_point_system("d695_leon", pattern_penalty=40)
        default_char = default.processor_characterizations["leon1"]
        penalised_char = penalised.processor_characterizations["leon1"]
        assert penalised_char != default_char


class TestSystemCache:
    def test_miss_then_hit(self):
        cache = SystemCache()
        first = cache.get("d695_leon")
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        second = cache.get("d695_leon")
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_different_parameters_are_different_entries(self):
        cache = SystemCache()
        cache.get("d695_leon")
        cache.get("d695_leon", flit_width=16)
        cache.get("d695_leon", pattern_penalty=5)
        assert len(cache) == 3
        assert cache.stats.misses == 3

    def test_clear_drops_entries(self):
        cache = SystemCache()
        first = cache.get("d695_leon")
        cache.clear()
        assert len(cache) == 0
        assert cache.get("d695_leon") is not first

    def test_stats_as_dict(self):
        cache = SystemCache()
        cache.get("d695_leon")
        cache.get("d695_leon")
        assert cache.stats.as_dict() == {"hits": 1, "misses": 1, "disk_hits": 0}


class TestSystemCacheDisk:
    def test_disk_persistence(self, tmp_path, monkeypatch):
        cache = SystemCache(tmp_path)
        built = cache.get("d695_leon")
        assert list(tmp_path.glob("system-build-*.pkl"))
        assert cache.stats.as_dict() == {"hits": 0, "misses": 1, "disk_hits": 0}

        # A fresh cache over the same directory must load from disk without
        # rebuilding the system.
        def boom(*args, **kwargs):
            raise AssertionError("build_point_system must not be called on a disk hit")

        monkeypatch.setattr(cache_module, "build_paper_system", boom)
        reloaded_cache = SystemCache(tmp_path)
        reloaded = reloaded_cache.get("d695_leon")
        assert reloaded_cache.stats.as_dict() == {
            "hits": 1,
            "misses": 0,
            "disk_hits": 1,
        }
        assert reloaded.name == built.name
        built_ids = [core.identifier for core in built.cores]
        assert [core.identifier for core in reloaded.cores] == built_ids
        # The reloaded system plans identically to the freshly built one.
        from repro.schedule.planner import TestPlanner

        assert (
            TestPlanner(reloaded).plan(reused_processors=2).makespan
            == TestPlanner(built).plan(reused_processors=2).makespan
        )
        # Further lookups are memory hits, not repeated disk reads.
        reloaded_cache.get("d695_leon")
        assert reloaded_cache.stats.as_dict() == {
            "hits": 2,
            "misses": 0,
            "disk_hits": 1,
        }

    def test_corrupt_record_rebuilt(self, tmp_path):
        cache = SystemCache(tmp_path)
        cache.get("d695_leon")
        (record,) = tmp_path.glob("system-build-*.pkl")
        record.write_bytes(b"not a pickle")
        fresh = SystemCache(tmp_path)
        fresh.get("d695_leon")
        assert fresh.stats.as_dict() == {"hits": 0, "misses": 1, "disk_hits": 0}

    def test_schema_version_checked(self, tmp_path):
        import pickle

        cache = SystemCache(tmp_path)
        cache.get("d695_leon")
        (record,) = tmp_path.glob("system-build-*.pkl")
        document = pickle.loads(record.read_bytes())
        document["schema_version"] = 999
        record.write_bytes(pickle.dumps(document))
        fresh = SystemCache(tmp_path)
        fresh.get("d695_leon")
        assert fresh.stats.misses == 1

    def test_schema_v1_record_rebuilt(self, tmp_path):
        """Version-1 records pickled ``Network``/``XYRouting`` with their old
        cache switches; under the same library version they are rebuilt,
        never served from disk."""
        import pickle

        cache = SystemCache(tmp_path)
        cache.get("d695_leon")
        (record,) = tmp_path.glob("system-build-*.pkl")
        document = pickle.loads(record.read_bytes())
        document["schema_version"] = 1
        record.write_bytes(pickle.dumps(document))
        fresh = SystemCache(tmp_path)
        fresh.get("d695_leon")
        assert fresh.stats.as_dict() == {"hits": 0, "misses": 1, "disk_hits": 0}

    def test_library_version_checked(self, tmp_path):
        """A record pickled by a different library version is rebuilt, not
        unpickled into a potentially stale class shape."""
        import pickle

        cache = SystemCache(tmp_path)
        cache.get("d695_leon")
        (record,) = tmp_path.glob("system-build-*.pkl")
        document = pickle.loads(record.read_bytes())
        document["version"] = "0.0.0-stale"
        record.write_bytes(pickle.dumps(document))
        fresh = SystemCache(tmp_path)
        fresh.get("d695_leon")
        assert fresh.stats.misses == 1

    def test_memory_only_cache_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = SystemCache()
        cache.get("d695_leon")
        assert cache.cache_dir is None
        assert not list(tmp_path.iterdir())


@pytest.fixture
def small_network():
    from repro.noc.network import Network, NocConfig

    return Network(NocConfig(width=3, height=3, flit_width=16))


class TestCharacterizationCache:
    def test_memory_hit(self, small_network):
        cache = CharacterizationCache()
        first = cache.get(small_network, packet_count=20)
        second = cache.get(small_network, packet_count=20)
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_different_campaigns_are_different_entries(self, small_network):
        cache = CharacterizationCache()
        cache.get(small_network, packet_count=20)
        cache.get(small_network, packet_count=30)
        assert cache.stats.misses == 2

    def test_disk_persistence(self, small_network, tmp_path, monkeypatch):
        cache = CharacterizationCache(tmp_path)
        computed = cache.get(small_network, packet_count=20)
        assert list(tmp_path.glob("noc-characterization-*.json"))

        # A fresh cache over the same directory must load from disk without
        # recomputing the campaign.
        def boom(*args, **kwargs):
            raise AssertionError("characterize_noc must not be called on a disk hit")

        monkeypatch.setattr(cache_module, "characterize_noc", boom)
        reloaded_cache = CharacterizationCache(tmp_path)
        reloaded = reloaded_cache.get(small_network, packet_count=20)
        assert reloaded == computed
        assert reloaded_cache.stats.hits == 1 and reloaded_cache.stats.misses == 0

    def test_corrupt_record_recomputed(self, small_network, tmp_path):
        cache = CharacterizationCache(tmp_path)
        cache.get(small_network, packet_count=20)
        (record,) = tmp_path.glob("noc-characterization-*.json")
        record.write_text("not json", encoding="utf-8")
        fresh = CharacterizationCache(tmp_path)
        fresh.get(small_network, packet_count=20)
        assert fresh.stats.misses == 1

    def test_schema_version_checked(self, small_network, tmp_path):
        cache = CharacterizationCache(tmp_path)
        cache.get(small_network, packet_count=20)
        (record,) = tmp_path.glob("noc-characterization-*.json")
        document = json.loads(record.read_text(encoding="utf-8"))
        document["schema_version"] = 999
        record.write_text(json.dumps(document), encoding="utf-8")
        fresh = CharacterizationCache(tmp_path)
        fresh.get(small_network, packet_count=20)
        assert fresh.stats.misses == 1

    def test_crash_mid_persist_leaves_previous_record(
        self, small_network, tmp_path, monkeypatch
    ):
        """Simulated crash while persisting: the on-disk record keeps its
        previous (complete) content instead of ending up truncated."""
        import os as os_module

        cache = CharacterizationCache(tmp_path)
        cache.get(small_network, packet_count=20)
        (record,) = tmp_path.glob("noc-characterization-*.json")
        before = record.read_bytes()

        def crash(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os_module, "replace", crash)
        fresh = CharacterizationCache(tmp_path)
        record.unlink()  # force a recompute that must then fail to persist
        with pytest.raises(OSError, match="simulated crash"):
            fresh.get(small_network, packet_count=20)
        monkeypatch.undo()

        record.write_bytes(before)
        reloaded = CharacterizationCache(tmp_path)
        reloaded.get(small_network, packet_count=20)
        assert reloaded.stats.hits == 1 and reloaded.stats.misses == 0

    def test_leftover_temp_file_not_loaded(self, small_network, tmp_path):
        """Stray ``*.tmp`` staging files (a hard crash's residue) must never
        be picked up as cache records."""
        cache = CharacterizationCache(tmp_path)
        computed = cache.get(small_network, packet_count=20)
        (record,) = tmp_path.glob("noc-characterization-*.json")
        partial = tmp_path / (record.name + ".xyz.tmp")
        partial.write_text('{"schema_version": 1, "charac', encoding="utf-8")
        fresh = CharacterizationCache(tmp_path)
        assert fresh.get(small_network, packet_count=20) == computed
        assert fresh.stats.hits == 1 and fresh.stats.misses == 0
