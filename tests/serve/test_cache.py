"""Tests of the daemon's TTL read cache."""

import pytest

from repro.serve.cache import MAX_ENTRIES, TTLCache


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


class TestTTLCache:
    def test_hit_within_ttl(self, clock):
        cache = TTLCache(10.0, clock=clock)
        cache.put("key", {"rows": [1, 2]})
        clock.advance(9.9)
        assert cache.get("key") == {"rows": [1, 2]}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 0

    def test_expiry_after_ttl(self, clock):
        cache = TTLCache(10.0, clock=clock)
        cache.put("key", "value")
        clock.advance(10.0)
        assert cache.get("key") is None
        assert cache.stats.misses == 1
        assert len(cache) == 0

    def test_miss_on_absent_key(self, clock):
        cache = TTLCache(10.0, clock=clock)
        assert cache.get("absent") is None
        assert cache.stats.misses == 1

    def test_zero_ttl_disables_caching(self, clock):
        cache = TTLCache(0, clock=clock)
        cache.put("key", "value")
        assert len(cache) == 0
        assert cache.get("key") is None

    def test_put_evicts_expired_entries(self, clock):
        cache = TTLCache(10.0, clock=clock)
        cache.put("old", 1)
        clock.advance(11.0)
        cache.put("new", 2)
        assert len(cache) == 1
        assert cache.get("new") == 2

    def test_overwrite_refreshes_entry(self, clock):
        cache = TTLCache(10.0, clock=clock)
        cache.put("key", "first")
        clock.advance(6.0)
        cache.put("key", "second")
        clock.advance(6.0)
        assert cache.get("key") == "second"

    def test_clear(self, clock):
        cache = TTLCache(10.0, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_distinct_keys_are_independent(self, clock):
        cache = TTLCache(10.0, clock=clock)
        cache.put(("win-rates", None, (1, 1)), "v1")
        cache.put(("win-rates", None, (2, 1)), "v2")
        assert cache.get(("win-rates", None, (1, 1))) == "v1"
        assert cache.get(("win-rates", None, (2, 1))) == "v2"

    def test_put_drops_the_expired_prefix_only(self, clock):
        cache = TTLCache(10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(5.0)
        cache.put("b", 2)
        clock.advance(6.0)
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") == 2 and cache.get("c") == 3

    def test_reput_key_moves_behind_older_entries(self, clock):
        cache = TTLCache(10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(2.0)
        cache.put("b", 2)
        clock.advance(2.0)
        cache.put("a", 3)
        clock.advance(8.5)
        cache.put("c", 4)
        # "b" expired behind the refreshed "a": evicting the expired
        # prefix reaches it only if the re-put moved "a" to the end.
        assert len(cache) == 2
        assert cache.get("a") == 3

    def test_a_write_beyond_max_entries_evicts_the_oldest(self, clock):
        cache = TTLCache(10.0, clock=clock)
        for key in range(MAX_ENTRIES):
            cache.put(key, key)
        cache.put(0, "again")
        cache.put("new", 1)
        assert len(cache) == MAX_ENTRIES
        assert cache.get(1) is None
        assert cache.get(0) == "again" and cache.get("new") == 1

    def test_negative_ttl_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TTLCache(-1.0)
