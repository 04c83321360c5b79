"""Tests of the declarative sweep specification."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.runner.backends import ShardWorkerBackend, WorkerPlan, lpt_split
from repro.runner.spec import (
    SweepSpec,
    canonical_scheduler_name,
    make_scheduler,
    power_series_label,
    scheduler_spec_name,
)
from repro.schedule.greedy import GreedyScheduler
from repro.schedule.variants import FastestCompletionScheduler


def small_spec(**overrides):
    parameters = dict(
        name="test",
        systems=("d695_leon",),
        processor_counts=(0, 2),
        power_limits={"no power limit": None, "50% power limit": 0.5},
    )
    parameters.update(overrides)
    return SweepSpec(**parameters)


class TestSchedulerRegistry:
    def test_canonical_names(self):
        assert canonical_scheduler_name("greedy") == "greedy"
        assert canonical_scheduler_name("greedy-first-available") == "greedy"
        assert canonical_scheduler_name("lookahead") == "fastest-completion"
        assert canonical_scheduler_name("Fastest-Completion") == "fastest-completion"

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            canonical_scheduler_name("simulated-annealing")

    def test_make_scheduler(self):
        assert isinstance(make_scheduler("greedy"), GreedyScheduler)
        assert isinstance(make_scheduler("lookahead"), FastestCompletionScheduler)

    def test_scheduler_spec_name(self):
        assert scheduler_spec_name(None) == "greedy"
        assert scheduler_spec_name(GreedyScheduler()) == "greedy"
        assert scheduler_spec_name(FastestCompletionScheduler()) == "fastest-completion"


class TestPowerSeriesLabel:
    def test_paper_labels(self):
        assert power_series_label(None) == "no power limit"
        assert power_series_label(0.5) == "50% power limit"
        assert power_series_label(0.75) == "75% power limit"


class TestPointExpansion:
    def test_point_count_and_order(self):
        spec = small_spec()
        points = spec.points()
        assert len(points) == spec.point_count == 4
        assert [point.index for point in points] == [0, 1, 2, 3]
        # Innermost axis (processor count) varies fastest.
        assert [(p.power_label, p.reused_processors) for p in points] == [
            ("no power limit", 0),
            ("no power limit", 2),
            ("50% power limit", 0),
            ("50% power limit", 2),
        ]

    def test_expansion_is_deterministic(self):
        assert small_spec().points() == small_spec().points()

    def test_point_labels(self):
        spec = small_spec(processor_counts=(0, 4, None))
        labels = [point.label for point in spec.points()[:3]]
        assert labels == ["noproc", "4proc", "allproc"]

    def test_scheduler_axis(self):
        spec = small_spec(schedulers=("greedy", "lookahead"), processor_counts=(0,))
        schedulers = {point.scheduler for point in spec.points()}
        assert schedulers == {"greedy", "fastest-completion"}


class TestValidation:
    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown paper system"):
            small_spec(systems=("d695_arm",))

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigurationError):
            small_spec(systems=())
        with pytest.raises(ConfigurationError):
            small_spec(processor_counts=())
        with pytest.raises(ConfigurationError):
            small_spec(power_limits=())

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            small_spec(processor_counts=(-1,))

    def test_non_positive_power_fraction_rejected(self):
        with pytest.raises(ConfigurationError, match="positive"):
            small_spec(power_limits={"zero": 0.0})

    def test_non_positive_flit_width_rejected(self):
        with pytest.raises(ConfigurationError, match="flit widths"):
            small_spec(flit_widths=(0,))


class TestSerialisation:
    def test_roundtrip(self):
        spec = small_spec(schedulers=("greedy", "fastest-completion"))
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_content_key_stable(self):
        assert small_spec().content_key() == small_spec().content_key()

    def test_content_key_differs_on_change(self):
        assert small_spec().content_key() != small_spec(flit_widths=(16,)).content_key()

    def test_from_dict_missing_field(self):
        with pytest.raises(ConfigurationError, match="missing field"):
            SweepSpec.from_dict({"systems": ["d695_leon"]})


#: Per-point cost profiles a split is exercised with: every point costing
#: 1.0 (nothing measured), and uneven measured costs.
COST_PROFILES = {
    "unit": lambda count: [1.0] * count,
    "measured": lambda count: [float((7 * index) % 5 + 1) for index in range(count)],
}


def split(spec, workers, costs="unit"):
    """A spec's grid split by :func:`lpt_split` into one point tuple per worker."""
    points = spec.points()
    groups = lpt_split(COST_PROFILES[costs](spec.point_count), [0.0] * workers)
    return [tuple(points[index] for index in group) for group in groups]


class TestShard:
    """The LPT split orchestration hands its workers, on a spec's grid."""

    def grid(self):
        """An 8-point grid (4 reuse levels x 2 power series)."""
        return small_spec(processor_counts=(0, 2, 4, 6))

    @pytest.mark.parametrize("costs", sorted(COST_PROFILES))
    def test_shards_partition_the_grid(self, costs):
        """Shards are disjoint and their union is the full point sequence,
        with every point keeping its global index."""
        spec = self.grid()
        shards = split(spec, 3, costs)
        merged = sorted((p for shard in shards for p in shard), key=lambda p: p.index)
        assert tuple(merged) == spec.points()
        indices = [p.index for shard in shards for p in shard]
        assert len(indices) == len(set(indices))

    def test_unit_costs_balance_the_remainder(self):
        shards = split(self.grid(), 3)
        assert [len(s) for s in shards] == [3, 3, 2]
        assert [p.index for p in shards[0]] == [0, 3, 6]
        assert [p.index for p in shards[2]] == [2, 5]

    def test_strided_deals_round_robin(self):
        """Unit costs on fresh loads deal the points round-robin: the
        strided split."""
        assert [p.index for p in split(self.grid(), 3)[1]] == [1, 4, 7]

    def test_single_shard_is_the_full_grid(self):
        spec = self.grid()
        assert split(spec, 1) == [spec.points()]

    @pytest.mark.parametrize("costs", sorted(COST_PROFILES))
    def test_more_shards_than_points_leaves_trailing_shards_empty(self, costs):
        spec = small_spec(processor_counts=(0,), power_limits={"no power limit": None})
        assert [len(s) for s in split(spec, 3, costs)] == [1, 0, 0]

    def test_shards_are_deterministic(self):
        assert split(self.grid(), 3) == split(self.grid(), 3)

    @pytest.mark.parametrize("costs", sorted(COST_PROFILES))
    def test_oversized_count_still_partitions_the_grid(self, costs):
        """More workers than points yields empty lists whose union with
        the others is still exactly the grid."""
        spec = self.grid()  # 8 points
        shards = split(spec, 13, costs)
        merged = sorted((p for shard in shards for p in shard), key=lambda p: p.index)
        assert tuple(merged) == spec.points()
        assert sum(1 for shard in shards if not shard) == 13 - 8

    def test_non_positive_count_rejected(self):
        """The worker count is checked where a split is configured."""
        with pytest.raises(ConfigurationError, match="positive"):
            ShardWorkerBackend(workers=0)

    @staticmethod
    def worker(tmp_path, index, count):
        """The plan of worker ``index`` of a ``count``-way split."""
        return WorkerPlan(
            shard_index=index,
            shard_count=count,
            spec_path=tmp_path / "spec.json",
            store_path=tmp_path / f"shard-{index}-of-{count}.db",
            log_path=tmp_path / f"shard-{index}.log",
            argv=("true",),
        )

    @pytest.mark.parametrize("index", [-1, 3, 7])
    def test_out_of_range_index_rejected(self, tmp_path, index):
        with pytest.raises(ConfigurationError, match="out of range"):
            self.worker(tmp_path, index, 3)

    def test_out_of_range_index_message_states_the_rule(self, tmp_path):
        """An index >= count must name the constraint, not just reject."""
        with pytest.raises(ConfigurationError, match=r"0 <= shard_index < shard_count"):
            self.worker(tmp_path, 3, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        count=st.integers(0, 60),
        workers=st.integers(1, 12),
        costs=st.lists(st.floats(0.0, 100.0), min_size=60, max_size=60),
    )
    @example(count=8, workers=3, costs=[1.0] * 60)
    @example(count=8, workers=13, costs=[1.0] * 60)
    @example(count=1, workers=3, costs=[1.0] * 60)
    @example(count=8, workers=1, costs=[1.0] * 60)
    def test_every_split_is_a_sorted_disjoint_cover(self, count, workers, costs):
        """LPT lists, under unit and under random costs, are each
        ascending, pairwise disjoint, and together cover ``range(count)``."""
        for point_costs in ([1.0] * count, costs[:count]):
            groups = lpt_split(point_costs, [0.0] * workers)
            assert len(groups) == workers
            assert all(list(group) == sorted(set(group)) for group in groups)
            assert sorted(index for group in groups for index in group) == list(range(count))

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 30), min_size=1, max_size=6),
        workers=st.integers(1, 12),
    )
    @example(counts=[8, 8], workers=3)
    def test_unit_cost_batch_totals_differ_by_at_most_one(self, counts, workers):
        """Grids packed one after another on a shared ``loads`` list, all
        points costing 1.0: per-worker point totals over the whole batch
        differ by at most one."""
        loads = [0.0] * workers
        totals = [0] * workers
        for count in counts:
            for worker, group in enumerate(lpt_split([1.0] * count, loads)):
                totals[worker] += len(group)
        assert max(totals) - min(totals) <= 1
        assert sum(totals) == sum(counts)


class TestPointSelection:
    def grid(self):
        """An 8-point grid (4 reuse levels x 2 power series)."""
        return small_spec(processor_counts=(0, 2, 4, 6))

    def test_subset_keeps_global_indices_ascending(self):
        spec = self.grid()
        points = spec.points_at([5, 0, 3])
        assert [p.index for p in points] == [0, 3, 5]
        assert points == tuple(spec.points()[i] for i in (0, 3, 5))

    def test_indices_deduplicated(self):
        assert [p.index for p in self.grid().points_at([2, 2, 2])] == [2]

    def test_any_partition_unions_to_the_grid(self):
        """The cost-based dispatch contract: arbitrary index groups cover
        the grid exactly like the built-in shard strategies."""
        spec = self.grid()
        groups = ([7, 1], [0, 4, 6], [2, 3, 5])
        merged = sorted(
            (p for group in groups for p in spec.points_at(group)),
            key=lambda p: p.index,
        )
        assert tuple(merged) == spec.points()

    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one index"):
            self.grid().points_at([])

    @pytest.mark.parametrize("index", [-1, 8, 99])
    def test_out_of_range_index_rejected(self, index):
        with pytest.raises(ConfigurationError, match="out of range"):
            self.grid().points_at([0, index])
