"""Golden determinism: exported sweep documents are byte-stable.

The fixtures under ``tests/golden/`` were generated by the pre-optimisation
planner (before the route tables, job memoisation, allocator bounds and
power-total caching existed).  Every test here re-runs the same grids
through today's code and requires the exported JSON to be byte-identical —
the memoisation layers must be invisible in the results, in-process and
orchestrated, with and without the disk-backed system cache.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

#: fixture file → the ``repro sweep`` invocation that produced it.
GOLDEN_SWEEPS = {
    "d695_serial.json": ["d695_leon"],
    "p22810_serial.json": ["p22810_leon"],
    "p93791_serial.json": ["p93791_leon"],
    "variants_serial.json": ["--spec-json", str(GOLDEN / "variants_spec.json")],
}


def run_sweep(*argv: str) -> None:
    assert main(["sweep", "--no-characterize", *argv]) == 0


@pytest.mark.parametrize("fixture", sorted(GOLDEN_SWEEPS))
def test_serial_export_matches_golden(tmp_path, capsys, fixture):
    out = tmp_path / "out.json"
    run_sweep(*GOLDEN_SWEEPS[fixture], "--out", str(out))
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / fixture).read_bytes()


def test_disk_cache_cold_and_warm_match_golden(tmp_path, capsys):
    """A disk-backed system cache changes nothing — neither on the cold run
    that writes the cache nor on the warm run that plans entirely from
    reloaded builds."""
    cache_dir = tmp_path / "cache"
    for attempt in ("cold", "warm"):
        out = tmp_path / f"{attempt}.json"
        run_sweep("d695_leon", "--cache-dir", str(cache_dir), "--out", str(out))
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN / "d695_serial.json").read_bytes()
    assert list(cache_dir.glob("system-build-*.pkl")), "no persisted build"


def test_shard_workers_with_disk_cache_match_golden(tmp_path, capsys):
    """The PR 3 merge invariant survives the disk-backed system cache: shard
    workers sharing one cache directory merge into a store whose export is
    byte-identical to the serial run's."""
    out = tmp_path / "merged.json"
    argv = [
        "orchestrate",
        "d695_leon",
        "--no-characterize",
        "--workers",
        "2",
        "--store",
        str(tmp_path / "merged.db"),
        "--workdir",
        str(tmp_path / "workdir"),
        "--cache-dir",
        str(tmp_path / "cache"),
        "--export-json",
        str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "d695_serial.json").read_bytes()
