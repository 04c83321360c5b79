"""Embedded library of the benchmarks used by the paper.

Three benchmarks are available, matching Section 3 of the paper:

* ``d695`` — the academic benchmark built from ISCAS-85/89 cores.  Its
  per-core data (terminals, scan chains, pattern counts) is widely published
  and is embedded here verbatim, together with the per-core test power values
  commonly used by the power-constrained ITC'02 follow-up literature.
* ``p22810`` and ``p93791`` — Philips industrial benchmarks whose original
  files are not redistributable.  They are reconstructed deterministically by
  :mod:`repro.itc02.synth`.

Use :func:`load_benchmark` to obtain a benchmark by name and
:func:`available_benchmarks` to list the names.  Loading is cached: the same
object is returned for repeated calls, so callers must not mutate it.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro.errors import UnknownBenchmarkError
from repro.itc02.model import Module, ScanChain, SocBenchmark
from repro.itc02.synth import P22810_SPEC, P93791_SPEC, generate_benchmark
from repro.itc02.writer import write_soc_file

#: Per-core data of the d695 benchmark.  Columns: name, inputs, outputs,
#: bidirs, scan chain lengths, pattern count, test power (power units).  The
#: power column follows the synthetic values used by power-constrained test
#: scheduling papers on d695.
_D695_TABLE: tuple[tuple[str, int, int, int, tuple[int, ...], int, float], ...] = (
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


def _build_d695() -> SocBenchmark:
    benchmark = SocBenchmark(name="d695")
    for number, row in enumerate(_D695_TABLE, start=1):
        name, inputs, outputs, bidirs, chain_lengths, patterns, power = row
        chains = tuple(
            ScanChain(index=i, length=length)
            for i, length in enumerate(chain_lengths)
        )
        benchmark.add_module(
            Module(
                number=number,
                name=name,
                inputs=inputs,
                outputs=outputs,
                bidirs=bidirs,
                scan_chains=chains,
                patterns=patterns,
                power=power,
            )
        )
    return benchmark


_BUILDERS = {
    "d695": _build_d695,
    "p22810": lambda: generate_benchmark(P22810_SPEC),
    "p93791": lambda: generate_benchmark(P93791_SPEC),
}


def available_benchmarks() -> tuple[str, ...]:
    """Names of the benchmarks embedded in the library, in paper order."""
    return tuple(_BUILDERS)


@lru_cache(maxsize=None)
def _load_cached(key: str) -> SocBenchmark:
    return _BUILDERS[key]()


def load_benchmark(name: str) -> SocBenchmark:
    """Load the embedded benchmark called ``name``.

    Args:
        name: one of :func:`available_benchmarks` (case-insensitive).

    Raises:
        UnknownBenchmarkError: for any other name.
    """
    key = name.lower()
    if key not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}; available benchmarks: {known}"
        )
    return _load_cached(key)


def export_benchmarks(directory: str | Path) -> list[Path]:
    """Write every embedded benchmark as a ``.soc`` file under ``directory``.

    Returns the list of paths written.  Used to (re)generate the package's
    ``data/`` directory and handy for users who want the files on disk.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in available_benchmarks():
        path = directory / f"{name}.soc"
        write_soc_file(load_benchmark(name), path)
        written.append(path)
    return written


def data_directory() -> Path:
    """Path of the package's bundled ``data/`` directory with ``.soc`` files."""
    return Path(__file__).resolve().parent / "data"
