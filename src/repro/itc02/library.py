"""Library of the benchmarks used by the paper, read from bundled .soc files.

Three benchmarks ship as ``.soc`` files in the package's ``data/`` directory,
matching Section 3 of the paper:

* ``d695`` — the academic benchmark built from ISCAS-85/89 cores.  Its
  per-core data (terminals, scan chains, pattern counts) is widely published,
  and its file carries the per-core test power values commonly used by the
  power-constrained ITC'02 follow-up literature.
* ``p22810`` and ``p93791`` — Philips industrial benchmarks whose original
  files are not redistributable.  Their bundled files were reconstructed
  deterministically by :mod:`repro.itc02.synth`.

Every paper benchmark enters the program through :func:`load_benchmark`,
which parses the bundled file and validates it, power figures included;
:func:`available_benchmarks` lists the names.  Loading is cached: the same
object is returned for repeated calls, so callers must not mutate it.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro.errors import UnknownBenchmarkError
from repro.itc02.model import SocBenchmark
from repro.itc02.parser import parse_soc_file
from repro.itc02.validate import validate_benchmark
from repro.itc02.writer import write_soc_file


def data_directory() -> Path:
    """Path of the package's bundled ``data/`` directory with ``.soc`` files."""
    return Path(__file__).resolve().parent / "data"


@lru_cache(maxsize=None)
def available_benchmarks() -> tuple[str, ...]:
    """Names of the bundled benchmarks: the sorted stems of ``data/*.soc``.

    Raises:
        UnknownBenchmarkError: when the directory holds no ``.soc`` file (a
            build that did not ship the package data); the message names
            the directory.  A raise is not cached, so a later call looks
            again.
    """
    directory = data_directory()
    names = tuple(sorted(path.stem for path in directory.glob("*.soc")))
    if not names:
        raise UnknownBenchmarkError(f"no .soc file found in {directory}")
    return names


@lru_cache(maxsize=None)
def _load_cached(key: str) -> SocBenchmark:
    benchmark = parse_soc_file(data_directory() / f"{key}.soc")
    validate_benchmark(benchmark, require_power=True)
    return benchmark


def load_benchmark(name: str) -> SocBenchmark:
    """Load the bundled benchmark called ``name``.

    The name is checked against :func:`available_benchmarks` before any path
    is built, so no other file is ever opened.

    Args:
        name: one of :func:`available_benchmarks` (case-insensitive).

    Raises:
        UnknownBenchmarkError: for any other name.
        BenchmarkFormatError: if the bundled file does not parse.
        BenchmarkValidationError: if it parses but a module breaks an
            invariant or carries no power figure.
    """
    key = name.lower()
    known = available_benchmarks()
    if key not in known:
        raise UnknownBenchmarkError(
            f"unknown benchmark {name!r}; available benchmarks: {', '.join(known)}"
        )
    return _load_cached(key)


def export_benchmarks(directory: str | Path) -> list[Path]:
    """Write every bundled benchmark as a ``.soc`` file under ``directory``.

    Returns the list of paths written.  The files equal the bundled ones
    byte for byte; handy for users who want them on disk.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name in available_benchmarks():
        path = directory / f"{name}.soc"
        write_soc_file(load_benchmark(name), path)
        written.append(path)
    return written
