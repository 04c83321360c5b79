"""Parser for the library's ITC'02-style ``.soc`` dialect.

The original ITC'02 files use a line-oriented, keyword-driven format.  This
library uses a close dialect that keeps exactly the information the test
planner consumes.  A file looks like::

    # comment
    SocName d695
    TotalModules 10

    Module 1 c6288
      Inputs 32
      Outputs 32
      Bidirs 0
      ScanChains 0
      Patterns 12
      Power 660
    EndModule

    Module 4 s9234
      Inputs 36
      Outputs 39
      Bidirs 0
      ScanChains 4
      ScanChainLengths 54 53 52 52
      Patterns 105
      Power 275
    EndModule

Rules:

* ``SocName`` is mandatory and must appear before the first ``Module`` block.
* ``TotalModules`` is optional; when present it must match the number of
  ``Module`` blocks (a cheap corruption check).
* Inside a ``Module`` block the keywords may appear in any order; ``Inputs``,
  ``Outputs`` and ``Patterns`` are mandatory, ``Bidirs`` and ``Power`` default
  to 0, ``ScanChains`` defaults to 0.
* ``ScanChainLengths`` is mandatory when ``ScanChains`` is positive and must
  list exactly that many positive integers.
* Counts are non-negative integers; ``Power`` is a non-negative, finite
  number (``nan``, ``inf`` and values that overflow to it are refused).
* ``#`` starts a comment anywhere on a line; blank lines are ignored.
"""

from __future__ import annotations

import math
import os
from typing import Iterable

from repro.errors import BenchmarkFormatError
from repro.itc02.model import Module, ScanChain, SocBenchmark

_MODULE_INT_FIELDS = {"Inputs", "Outputs", "Bidirs", "ScanChains", "Patterns"}
_MODULE_REQUIRED_FIELDS = ("Inputs", "Outputs", "Patterns")


def _strip_comment(line: str) -> str:
    """Remove a trailing ``#`` comment from ``line``."""
    hash_index = line.find("#")
    if hash_index >= 0:
        line = line[:hash_index]
    return line.strip()


def _parse_int(token: str, keyword: str, line_number: int) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise BenchmarkFormatError(
            f"{keyword} expects an integer, got {token!r}", line_number
        ) from exc
    if value < 0:
        raise BenchmarkFormatError(
            f"{keyword} must be non-negative, got {value}", line_number
        )
    return value


def _parse_float(token: str, keyword: str, line_number: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise BenchmarkFormatError(
            f"{keyword} expects a number, got {token!r}", line_number
        ) from exc
    if not 0 <= value < math.inf:
        raise BenchmarkFormatError(
            f"{keyword} must be non-negative and finite, got {token!r}", line_number
        )
    return value


class _ModuleBuilder:
    """Accumulates the fields of one ``Module`` block while parsing."""

    def __init__(self, number: int, name: str, line_number: int):
        self.number = number
        self.name = name
        self.start_line = line_number
        self.fields: dict[str, int] = {}
        self.power: float = 0.0
        self.scan_chain_lengths: list[int] | None = None

    def build(self) -> Module:
        for field_name in _MODULE_REQUIRED_FIELDS:
            if field_name not in self.fields:
                raise BenchmarkFormatError(
                    f"module {self.name!r} is missing the {field_name} keyword",
                    self.start_line,
                )
        declared_chains = self.fields.get("ScanChains", 0)
        lengths = self.scan_chain_lengths or []
        if declared_chains != len(lengths):
            raise BenchmarkFormatError(
                f"module {self.name!r} declares {declared_chains} scan chains "
                f"but lists {len(lengths)} lengths",
                self.start_line,
            )
        chains = tuple(
            ScanChain(index=i, length=length) for i, length in enumerate(lengths)
        )
        return Module(
            number=self.number,
            name=self.name,
            inputs=self.fields["Inputs"],
            outputs=self.fields["Outputs"],
            bidirs=self.fields.get("Bidirs", 0),
            scan_chains=chains,
            patterns=self.fields["Patterns"],
            power=self.power,
        )


def parse_soc(text: str, source: str = "<string>") -> SocBenchmark:
    """Parse a ``.soc`` description from ``text`` and return the benchmark.

    Args:
        text: the full content of a ``.soc`` file.
        source: a label used in error messages (typically the file name).

    Raises:
        BenchmarkFormatError: on any syntactic or structural problem.
    """
    soc_name: str | None = None
    declared_total: int | None = None
    benchmark: SocBenchmark | None = None
    builder: _ModuleBuilder | None = None

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line)
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]

        if keyword == "SocName":
            if len(tokens) != 2:
                raise BenchmarkFormatError("SocName expects one value", line_number)
            if soc_name is not None:
                raise BenchmarkFormatError("duplicate SocName", line_number)
            soc_name = tokens[1]
            benchmark = SocBenchmark(name=soc_name)
            continue

        if keyword == "TotalModules":
            if len(tokens) != 2:
                raise BenchmarkFormatError(
                    "TotalModules expects one value", line_number
                )
            declared_total = _parse_int(tokens[1], keyword, line_number)
            continue

        if keyword == "Module":
            if benchmark is None:
                raise BenchmarkFormatError(
                    "Module block before SocName", line_number
                )
            if builder is not None:
                raise BenchmarkFormatError(
                    f"Module block for {builder.name!r} was not closed with EndModule",
                    line_number,
                )
            if len(tokens) != 3:
                raise BenchmarkFormatError(
                    "Module expects a number and a name", line_number
                )
            number = _parse_int(tokens[1], keyword, line_number)
            builder = _ModuleBuilder(number=number, name=tokens[2], line_number=line_number)
            continue

        if keyword == "EndModule":
            if builder is None:
                raise BenchmarkFormatError(
                    "EndModule without a matching Module", line_number
                )
            assert benchmark is not None
            try:
                benchmark.add_module(builder.build())
            except Exception as exc:  # re-tag validation errors with position info
                raise BenchmarkFormatError(str(exc), builder.start_line) from exc
            builder = None
            continue

        # Everything else must be a keyword inside a Module block.
        if builder is None:
            raise BenchmarkFormatError(
                f"unexpected keyword {keyword!r} outside a Module block", line_number
            )

        if keyword in _MODULE_INT_FIELDS:
            if len(tokens) != 2:
                raise BenchmarkFormatError(
                    f"{keyword} expects one value", line_number
                )
            if keyword in builder.fields:
                raise BenchmarkFormatError(
                    f"duplicate {keyword} in module {builder.name!r}", line_number
                )
            builder.fields[keyword] = _parse_int(tokens[1], keyword, line_number)
            continue

        if keyword == "Power":
            if len(tokens) != 2:
                raise BenchmarkFormatError("Power expects one value", line_number)
            builder.power = _parse_float(tokens[1], keyword, line_number)
            continue

        if keyword == "ScanChainLengths":
            if builder.scan_chain_lengths is not None:
                raise BenchmarkFormatError(
                    f"duplicate ScanChainLengths in module {builder.name!r}",
                    line_number,
                )
            lengths = [
                _parse_int(token, keyword, line_number) for token in tokens[1:]
            ]
            if not lengths:
                raise BenchmarkFormatError(
                    "ScanChainLengths expects at least one length", line_number
                )
            builder.scan_chain_lengths = lengths
            continue

        raise BenchmarkFormatError(f"unknown keyword {keyword!r}", line_number)

    if builder is not None:
        raise BenchmarkFormatError(
            f"Module block for {builder.name!r} was not closed with EndModule",
            builder.start_line,
        )
    if benchmark is None:
        raise BenchmarkFormatError(f"{source}: no SocName found")
    if declared_total is not None and declared_total != benchmark.module_count:
        raise BenchmarkFormatError(
            f"{source}: TotalModules says {declared_total} but "
            f"{benchmark.module_count} Module blocks were found"
        )
    return benchmark


def parse_soc_file(path: str | os.PathLike[str]) -> SocBenchmark:
    """Parse a ``.soc`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_soc(handle.read(), source=str(path))


def parse_soc_lines(lines: Iterable[str], source: str = "<lines>") -> SocBenchmark:
    """Parse a ``.soc`` description given as an iterable of lines."""
    return parse_soc("\n".join(lines), source=source)
