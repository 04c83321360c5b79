"""Hostile ``.soc`` input: damaged bundled files fail with typed errors.

Each example takes a bundled file and damages it: lines dropped,
duplicated or truncated, and tokens swapped for negative, non-finite, huge
or empty values.  Loading the result the way :func:`load_benchmark
<repro.itc02.library.load_benchmark>` does (parse, then validate with power
required) must yield a benchmark whose every power figure is positive and
finite, or a :class:`~repro.errors.ReproError`, never another exception
type.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.itc02.library import data_directory
from repro.itc02.parser import parse_soc
from repro.itc02.validate import validate_benchmark

#: Replacement tokens: negative, non-finite, overflowing, huge and empty.
HOSTILE_TOKENS = ("-1", "nan", "inf", "-inf", "1e400", "9" * 40, "")

MUTATIONS = st.tuples(
    st.sampled_from(("drop", "duplicate", "truncate", "swap")),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.sampled_from(HOSTILE_TOKENS),
)


def mutate(lines, mutations):
    lines = list(lines)
    for kind, line_pick, position, token in mutations:
        if not lines:
            break
        index = line_pick % len(lines)
        line = lines[index]
        if kind == "drop":
            del lines[index]
        elif kind == "duplicate":
            lines.insert(index, line)
        elif kind == "truncate":
            lines[index] = line[: position % (len(line) + 1)]
        else:
            tokens = line.split()
            if tokens:
                tokens[position % len(tokens)] = token
                lines[index] = " ".join(tokens)
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(("d695", "p22810", "p93791")),
    mutations=st.lists(MUTATIONS, min_size=1, max_size=6),
)
def test_damaged_bundled_file_fails_with_a_typed_error(name, mutations):
    lines = (data_directory() / f"{name}.soc").read_text(encoding="utf-8").splitlines()
    text = mutate(lines, mutations)
    try:
        benchmark = parse_soc(text, source=f"{name}.soc")
        validate_benchmark(benchmark, require_power=True)
    except ReproError:
        return
    assert all(0 < module.power < math.inf for module in benchmark)
