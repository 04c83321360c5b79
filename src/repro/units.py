"""Small helpers for the physical quantities used throughout the library.

The paper's tool works in three unit systems:

* **time** — test clock cycles (integers); all schedule arithmetic is exact.
* **power** — arbitrary "power units", consistent with the ITC'02 follow-up
  literature where per-core test power is a dimensionless weight.
* **data volume** — bits transported over the NoC.

The helpers below keep the conversions between them explicit.
"""

from __future__ import annotations

#: Number of clock cycles the external tester needs to produce one pattern.
#: The paper assumes the ATE streams patterns with no generation overhead.
EXTERNAL_TESTER_CYCLES_PER_PATTERN = 0

#: Number of clock cycles an embedded processor needs to generate one BIST
#: pattern (the paper's stated assumption in Section 3).
PROCESSOR_CYCLES_PER_PATTERN = 10


def flits_for_bits(bits: int, flit_width: int) -> int:
    """Number of flits required to carry ``bits`` over a ``flit_width`` link.

    >>> flits_for_bits(64, 32)
    2
    >>> flits_for_bits(65, 32)
    3
    >>> flits_for_bits(0, 32)
    0
    """
    if flit_width <= 0:
        raise ValueError(f"flit_width must be positive, got {flit_width}")
    if bits < 0:
        raise ValueError(f"bit counts cannot be negative, got {bits}")
    return (bits + flit_width - 1) // flit_width


def reduction_percent(baseline: float, improved: float) -> float:
    """Test-time reduction of ``improved`` relative to ``baseline`` in percent.

    >>> reduction_percent(100, 72)
    28.0
    """
    if baseline <= 0:
        return 0.0
    return 100.0 * (baseline - improved) / baseline
