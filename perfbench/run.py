"""The planner benchmark: three workloads, end to end and per layer.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 50 --trace 0

Workloads (see ``perfbench/METRICS.md`` for why each exists and what each
metric means on it):

* ``cli-cold``    — the ``repro`` CLI as a user runs it, cold, on the
  paper grid;
* ``serve-mixed`` — a ``repro serve`` daemon under a seeded request mix.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` adds a traced pass and reports the per-layer
metrics plus the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import END_TO_END_UNITS, per_layer_units, require_program, scrub_environment

WORKLOADS = {
    "cli-cold": "cli_cold",
    "serve-mixed": "serve_mixed",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    require_program()
    scrub_environment()
    workload = importlib.import_module(WORKLOADS[args.workload])
    outcome = workload.run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not measure {missing}")
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        samples = outcome.samples.get(name)
        note = f"  (n={samples})" if samples else ""
        if name in outcome.raw:
            note += f"  (unscaled {outcome.raw[name]:.6g})"
        print(f"{args.workload:<12} {name:<44} {outcome.metrics[name]:>14.6g} {unit}{note}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": float(outcome.metrics[name]), "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
