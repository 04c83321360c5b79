"""The library examples run to completion.

Each example is a script a reader runs as ``python examples/<name>.py``; it
runs here as its own ``__main__`` in a fresh interpreter.
``serve_client.py`` needs a live daemon and is driven by
``tests/serve/test_http.py`` instead.
"""

from pathlib import Path

import pytest

from tests.test_imports import run_python

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "processor_reuse_tradeoff.py",
        "power_constrained_scheduling.py",
        "custom_soc_planning.py",
    ],
)
def test_example_runs(script, tmp_path):
    path = str(EXAMPLES / script)
    completed = run_python(
        f"import runpy; runpy.run_path({path!r}, run_name='__main__')", tmp_path
    )
    assert completed.stdout
