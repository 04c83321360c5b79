"""A non-finite power-limit fraction is rejected at every entry point.

``float`` accepts ``inf`` and ``nan``, and ``json.loads`` turns ``1e999``
into ``inf`` and ``NaN`` into ``nan``.  Both pass a plain ``> 0`` check; the
value then reaches exports and responses as non-standard JSON
(``Infinity``/``NaN``) or fails deep inside the planner.  One check
(:func:`repro.schedule.power.require_positive_finite`) now stops it at the
door of the library, the CLI and the HTTP API alike.
"""

import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.runner.db import SweepDatabase
from repro.runner.spec import SweepSpec
from repro.schedule.planner import PlanRequest
from repro.serve import create_server


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """One live daemon on an ephemeral port, shared by the module's tests."""
    store = tmp_path_factory.mktemp("serve") / "serve.db"
    server = create_server(store, port=0, cache_ttl=60.0, characterize=False)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def post(daemon, path: str, body: str) -> tuple[int, str]:
    """POST a raw JSON body and return ``(status, response text)``."""
    request = urllib.request.Request(
        daemon.url + path, data=body.encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


@pytest.mark.parametrize(
    "token, literal",
    [("inf", "Infinity"), ("1e999", "1e999"), ("nan", "NaN")],
    ids=["inf", "1e999", "nan"],
)
def test_non_finite_power_fraction_rejected(daemon, tmp_path, capsys, token, literal):
    """``token`` is the command-line spelling, ``literal`` the JSON one."""
    fraction = float(token)
    with pytest.raises(ConfigurationError, match="finite"):
        SweepSpec(
            name="non-finite",
            systems=("d695_leon",),
            processor_counts=(0,),
            power_limits=(("limit", fraction),),
        )
    with pytest.raises(ConfigurationError, match="finite"):
        PlanRequest(power_limit_fraction=fraction)

    status, body = post(
        daemon, "/plan", f'{{"system": "d695_leon", "power_limit_fraction": {literal}}}'
    )
    assert status == 400
    assert "finite" in body
    spec = (
        '{"name": "non-finite", "systems": ["d695_leon"], "processor_counts": [0], '
        f'"power_limits": [["limit", {literal}]], "schedulers": ["greedy"]}}'
    )
    status, body = post(daemon, "/sweeps", f'{{"spec": {spec}}}')
    assert status == 400
    assert "finite" in body
    assert "Infinity" not in body and "NaN" not in body
    assert daemon.service.jobs.job_count() == 0
    with SweepDatabase.open_reader(daemon.service.store_path) as db:
        assert db.job_count() == 0

    out = tmp_path / "x.json"
    assert main(["sweep", "d695_leon", "--power-limits", token, "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()
