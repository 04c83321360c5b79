#!/usr/bin/env python3
"""Drive a running ``repro serve`` daemon end to end, stdlib-only.

A typed :class:`ServeClient` (``urllib.request``, no dependencies) plus a
``main`` that exercises the whole API surface against a live daemon:

1. ``GET /healthz`` — confirm liveness and note the store version;
2. ``POST /plan`` — plan one system synchronously, with and without a
   power limit, then plan the same points again as one batch request and
   check the batch answers match point for point;
3. ``POST /sweeps`` — enqueue a small two-scheduler grid and poll
   ``GET /sweeps/<id>`` until the job reaches a terminal state;
4. ``GET /history/win-rates`` and ``GET /history/trajectory`` — read the
   store's SQL aggregations back over HTTP.

Against a daemon started with ``--auth-token`` pass ``--token`` (or set
``REPRO_SERVE_TOKEN``); the client sends it as a bearer credential and
retries 503 answers honouring ``Retry-After`` (see ``docs/operations.md``).

With ``--expect-store DB`` (pointing at the daemon's sqlite store) the
history responses are additionally cross-checked row for row against the
library's own :meth:`SweepDatabase.win_rate_rows
<repro.runner.db.SweepDatabase.win_rate_rows>` /
:meth:`trajectory_rows <repro.runner.db.SweepDatabase.trajectory_rows>`
— the serving layer must add nothing to the SQL.  Exits non-zero on any
mismatch, which is how CI's serve-smoke job uses it::

    repro-noctest serve --store serve.db --port 8787 &
    python examples/serve_client.py --base-url http://127.0.0.1:8787 \
        --expect-store serve.db
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import urllib.error
import urllib.request
from typing import Mapping, Sequence


class ServeError(RuntimeError):
    """An HTTP error answered by the daemon, with its decoded JSON body."""

    def __init__(self, status: int, payload: Mapping):
        self.status = status
        self.payload = dict(payload)
        super().__init__(f"HTTP {status}: {self.payload.get('error', self.payload)}")


class ServeClient:
    """Minimal typed client for the ``repro serve`` HTTP API.

    One method per route (see ``docs/api.md``); every method returns the
    decoded JSON response and raises :class:`ServeError` for non-2xx
    answers.

    A configured bearer ``token`` is sent on every request, and a 503
    answer (full job queue, daemon shutting down) is retried up to
    ``retries`` times honouring the daemon's ``Retry-After`` header.

    Args:
        base_url: daemon address, e.g. ``http://127.0.0.1:8787``.
        token: bearer token for a daemon started with ``--auth-token``
            (``None`` = send no credentials).
        timeout: socket timeout per request, in seconds.
        retries: most 503 answers retried per request before giving up.
    """

    def __init__(
        self,
        base_url: str,
        *,
        token: str | None = None,
        timeout: float = 30.0,
        retries: int = 3,
    ):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self.retries = retries

    # -- one method per route ------------------------------------------
    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def plan(self, payload: Mapping) -> dict:
        """``POST /plan`` — synchronous planning of one system."""
        return self._request("POST", "/plan", body=payload)

    def plan_batch(self, points: Sequence[Mapping]) -> dict:
        """``POST /plan`` with ``{"points": [...]}`` — one plan per point."""
        return self._request("POST", "/plan", body={"points": [dict(p) for p in points]})

    def submit_sweep(
        self,
        spec: Mapping,
        *,
        backend: str | None = None,
        resume: bool | None = None,
    ) -> dict:
        """``POST /sweeps`` — enqueue one grid; returns the job snapshot."""
        body: dict = {"spec": dict(spec)}
        if backend is not None:
            body["backend"] = backend
        if resume is not None:
            body["resume"] = resume
        return self._request("POST", "/sweeps", body=body)

    def sweep_status(self, job_id: str) -> dict:
        """``GET /sweeps/<id>`` — job snapshot plus store-side progress."""
        return self._request("GET", f"/sweeps/{job_id}")

    def win_rates(self, *, system: str | None = None) -> dict:
        """``GET /history/win-rates``."""
        return self._request("GET", "/history/win-rates", query=system)

    def trajectory(self, *, system: str | None = None) -> dict:
        """``GET /history/trajectory``."""
        return self._request("GET", "/history/trajectory", query=system)

    # -- conveniences ---------------------------------------------------
    def wait_for_job(self, job_id: str, *, timeout: float = 300.0) -> dict:
        """Poll ``GET /sweeps/<id>`` until the job is finished or failed.

        Raises:
            TimeoutError: when the job is still running after ``timeout``
                seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            status = self.sweep_status(job_id)
            if status["job"]["status"] in ("finished", "failed"):
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['job']['status']!r} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(0.2)

    def _request(
        self, method: str, path: str, *, body: Mapping | None = None, query: str | None = None
    ) -> dict:
        """One JSON exchange with 503 retries; ``query`` filters by system.

        A 503 carries ``Retry-After`` when the daemon sheds load (full job
        queue); the client sleeps that long (1s when absent) and retries,
        up to ``self.retries`` times.  Other errors raise immediately.
        """
        url = self.base_url + path
        if query is not None:
            url += f"?system={query}"
        data = None
        headers = {"Accept": "application/json"}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        attempts = 0
        while True:
            request = urllib.request.Request(url, data=data, headers=headers, method=method)
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as error:
                try:
                    payload = json.loads(error.read().decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    payload = {"error": f"undecodable {error.code} response"}
                if error.code == 503 and attempts < self.retries:
                    attempts += 1
                    try:
                        delay = float(error.headers.get("Retry-After", "1"))
                    except (TypeError, ValueError):
                        delay = 1.0
                    print(
                        f"busy ({payload.get('error', 'HTTP 503')}); "
                        f"retry {attempts}/{self.retries} in {delay:.0f}s",
                        file=sys.stderr,
                    )
                    time.sleep(delay)
                    continue
                raise ServeError(error.code, payload) from error


def _check(condition: bool, message: str) -> None:
    """Assert one invariant of the exchange, with a clean failure mode."""
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def _cross_check_store(client: ServeClient, store_path: str, system: str) -> None:
    """Pin the HTTP history rows to the library's own SQL aggregations."""
    from repro.runner.db import SweepDatabase

    with SweepDatabase(store_path) as db:
        expected_win = db.win_rate_rows(system=system)
        expected_traj = db.trajectory_rows(system=system)
    got_win = client.win_rates(system=system)["rows"]
    got_traj = client.trajectory(system=system)["rows"]
    stripped_traj = [
        {key: value for key, value in row.items() if key != "mean_makespan"}
        for row in got_traj
    ]
    _check(
        got_win == expected_win,
        f"win-rate rows diverge from SweepDatabase.win_rate_rows:\n"
        f"  http: {got_win}\n  sql:  {expected_win}",
    )
    _check(
        stripped_traj == expected_traj,
        f"trajectory rows diverge from SweepDatabase.trajectory_rows:\n"
        f"  http: {stripped_traj}\n  sql:  {expected_traj}",
    )
    print(
        f"store cross-check: {len(expected_win)} win-rate row(s) and "
        f"{len(expected_traj)} trajectory row(s) match the library SQL"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Exercise every route of a running daemon; exit non-zero on failure."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--base-url",
        default="http://127.0.0.1:8787",
        help="address of the running daemon (default: http://127.0.0.1:8787)",
    )
    parser.add_argument(
        "--system",
        default="d695_leon",
        help="paper system to plan and sweep (default: d695_leon)",
    )
    parser.add_argument(
        "--expect-store",
        default=None,
        metavar="DB",
        help="the daemon's sqlite store; cross-check the HTTP history rows "
        "against the library's SQL aggregations over it",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait for the sweep job (default: 300)",
    )
    parser.add_argument(
        "--token",
        default=os.environ.get("REPRO_SERVE_TOKEN") or None,
        help="bearer token for a daemon started with --auth-token "
        "(default: $REPRO_SERVE_TOKEN)",
    )
    args = parser.parse_args(argv)
    client = ServeClient(args.base_url, token=args.token)

    health = client.health()
    _check(health["status"] == "ok", f"unhealthy daemon: {health}")
    print(f"daemon ok: version {health['version']}, store {health['store']}")

    unlimited = client.plan({"system": args.system, "reused_processors": 2})
    limited = client.plan(
        {"system": args.system, "reused_processors": 2, "power_limit_fraction": 0.5}
    )
    _check(
        limited["makespan"] >= unlimited["makespan"],
        "a power-limited plan beat the unlimited plan",
    )
    print(
        f"plan {args.system}: makespan {unlimited['makespan']} unlimited, "
        f"{limited['makespan']} at 50% power "
        f"({unlimited['elapsed_ms']:.1f} ms / {limited['elapsed_ms']:.1f} ms)"
    )

    batch = client.plan_batch(
        [
            {"system": args.system, "reused_processors": 2},
            {"system": args.system, "reused_processors": 2, "power_limit_fraction": 0.5},
        ]
    )
    _check(batch["count"] == 2, f"batch planned {batch['count']} of 2 points")
    _check(
        [r["makespan"] for r in batch["results"]]
        == [unlimited["makespan"], limited["makespan"]],
        "batch plan makespans diverge from the single-point answers",
    )
    print(
        f"batch plan: {batch['count']} points in {batch['elapsed_ms']:.1f} ms, "
        f"makespans match the single-point plans"
    )

    spec = {
        "name": f"serve-client-{args.system}",
        "systems": [args.system],
        "processor_counts": [0, 1, 2],
        "power_limits": [["no power limit", None], ["50% power limit", 0.5]],
        "schedulers": ["greedy", "fastest-completion"],
    }
    job = client.submit_sweep(spec, backend="serial")
    print(f"submitted {job['job_id']}: {job['point_count']} points -> {job['url']}")
    status = client.wait_for_job(job["job_id"], timeout=args.timeout)
    _check(
        status["job"]["status"] == "finished",
        f"sweep job failed: {status['job']['error']}",
    )
    _check(
        status["progress"]["stored_records"] >= status["job"]["point_count"],
        f"store holds fewer records than the grid: {status['progress']}",
    )
    print(
        f"job {job['job_id']} finished: {status['job']['executed_points']} executed, "
        f"{status['job']['skipped_points']} skipped, run {status['job']['run_id']}"
    )

    win = client.win_rates(system=args.system)
    trajectory = client.trajectory(system=args.system)
    _check(bool(win["rows"]), "win-rates came back empty after a two-scheduler sweep")
    _check(bool(trajectory["rows"]), "trajectory came back empty after a sweep")
    for row in win["rows"]:
        print(
            f"win-rates: {row['system']} {row['scheduler']}: "
            f"{row['wins']}/{row['contests']} wins ({row['ties']} ties)"
        )
    for row in trajectory["rows"]:
        print(
            f"trajectory: run {row['run_id']} ({row['sweep_name']}): "
            f"best {row['best_makespan']}, mean {row['mean_makespan']:.1f}"
        )

    if args.expect_store:
        _cross_check_store(client, args.expect_store, args.system)

    print("serve client: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
