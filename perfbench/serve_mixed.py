"""``serve-mixed``: a ``repro serve`` daemon under a seeded request mix.

One keep-alive client drives a daemon started with a fresh store and
default flags, in a closed loop (the next request goes out when the last
answer is in).  The seeded stream is dealt from reshuffled decks, so every
stretch of it holds the same mix of work and seeds differ only in order:

* 80 in 100 requests are single ``POST /plan`` — 2 in 5 repeat a recent
  point (plan-cache hits), 3 in 5 are points never asked before (an even
  split would put the median exactly between the two modes, where it
  jumps from run to run).  New points run through every (system, count,
  scheduler) of the paper systems before any comes round again, each with
  a power ceiling from one of ten bands of 0.45–1.0;
* 8 in 100 are batch ``POST /plan`` of 16 points drawn the same way;
* 11 in 100 are ``GET /history/win-rates`` or ``/history/trajectory``,
  half of them filtered to one system;
* 1 in 100 is a ``POST /sweeps`` of a four-point grid, polled until it
  finishes.

Each system is built, and each request path taken once, before timing.

Sweep jobs write the store and move its data version between history
reads, so the read caches are invalidated as in real use.  Every answer
for a point must match every earlier answer for it; afterwards a fixed
seeded batch and a sample of the answered points are replanned in-process
with ``TestPlanner`` and must agree.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

from common import (
    BENCH_DIR,
    Outcome,
    SETUP_REPEATS,
    Pace,
    child_env,
    cold_import_seconds,
    layer_metrics,
    make_workdir,
    p99,
    paper_gap,
    peak_rss_mb,
    remove_workdir,
    warm_bytecode,
    write_trace,
)
from spans import Tracer

BATCH_POINTS = 16
TRACED_REQUESTS = 600
VERIFY_RANDOM_POINTS = 200
VERIFY_SAMPLE = 100
SCHEDULERS = ("greedy", "fastest-completion")
#: One deck of request kinds: 80 single plans, 8 batches, 11 history reads
#: and one sweep job in every 100 requests.
KINDS = ("plan",) * 80 + ("batch",) * 8 + ("history",) * 11 + ("sweep",)
#: Two repeats of a recent point in every five plan points (40 %).
REPEATS = (True, True, False, False, False)
FRACTION_BINS = 10
#: Requests between two host-pace ticks (one tick is about 0.5 ms).
PACE_EVERY = 10
URL_LINE = re.compile(r" on http://([0-9.]+):([0-9]+) ")


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port with a fresh store."""

    def __init__(self, workdir: Path, env: dict, name: str, trace_out: Path | None = None):
        if trace_out is None:
            launch = [sys.executable, "-m", "repro.cli"]
        else:
            launch = [sys.executable, str(BENCH_DIR / "traced_main.py"), str(trace_out)]
        self.log_path = workdir / f"{name}.log"
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [*launch, "serve", "--store", f"{name}.db", "--port", "0"],
                cwd=workdir,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        try:
            self.host, self.port = self._wait_for_address()
            self._wait_until_healthy()
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - started

    def _wait_for_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = URL_LINE.search(self.log_path.read_text(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        raise RuntimeError(f"daemon did not start: {self.log_path.read_text()[-500:]}")

    def _wait_until_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.002)
            finally:
                connection.close()
        raise RuntimeError("daemon never answered /healthz")

    def stop(self) -> None:
        """SIGINT (the daemon's clean shutdown), then wait for it to exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


class Client:
    """One keep-alive HTTP connection; failed exchanges count as failures."""

    def __init__(self, daemon: Daemon, outcome: Outcome):
        self.daemon = daemon
        self.outcome = outcome
        self.connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=60)

    def request(self, method: str, path: str, body: dict | None = None):
        """Send one request; returns (payload or None, seconds)."""
        data = None if body is None else json.dumps(body).encode("utf-8")
        started = time.perf_counter()
        try:
            self.connection.request(
                method, path, body=data, headers={"Content-Type": "application/json"}
            )
            response = self.connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.connection.close()
            self.connection = http.client.HTTPConnection(
                self.daemon.host, self.daemon.port, timeout=60
            )
            self.outcome.check(False, f"{method} {path}: {error!r}")
            return None, time.perf_counter() - started
        seconds = time.perf_counter() - started
        ok = response.status < 400
        self.outcome.check(ok, f"{method} {path} -> {response.status}: {raw[:200]!r}")
        return (json.loads(raw) if ok else None), seconds

    def close(self) -> None:
        self.connection.close()


def point_key(point: dict) -> tuple:
    return (
        point["system"],
        point["reused_processors"],
        point["power_limit_fraction"],
        point["scheduler"],
    )


class Deck:
    """Deals ``items`` in a fresh shuffled order each time they run out.

    Every stretch of the stream then holds each item in its fixed share,
    so runs with different seeds ask for the same mix of work and differ
    only in its order.
    """

    def __init__(self, rng: random.Random, items):
        self.rng = rng
        self.items = list(items)
        self.hand: list = []

    def deal(self):
        if not self.hand:
            self.hand = list(self.items)
            self.rng.shuffle(self.hand)
        return self.hand.pop()


class Points:
    """Plan points for one kind of request (single or batch)."""

    def __init__(self, rng: random.Random, processors: dict[str, int], asked: set[tuple]):
        self.rng = rng
        self.asked = asked
        self.repeats = Deck(rng, REPEATS)
        self.triples = Deck(
            rng,
            [
                (system, count, scheduler)
                for system, top in processors.items()
                for count in range(top + 1)
                for scheduler in SCHEDULERS
            ],
        )
        self.bins = Deck(rng, range(FRACTION_BINS))
        self.recent: deque[dict] = deque(maxlen=32)

    def fresh(self) -> dict:
        """A point never asked before: every (system, count, scheduler) from
        one deck, its power ceiling from one of ten bands of 0.45–1.0."""
        system, count, scheduler = self.triples.deal()
        band = self.bins.deal()
        while True:
            fraction = 0.45 + 0.55 * (band + self.rng.random()) / FRACTION_BINS
            point = {
                "system": system,
                "reused_processors": count,
                "power_limit_fraction": round(fraction, 6),
                "scheduler": scheduler,
            }
            if point_key(point) not in self.asked:
                self.asked.add(point_key(point))
                self.recent.append(point)
                return point

    def next(self) -> dict:
        # Repeats come from the 32 latest fresh points, well inside the
        # daemon's default 2 s plan-cache TTL.
        if self.recent and self.repeats.deal():
            return self.rng.choice(self.recent)
        return self.fresh()


class Stream:
    """The seeded request stream; the same seed always yields the same requests."""

    def __init__(self, seed: int):
        from repro.system.presets import PAPER_SYSTEMS

        self.rng = rng = random.Random(seed)
        self.seed = seed
        self.processors = {name: spec.processor_count for name, spec in sorted(PAPER_SYSTEMS.items())}
        asked: set[tuple] = set()
        self.single = Points(rng, self.processors, asked)
        self.batched = Points(rng, self.processors, asked)
        self.kinds = Deck(rng, KINDS)
        systems = sorted(self.processors)
        self.routes = Deck(
            rng,
            [
                route + query
                for route in ("/history/win-rates", "/history/trajectory")
                for query in [""] * len(systems) + [f"?system={name}" for name in systems]
            ],
        )
        self.sweep_systems = Deck(rng, systems)
        self.sweeps = 0

    def next(self) -> tuple[str, object]:
        kind = self.kinds.deal()
        if kind == "plan":
            return "plan", self.single.next()
        if kind == "batch":
            return "batch", {"points": [self.batched.next() for _ in range(BATCH_POINTS)]}
        if kind == "history":
            return "history", self.routes.deal()
        self.sweeps += 1
        system = self.sweep_systems.deal()
        fraction = round(self.rng.uniform(0.45, 1.0), 3)
        return "sweep", {
            "name": f"serve-mixed-{self.seed}-{self.sweeps}",
            "systems": [system],
            "processor_counts": sorted(self.rng.sample(range(self.processors[system] + 1), 2)),
            "power_limits": [["no power limit", None], [f"{fraction:g} limit", fraction]],
            "schedulers": ["greedy"],
        }


class Samples:
    """Latencies and answers collected from one stretch of the stream.

    ``raw`` holds wall seconds per request kind; ``scaled`` the same times
    multiplied by the host-pace factor current when each was taken.
    """

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = {"plan": [], "batch": [], "history": []}
        self.scaled: dict[str, list[float]] = {"plan": [], "batch": [], "history": []}
        self.server: list[float] = []
        self.sweep: list[float] = []
        self.answers: dict[tuple, tuple[int, int]] = {}
        self.requests = 0

    def add(self, kind: str, seconds: float, pace: Pace) -> None:
        self.raw[kind].append(seconds)
        self.scaled[kind].append(seconds * pace.factor)


def remember(samples: Samples, outcome: Outcome, point: dict, answer: dict) -> None:
    """Every answer for a point must equal the first answer for it."""
    key = point_key(point)
    value = (answer["makespan"], answer["test_count"])
    first = samples.answers.setdefault(key, value)
    outcome.check(first == value, f"{key} answered {value} after {first}")


def drive(
    client: Client,
    stream: Stream,
    outcome: Outcome,
    samples: Samples,
    pace: Pace,
    *,
    seconds=None,
    requests=None,
) -> None:
    """Send requests from ``stream`` into ``samples`` until a budget is spent."""
    started = time.perf_counter()
    sent = 0
    while True:
        if sent % PACE_EVERY == 0:
            pace.tick()
        kind, body = stream.next()
        samples.requests += 1
        sent += 1
        if kind == "plan":
            answer, elapsed = client.request("POST", "/plan", body)
            if answer is not None:
                samples.add("plan", elapsed, pace)
                samples.server.append(answer["elapsed_ms"] / 1000.0)
                remember(samples, outcome, body, answer)
        elif kind == "batch":
            answer, elapsed = client.request("POST", "/plan", body)
            if answer is not None:
                samples.add("batch", elapsed, pace)
                outcome.check(answer["count"] == BATCH_POINTS, "batch answer lost points")
                for point, result in zip(body["points"], answer["results"]):
                    remember(samples, outcome, point, result)
        elif kind == "history":
            answer, elapsed = client.request("GET", body)
            if answer is not None:
                samples.add("history", elapsed, pace)
        else:
            submitted = time.perf_counter()
            job, _ = client.request("POST", "/sweeps", {"spec": body})
            while job is not None:
                status, _ = client.request("GET", f"/sweeps/{job['job_id']}")
                if status is None or status["job"]["status"] in ("finished", "failed"):
                    outcome.check(
                        status is not None and status["job"]["status"] == "finished",
                        f"sweep job {job['job_id']} did not finish: {status}",
                    )
                    break
                time.sleep(0.005)
            samples.sweep.append(time.perf_counter() - submitted)
        if requests is not None and sent >= requests:
            return
        if seconds is not None and time.perf_counter() - started >= seconds:
            return


def verification_points(seed: int) -> list[dict]:
    """The paper's Figure 1 points (greedy) plus a seeded random set."""
    from repro.experiments.figure1 import PAPER_POWER_SERIES, PAPER_PROCESSOR_COUNTS
    from repro.system.presets import PAPER_SYSTEMS

    points = [
        {
            "system": name,
            "reused_processors": count,
            "power_limit_fraction": fraction,
            "scheduler": "greedy",
        }
        for name, spec in sorted(PAPER_SYSTEMS.items())
        for fraction in PAPER_POWER_SERIES.values()
        for count in PAPER_PROCESSOR_COUNTS[spec.benchmark]
    ]
    extra = Stream(seed + 1)
    points.extend(extra.single.fresh() for _ in range(VERIFY_RANDOM_POINTS))
    return points


def warm_up(client: Client, stream: Stream) -> None:
    """Build every system and open the store before anything is timed.

    The no-limit points used here never occur in the stream, whose fresh
    points all carry a power ceiling.
    """
    for system in stream.processors:
        for scheduler in SCHEDULERS:
            point = {"system": system, "reused_processors": 0, "power_limit_fraction": None,
                     "scheduler": scheduler}
            client.request("POST", "/plan", point)
    client.request("POST", "/plan", {"points": [point] * BATCH_POINTS})
    client.request("GET", "/history/win-rates")


class LocalPlanner:
    """In-process ``TestPlanner`` results, the reference the daemon must match."""

    def __init__(self) -> None:
        from repro.runner.cache import SystemCache

        self.systems = SystemCache()

    def plan(self, key: tuple) -> tuple[int, int]:
        from repro.runner.spec import make_scheduler
        from repro.schedule.planner import TestPlanner

        system, count, fraction, scheduler = key
        planner = TestPlanner(self.systems.get(system), scheduler=make_scheduler(scheduler))
        result = planner.plan(reused_processors=count, power_limit_fraction=fraction)
        return result.makespan, result.test_count


def verify(client: Client, samples: Samples, seed: int, outcome: Outcome, local: LocalPlanner):
    """Check the daemon against in-process plans; returns (cycles, paper gap)."""
    points = verification_points(seed)
    answer, _ = client.request("POST", "/plan", {"points": points})
    if answer is None:
        return 0.0, 0.0
    answered = {}
    for point, result in zip(points, answer["results"]):
        key = point_key(point)
        answered[key] = (result["makespan"], result["test_count"])
        outcome.check(answered[key] == local.plan(key), f"{key} differs from TestPlanner")
    sample = sorted(samples.answers, key=repr)
    random.Random(seed).shuffle(sample)
    for key in sample[:VERIFY_SAMPLE]:
        outcome.check(samples.answers[key] == local.plan(key), f"{key} differs from TestPlanner")
    gap = paper_gap(lambda system, count, fraction: answered[(system, count, fraction, "greedy")][0])
    return float(sum(makespan for makespan, _ in answered.values())), gap


def timing_slots(times: dict[str, list[float]]) -> dict[str, float]:
    """The end-to-end request metrics from request times."""
    return {
        "request_p50_ms": 1000.0 * statistics.median(times["plan"]),
        "request_tail_ms": 1000.0 * p99(times["plan"]),
        "secondary_p50_ms": 1000.0 * statistics.median(times["history"]),
        "points_per_s": BATCH_POINTS / statistics.median(times["batch"]),
    }


def health_ratio(payload: dict, cache: str) -> float:
    stats = payload[cache]
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


def run(*, seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    workdir = make_workdir()
    daemons: list[Daemon] = []
    try:
        env = child_env(workdir)
        warm_bytecode(env)
        local = LocalPlanner()

        startups = []
        for index in range(1 if trace else SETUP_REPEATS):
            daemon = Daemon(workdir, env, f"serve-{index}")
            daemons.append(daemon)
            startups.append(daemon.startup_s)
            if index < SETUP_REPEATS - 1 and not trace:
                daemon.stop()
        daemon = daemons[-1]
        client = Client(daemon, outcome)
        stream = Stream(seed)
        warm_up(client, stream)
        pace = Pace()
        # The stream's head is kept apart: the traced pass replays exactly
        # these requests, so the tracing overhead compares like with like.
        samples = Samples()
        started = time.perf_counter()
        drive(client, stream, outcome, samples, pace, requests=TRACED_REQUESTS)
        head_plan = list(samples.scaled["plan"])
        budget = (seconds / 2 if trace else seconds) - (time.perf_counter() - started)
        if budget > 0:
            drive(client, stream, outcome, samples, pace, seconds=budget)
        cycles, gap = verify(client, samples, seed, outcome, local)
        client.close()
        daemon.stop()

        if not trace:
            outcome.raw = timing_slots(samples.raw)
            outcome.metrics = {
                "setup_s": statistics.median(startups),
                **timing_slots(samples.scaled),
                "peak_rss_mb": peak_rss_mb(),
                "test_time_cycles": cycles,
                "paper_gap_pp": gap,
            }
            outcome.samples = {
                "setup_s": len(startups),
                "request_p50_ms": len(samples.scaled["plan"]),
                "request_tail_ms": len(samples.scaled["plan"]),
                "secondary_p50_ms": len(samples.scaled["history"]),
                "points_per_s": len(samples.scaled["batch"]),
            }
            print(
                f"serve-mixed: {samples.requests} requests, {len(samples.sweep)} sweep jobs "
                f"(median {1000.0 * statistics.median(samples.sweep or [0.0]):.1f} ms), "
                f"host pace {pace.run_speed:.4f} of reference"
            )
            return outcome

        # Traced pass: a traced daemon, the first TRACED_REQUESTS of the
        # same stream, then the same verification batch.
        trace_out = workdir / "serve-traced-spans.json"
        traced_daemon = Daemon(workdir, env, "serve-traced", trace_out)
        daemons.append(traced_daemon)
        client = Client(traced_daemon, outcome)
        traced = Samples()
        stream = Stream(seed)
        warm_up(client, stream)
        drive(client, stream, outcome, traced, pace, requests=TRACED_REQUESTS)
        health, _ = client.request("GET", "/healthz")
        traced_cycles, _ = verify(client, traced, seed, outcome, local)
        client.close()
        traced_daemon.stop()
        tracer = Tracer()
        tracer.load(trace_out)
        untraced_p50 = statistics.median(head_plan)
        http = [total - server for total, server in zip(traced.raw["plan"], traced.server)]
        outcome.metrics = layer_metrics(
            tracer,
            {
                "cli.import_s": cold_import_seconds(env, workdir),
                "serve.server_ms": 1000.0 * statistics.median(traced.server),
                "serve.http_ms": 1000.0 * statistics.median(http),
                "serve.plan_cache_hit_ratio": health_ratio(health, "plan_cache"),
                "serve.read_cache_hit_ratio": health_ratio(health, "cache"),
                "trace.overhead_pct": (
                    100.0 * (statistics.median(traced.scaled["plan"]) - untraced_p50) / untraced_p50
                ),
                "trace.test_time_cycles": traced_cycles,
            },
        )
        write_trace(
            tracer,
            f"serve-mixed-{seed}",
            {"untraced_requests": samples.requests, "traced_requests": traced.requests,
             "health": health},
        )
        return outcome
    finally:
        for daemon in daemons:
            daemon.stop()
        remove_workdir(workdir)
