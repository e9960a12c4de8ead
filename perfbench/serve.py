"""The ``serve-mixed`` workload: ``afterimage serve`` under an open loop.

Set-up fills a store from a shrunk builtin campaign and starts the daemon
in its own process.  The generator (this process, at most ``nproc``
requests in flight) then sends a fixed mix:

* ``/cell/<key>`` over every key, with the daemon's LRU smaller than the
  key count so both the hit and the miss path run;
* warm ``/aggregate/<campaign>`` and ``/report/<campaign>``;
* ``If-None-Match`` revalidations of cells and of the aggregate;
* a few writes: an existing cell ``put`` again with its identical
  payload, as a landing merge does, so shard files change while the
  content stays fixed.

Every response is checked: aggregates against the aggregates computed in
this process from the same store, cell ETags against their keys,
revalidations for 304, reports against the first report served.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from perfbench import loadgen, reference, workloads

ROOT = Path(__file__).resolve().parents[1]

#: Request mix: (kind, weight).  No recorded traffic exists to copy, so
#: the shares are an assumption: the five read kinds in equal shares and
#: writes a small share (one request in 21).  ``latency_ms`` weighs every
#: kind equally whatever its share (see :func:`mix_latency`).
MIX = (
    ("cell", 4),
    ("aggregate", 4),
    ("report", 4),
    ("revalidate-cell", 4),
    ("revalidate-aggregate", 4),
    ("write", 1),
)
#: Request kinds that name a cell key.
KEYED = ("cell", "revalidate-cell", "write")
#: LRU entries, below the served key count (18 cells + aggregate + report).
CACHE_SIZE = 12
#: The p99 limit a sweep step must hold (with no backlog left over).
#: Below the knee p99 already wanders between 20 and 90 ms with GC pauses
#: and host noise; 200 ms is only missed once the queue grows.
LATENCY_LIMIT_S = 0.200
#: The nominal rate, also an assumption: well below what the daemon
#: sustains on a 2-CPU host (a few hundred requests per second), so
#: queueing stays rare.
NOMINAL_RPS = 60.0
#: Shares of a run: nominal-rate chunks, saturation chunks, rate sweep.
#: Saturation gets the most: single chunks' rates vary by 15-20% within a
#: run on a shared 2-CPU host, and ``max_rps`` is their median.
NOMINAL_SHARE, SATURATION_SHARE = 0.28, 0.56
#: A nominal chunk (and ``between``) follows every third saturation chunk.
NOMINAL_CHUNKS, SATURATION_CHUNKS = 4, 12
#: Sweep steps, as shares of the measured saturation rate.
SWEEP_SHARES = (0.5, 0.7, 0.9)
SERVER_START_TIMEOUT_S = 60.0
#: A request counts as failed past this many seconds.
REQUEST_TIMEOUT_S = 5.0


def workers() -> int:
    """In-flight cap and generator threads: the CPUs this process may run
    on, as ``nproc`` counts them."""
    return max(1, len(os.sched_getaffinity(0)))


@dataclass(frozen=True)
class Request:
    kind: str
    key: str = ""


def build_requests(rng: np.random.Generator, keys: list[str], n: int) -> list[Request]:
    weights = np.array([w for _k, w in MIX], dtype=float)
    kinds = rng.choice(len(MIX), size=n, p=weights / weights.sum())
    picks = rng.integers(0, len(keys), size=n)
    return [
        Request(MIX[kind][0], keys[pick] if MIX[kind][0] in KEYED else "")
        for kind, pick in zip(kinds.tolist(), picks.tolist())
    ]


class Server:
    """One daemon process over ``store``; traced through the launcher when
    ``dump`` is given."""

    def __init__(self, store: Path, seed: int, dump: Path | None = None) -> None:
        serve = ["serve", str(store), "--port", "0", "--cache-size", str(CACHE_SIZE)]
        serve += workloads.serve_cli_overrides(seed)
        if dump is None:
            command = [sys.executable, "-m", "repro.cli", *serve]
        else:
            command = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py"),
                       str(dump), "--", *serve]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self.dump = dump
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        lines: list[str] = []
        reader = threading.Thread(
            target=lambda: lines.append(self.process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(SERVER_START_TIMEOUT_S)
        if not lines or " on http://" not in lines[0]:
            self.stop()
            raise RuntimeError(f"server did not start: {lines[:1]!r}")
        return int(lines[0].split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def stop(self) -> dict[str, Any] | None:
        """SIGINT the daemon, wait for it, and return the launcher dump."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self.dump is not None and self.dump.exists():
            return json.loads(self.dump.read_text())
        return None


class Checker:
    """Sends one request and raises on any wrong answer."""

    def __init__(self, port: int, seed: int, store_dir: Path) -> None:
        from repro.campaign import CampaignRunner, TrialStore
        from repro.campaign.spec import canonical_json
        from repro.fleet.client import FleetClient

        self.client = FleetClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        spec = workloads.serve_spec(seed)
        self.campaign = spec.name
        self.store = TrialStore(store_dir)
        result = CampaignRunner(self.store, jobs=1).run(spec)
        if not result.all_cached:
            raise RuntimeError("served store is not completely filled")
        self.expected_aggregates = json.loads(canonical_json(result.aggregates()))
        self.batches = {o.cell.key: o.batch for o in result.outcomes}
        self.keys = sorted(self.batches)
        self.write_lock = threading.Lock()
        aggregate = self.client.aggregate(self.campaign)
        self._check_aggregate(aggregate)
        self.aggregate_etag = aggregate.etag
        report = self.client.report(self.campaign)
        if report.status != 200 or not report.body:
            raise RuntimeError(f"/report answered {report.status}")
        self.report_body = report.body

    def _check_aggregate(self, response: Any) -> None:
        if response.status != 200:
            raise RuntimeError(f"/aggregate answered {response.status}")
        document = response.json()
        if not document["complete"] or document["aggregates"] != self.expected_aggregates:
            raise RuntimeError("/aggregate body differs from the in-process aggregate")

    def warm(self) -> None:
        for key in self.keys:
            self.execute(Request("cell", key))

    def execute(self, request: Request) -> None:
        kind, key, client = request.kind, request.key, self.client
        if kind == "cell":
            response = client.cell(key)
            if response.status != 200 or response.etag != key:
                raise RuntimeError(f"/cell answered {response.status} etag {response.etag}")
        elif kind == "aggregate":
            self._check_aggregate(client.aggregate(self.campaign))
        elif kind == "report":
            response = client.report(self.campaign)
            if response.status != 200 or response.body != self.report_body:
                raise RuntimeError(f"/report answered {response.status} or changed")
        elif kind == "revalidate-cell":
            status = client.cell(key, etag=key).status
            if status != 304:
                raise RuntimeError(f"cell revalidation answered {status}")
        elif kind == "revalidate-aggregate":
            status = client.aggregate(self.campaign, etag=self.aggregate_etag).status
            if status != 304:
                raise RuntimeError(f"aggregate revalidation answered {status}")
        elif kind == "write":
            with self.write_lock:
                self.store.put(key, self.batches[key])
        else:
            raise ValueError(f"unknown request kind {kind!r}")

    def metrics(self) -> dict[str, Any]:
        return self.client.metrics()


def kind_p50s(samples: list[loadgen.Sample]) -> dict[str, float]:
    """Median latency of each request kind's passing samples."""
    by_kind: dict[str, list[float]] = {}
    for sample in samples:
        if sample.ok:
            by_kind.setdefault(sample.kind, []).append(sample.latency)
    return {kind: statistics.median(values) for kind, values in by_kind.items()}


def mix_latency(p50s: dict[str, float]) -> float:
    """Geometric mean of the per-kind medians: each kind weighs the same,
    so a heavy endpoint that slows by some factor moves the result as much
    as a light one would, whatever their shares of the traffic.  A kind
    with no passing request is left out; its failures already make the
    run incorrect."""
    if not p50s:
        raise ValueError("no request passed")
    return float(np.exp(np.mean(np.log(list(p50s.values())))))


def histogram_p50(before: dict[str, Any], after: dict[str, Any]) -> float:
    """Median of a repro.obs histogram's growth between two snapshots,
    interpolated linearly inside its bucket."""
    buckets = []
    for name, count in after.items():
        if name == "total":
            continue
        grown = count - before.get(name, 0)
        edge = float(name.split(":")[1])
        buckets.append((name.startswith("gt:"), edge, grown))
    buckets.sort(key=lambda b: (b[0], b[1]))
    total = sum(b[2] for b in buckets)
    if total == 0:
        return 0.0
    half, seen, lower = total / 2, 0, 0.0
    for is_overflow, edge, grown in buckets:
        if is_overflow:
            return edge
        if grown and seen + grown >= half:
            return lower + (half - seen) / grown * (edge - lower)
        seen += grown
        lower = edge
    return lower


def scrape_delta(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    hits = after["cache.hits"] - before["cache.hits"]
    misses = after["cache.misses"] - before["cache.misses"]
    return {
        "server_us": histogram_p50(before.get("server.latency_us", {}), after["server.latency_us"]),
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def phase(
    checker: Checker, rng: np.random.Generator, rate: float, seconds: float
) -> tuple[list[loadgen.Sample], dict[str, float]]:
    """One open-loop phase at ``rate``, bracketed by ``/metrics`` scrapes."""
    requests = build_requests(rng, checker.keys, max(1, int(rate * seconds)))
    before = checker.metrics()
    samples = loadgen.run_open_loop(
        requests, rate, checker.execute, workers(), kind_of=lambda r: r.kind
    )
    return samples, scrape_delta(before, checker.metrics())


def saturation_chunk(
    checker: Checker, rng: np.random.Generator, n: int
) -> tuple[float, list[loadgen.Sample]]:
    """``n`` requests all due at once, so ``nproc`` are always in flight;
    returns (completions per second, samples)."""
    requests = build_requests(rng, checker.keys, n)
    samples = loadgen.run_open_loop(
        requests, 1e9, checker.execute, workers(), kind_of=lambda r: r.kind
    )
    return loadgen.completion_rate(samples), samples


def measure(
    checker: Checker, rng: np.random.Generator, seconds: float, between: Callable[[], None]
) -> tuple[list[list[loadgen.Sample]], list[float], list[float], list[loadgen.StepResult], list[loadgen.Sample]]:
    """The untraced run; returns (nominal chunks, scaled saturation rates,
    the reference runs, sweep steps, every sample).

    ``max_rps`` is the completion rate with ``nproc`` requests always in
    flight, the rate past which an open loop's backlog must grow: the
    median over the interleaved saturation chunks, each scaled by the
    reference run right after it (perfbench/reference.py).  The sweep
    then sends open-loop steps at fixed shares of the unscaled rate and
    reports p99 at each.  ``between`` runs after every third saturation
    chunk, with no request in flight.
    """
    nominal_s = seconds * NOMINAL_SHARE / NOMINAL_CHUNKS
    saturation_s = seconds * SATURATION_SHARE / SATURATION_CHUNKS
    step_s = seconds * (1 - NOMINAL_SHARE - SATURATION_SHARE) / len(SWEEP_SHARES)
    chunks: list[list[loadgen.Sample]] = []
    host_rates: list[float] = []
    references: list[float] = []
    rates: list[float] = []
    every: list[loadgen.Sample] = []
    for index in range(SATURATION_CHUNKS):
        guess = statistics.median(host_rates) if host_rates else 10 * NOMINAL_RPS
        rate, samples = saturation_chunk(checker, rng, max(1, int(guess * saturation_s)))
        host_rates.append(rate)
        references.append(reference.seconds())
        rates.append(reference.scaled_rate(rate, references[-1]))
        every += samples
        if (index + 1) % (SATURATION_CHUNKS // NOMINAL_CHUNKS) == 0:
            between()
            chunk, _delta = phase(checker, rng, NOMINAL_RPS, nominal_s)
            chunks.append(chunk)
            every += chunk
    host_max_rps = statistics.median(host_rates)
    steps = []
    for share in SWEEP_SHARES:
        samples, _delta = phase(checker, rng, share * host_max_rps, step_s)
        steps.append(loadgen.step_result(share * host_max_rps, samples))
        every += samples
    return chunks, rates, references, steps, every
