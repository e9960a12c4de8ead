"""Open-loop load generation for the serve workload.

Requests are due on a fixed schedule (request ``i`` at ``start + i /
rate``) whatever the server does, as independent users would send them.
At most ``workers`` requests are in flight: the calling thread plus
``workers - 1`` helper threads each take the next request, wait for its
due time, and send it.  Latency is timed from the *due* time, so a stall
also charges the wait it imposed on every later request; how late each
request was actually sent is kept as generator lag.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass
from time import perf_counter  # repro: noqa[RL003] — load generation runs on host time
from typing import Any, Callable, Sequence

@dataclass
class Sample:
    """One request: when it was due, sent and done, and whether it passed
    its checks."""

    kind: str
    due: float
    sent: float
    done: float
    ok: bool
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def run_open_loop(
    requests: Sequence[Any],
    rate: float,
    execute: Callable[[Any], None],
    workers: int,
    kind_of: Callable[[Any], str] = str,
) -> list[Sample]:
    """Send ``requests`` at ``rate`` per second; ``execute`` raises on a
    failed request.  Returns one sample per request, in schedule order."""
    if rate <= 0 or workers <= 0:
        raise ValueError("rate and workers must be positive")
    samples: list[Sample | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = perf_counter() + 0.01

    def work() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(requests):
                return
            due = start + index / rate
            wait = due - perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = perf_counter()
            ok, error = True, None
            try:
                execute(requests[index])
            except Exception as exc:  # every failure is counted, not fatal
                ok, error = False, f"{type(exc).__name__}: {exc}"
            samples[index] = Sample(kind_of(requests[index]), due, sent, perf_counter(), ok, error)

    threads = [threading.Thread(target=work, daemon=True) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    return [sample for sample in samples if sample is not None]


@dataclass
class StepResult:
    rate: float
    p99_s: float
    end_lag_s: float
    failed: int
    sent: int

    def holds(self, limit_s: float) -> bool:
        """p99 within the limit, no failures, and no backlog left over."""
        return self.failed == 0 and self.p99_s <= limit_s and self.end_lag_s <= limit_s


def step_result(rate: float, samples: list[Sample]) -> StepResult:
    """Summarise one sweep step; a failed request misses the limit."""
    from repro.utils.stats import percentile

    latencies = [s.latency for s in samples if s.ok]
    tail = samples[-max(1, len(samples) // 10):]
    return StepResult(
        rate=rate,
        p99_s=percentile(latencies, 99) if latencies else math.inf,
        end_lag_s=statistics.median(s.lag for s in tail),
        failed=sum(1 for s in samples if not s.ok),
        sent=len(samples),
    )


def completion_rate(samples: list[Sample]) -> float:
    """Requests completed per second, from the first send to the last
    completion."""
    busy = max(s.done for s in samples) - min(s.sent for s in samples)
    return len(samples) / busy if busy > 0 else 0.0
