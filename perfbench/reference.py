"""The reference kernel that host times are scaled by.

The host the benchmark runs on is shared: its speed moves by up to 1.5x
within a minute and drifts by as much over half an hour, which spreads
any raw host time past the bounds in ``BENCHMARK.json``.  So every timed
operation is followed by one run of this kernel, and the operation's
time is scaled by how long the kernel took just then::

    scaled = host_seconds * REFERENCE_S / reference_seconds

The result is the time the operation would take on a host running the
kernel in ``REFERENCE_S``.  The kernel is frozen here, apart from the
program, so a change to ``src/`` moves the operation and not the
reference.  It interprets the same kind of Python as the simulator (a
set-associative LRU cache over a pseudo-random address stream: dict
lookups, small ``__slots__`` objects, attribute writes, a victim scan),
because a pure arithmetic loop was found not to follow the simulator's
speed; see perfbench/README.md, *Why scaled times*.
"""

from __future__ import annotations

from time import perf_counter  # repro: noqa[RL003] — the benchmark measures host time

#: What one kernel run takes on the host the baseline was measured on
#: (a 2-vCPU Xeon VM, Python 3.11); it fixes the unit of scaled times.
REFERENCE_S = 0.045
#: Accesses per kernel run: about REFERENCE_S on that host, a few
#: percent of a simulated operation.
ACCESSES = 15_000
SETS = 4096
WAYS = 12


class _Line:
    __slots__ = ("tag", "age", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.age = 0
        self.dirty = False


class Reference:
    """The kernel's cache state, kept across runs so each run finds it
    full, as the simulator's long-lived hierarchy is."""

    def __init__(self) -> None:
        self.sets: list[dict[int, _Line]] = [{} for _ in range(SETS)]
        self.state = 12345
        self.clock = 0
        # Fill the sets before the first timed run.
        self.run(20 * ACCESSES)

    def run(self, accesses: int = ACCESSES) -> None:
        sets, x, clock = self.sets, self.state, self.clock
        for i in range(accesses):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            addr = x >> 4
            ways = sets[addr & (SETS - 1)]
            tag = (addr >> 12) & 0xFF
            clock += 1
            line = ways.get(tag)
            if line is None:
                if len(ways) >= WAYS:
                    victim = min(ways.values(), key=lambda entry: entry.age)
                    del ways[victim.tag]
                line = _Line(tag)
                ways[tag] = line
            line.age = clock
            line.dirty ^= (i & 1) == 0
        self.state, self.clock = x, clock

    def seconds(self) -> float:
        """Host seconds one kernel run takes now."""
        start = perf_counter()
        self.run()
        return perf_counter() - start


_reference: Reference | None = None


def seconds() -> float:
    """Host seconds one kernel run takes now (the first call also fills
    the kernel's cache state, untimed)."""
    global _reference
    if _reference is None:
        _reference = Reference()
    return _reference.seconds()


def scaled(host_seconds: float, reference_seconds: float) -> float:
    """``host_seconds`` at the reference host's speed."""
    return host_seconds * REFERENCE_S / reference_seconds


def scaled_rate(per_second: float, reference_seconds: float) -> float:
    """A rate of ``per_second`` at the reference host's speed."""
    return per_second * reference_seconds / REFERENCE_S
