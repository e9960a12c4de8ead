"""The machine clock: one source of truth for simulated time.

All cycle bookkeeping lives in one :class:`KernelClock` per ``Machine``:
loads, flushes and switches charge cycles here, the timer-interrupt
deadline lives here, ``cpu/scheduler.py`` takes its default quantum from
the same tick constant, and ``Machine.seconds()``/``machine.span(...)``
read back through the same counter.
"""

from __future__ import annotations

from repro.cpu.context import ThreadContext

#: The canonical ~100 µs OS tick (at the modeled ~3 GHz): both the
#: timer-interrupt period and the scheduler's default quantum.  The paper's
#: §8.3 cost model assumes this syscall/scheduling period for a modern OS.
DEFAULT_TICK_CYCLES = 300_000


class KernelClock:
    """Cycle counter + timer-tick deadline for one simulated machine."""

    __slots__ = ("cycles", "tick_period", "next_tick")

    def __init__(self, tick_period: int = DEFAULT_TICK_CYCLES) -> None:
        self.cycles = 0
        self.tick_period = tick_period
        self.next_tick = tick_period

    def now(self) -> int:
        """Current cycle count (signature-compatible with ``zero_clock``)."""
        return self.cycles

    def advance(self, cycles: int) -> None:
        """Burn cycles without attributing them to a context."""
        self.cycles += cycles

    def charge(self, ctx: ThreadContext, cycles: int) -> None:
        """Burn cycles and attribute them to ``ctx``'s CPU time."""
        self.cycles += cycles
        ctx.cpu_cycles += cycles

    def tick_due(self) -> bool:
        """Has the timer-interrupt deadline elapsed?"""
        return self.cycles >= self.next_tick

    def rearm_tick(self) -> None:
        """Schedule the next timer interrupt one period from *now*.

        A backlog of elapsed ticks collapses into a single rearm — the
        modeled IRQ disturbance saturates (see ``Machine._maybe_tick``).
        """
        self.next_tick = self.cycles + self.tick_period

    def seconds(self, frequency_hz: float) -> float:
        """Wall-clock equivalent of the elapsed cycle count."""
        return self.cycles / frequency_hz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelClock(cycles={self.cycles}, next_tick={self.next_tick})"
