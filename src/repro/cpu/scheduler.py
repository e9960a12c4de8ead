"""A minimal round-robin scheduler with ``sched_yield`` semantics.

The paper's attacks synchronize with the victim by calling ``sched_yield()``
(§6.2): the attacker trains, yields the core to the victim, and regains it
after the victim's quantum (or its own yield).  This scheduler reproduces
that hand-off and charges the context-switch cost — including the switch's
cache/prefetcher noise — through :meth:`Machine.context_switch`.
"""

from __future__ import annotations

from repro.cpu.clock import DEFAULT_TICK_CYCLES
from repro.cpu.context import ThreadContext
from repro.cpu.machine import Machine

#: Default scheduling period: the machine clock's ~100 µs tick.  One
#: constant serves both the timer-interrupt period and the scheduler
#: quantum — they model the same OS tick (paper §8.3 cost model).
DEFAULT_QUANTUM_CYCLES = DEFAULT_TICK_CYCLES


class Scheduler:
    """Round-robin over a fixed set of contexts on one logical core."""

    def __init__(
        self,
        machine: Machine,
        contexts: list[ThreadContext],
        quantum_cycles: int = DEFAULT_QUANTUM_CYCLES,
    ) -> None:
        if not contexts:
            raise ValueError("scheduler needs at least one context")
        if quantum_cycles <= 0:
            raise ValueError(f"quantum must be positive, got {quantum_cycles}")
        self.machine = machine
        self.contexts = list(contexts)
        self.quantum_cycles = quantum_cycles
        self._index = 0
        machine.context_switch(self.contexts[0])

    @property
    def running(self) -> ThreadContext:
        return self.contexts[self._index]

    def sched_yield(self) -> ThreadContext:
        """Give up the core; the next runnable context is scheduled.

        Returns the newly running context.  Models the
        ``sched_yield()``-based synchronization of the paper's §6.2.
        """
        self._index = (self._index + 1) % len(self.contexts)
        self.machine.context_switch(self.running)
        return self.running

    def run_quantum(self) -> None:
        """Let the running context burn one full quantum of compute."""
        self.machine.advance(self.quantum_cycles)

    def switch_to(self, ctx: ThreadContext) -> None:
        """Directly schedule ``ctx`` (it must be managed by this scheduler)."""
        if ctx not in self.contexts:
            raise ValueError(f"context {ctx.name!r} is not managed by this scheduler")
        self._index = self.contexts.index(ctx)
        self.machine.context_switch(ctx)
