"""The simulated machine: one logical core and its load pipeline.

``Machine`` owns the TLB, the cache hierarchy, the IP-stride and noise
prefetchers, the timing model and the OS-noise state as plain
collaborators, and calls them directly.  A load runs, in order:

``load(ctx, ip, vaddr)`` → timer-tick check → TLB translate →
cache-hierarchy access → prefetcher observation → prefetch fills →
noisy measured latency (charged, histogrammed, traced, audited).

Two modelling rules from the paper are enforced here rather than in the
prefetcher itself:

* a TLB-missing access does **not** update prefetcher state (§4.3);
* a context switch flushes non-global TLB entries and injects the switch's
  memory traffic into the caches *and* the prefetcher table (the noise the
  paper blames for cross-process Prime+Probe degradation, §5.1, and for the
  24-entry covert channel's >25 % error rate, §7.2) — but never flushes the
  IP-stride table, unless the §8.3 mitigation is enabled.

Operation order and RNG draw order are pinned byte-for-byte by
``tests/test_kernel_equivalence.py`` against committed golden traces.
"""

from __future__ import annotations

from repro.cpu.clock import KernelClock
from repro.cpu.code import CodeRegion
from repro.cpu.context import ThreadContext
from repro.cpu.timing import TimingModel
from repro.memsys.addr import line_index
from repro.memsys.hierarchy import CacheHierarchy, MemoryLevel
from repro.mmu.address_space import AddressSpace
from repro.mmu.aslr import Aslr
from repro.mmu.buffer import Buffer
from repro.mmu.page_table import PhysicalMemory
from repro.mmu.tlb import TLB
from repro.obs.events import Clflush, ContextSwitch, LoadTraced, PrefetchIssued
from repro.obs.metrics import Histogram, MetricsRegistry, latency_bounds, snapshot
from repro.obs.profiler import Span, SpanProfile
from repro.obs.tracer import Tracer, resolve_tracer
from repro.params import PAGE_SIZE, DEFAULT_MACHINE, MachineParams
from repro.prefetch.adjacent import AdjacentPrefetcher
from repro.prefetch.base import LoadEvent, Prefetcher, PrefetchRequest
from repro.prefetch.dcu import DCUPrefetcher
from repro.prefetch.ip_stride import IPStridePrefetcher
from repro.prefetch.streamer import StreamerPrefetcher
from repro.sanitize.sanitizer import Sanitizer, sanitize_enabled
from repro.utils.rng import derive_rng, make_rng

__all__ = [
    "CLEAR_PREFETCHER_CYCLES_PER_ENTRY",
    "CLFLUSH_CYCLES",
    "CONTEXT_SWITCH_CYCLES",
    "Machine",
    "line_of",
]

#: Cycle cost of a clflush instruction (order of an LLC round trip).
CLFLUSH_CYCLES = 40

#: Fixed architectural cost of a context switch, before memory noise.
CONTEXT_SWITCH_CYCLES = 1500

#: Cost of the proposed clear-ip-prefetcher instruction: one cycle per
#: history entry (paper §8.3 assumes C_clear = 24).
CLEAR_PREFETCHER_CYCLES_PER_ENTRY = 1


def _null_translate(_vaddr: int) -> int | None:
    """Kernel noise loads never offer the prefetcher a usable translation."""
    return None


class Machine:
    """A simulated Intel machine (one logical core's view)."""

    def __init__(
        self,
        params: MachineParams = DEFAULT_MACHINE,
        seed: int | None = None,
        sanitize: bool | None = None,
        trace: Tracer | bool | None = None,
    ) -> None:
        self.params = params
        self.rng = make_rng(seed)
        self._timing = TimingModel(params.noise, derive_rng(self.rng, "timing"))
        self._os_rng = derive_rng(self.rng, "os")
        self.physical = PhysicalMemory(derive_rng(self.rng, "frames"))
        self.aslr = Aslr(derive_rng(self.rng, "aslr"), enabled=params.aslr_enabled)
        self.kaslr = Aslr(derive_rng(self.rng, "kaslr"), enabled=params.aslr_enabled)
        self.hierarchy = CacheHierarchy(params)
        self.tlb = TLB(params.tlb_entries, params.page_walk_latency)
        #: The IP-stride prefetcher.  The §8.2 defenses swap in a hardened
        #: variant (``harden_machine``, ``disable_prefetcher``) after
        #: construction; ``load`` reads this attribute on every call.
        self.ip_stride = IPStridePrefetcher(
            params.prefetcher, enable_next_page=params.enable_next_page_prefetcher
        )
        self.noise_prefetchers: list[Prefetcher] = []
        if params.enable_dcu_prefetcher:
            self.noise_prefetchers.append(DCUPrefetcher())
        if params.enable_adjacent_prefetcher:
            self.noise_prefetchers.append(AdjacentPrefetcher())
        if params.enable_streamer_prefetcher:
            self.noise_prefetchers.append(StreamerPrefetcher())

        #: The single source of simulated time: ``cycles``, ``seconds()``,
        #: the timer-interrupt deadline and span timestamps all read it.
        self._clock = KernelClock()

        #: Structured tracing (repro.obs); NULL_TRACER when off, so every
        #: hook site pays a single ``enabled`` attribute check.
        self.tracer = resolve_tracer(trace)
        #: Lane-aware sinks (ChromeTraceSink) label a per-machine lane; a
        #: shared tracer therefore no longer collapses multiple machines
        #: into one unlabeled Chrome-trace process.
        self.tracer.register_machine(self)
        #: Cycle-attribution profiler aggregate (``with machine.span(...)``);
        #: always collected — spans are rare compared to loads.
        self.profile = SpanProfile()
        #: Measured-latency histogram straddling the LLC-hit threshold;
        #: always populated — one bisect over ~5 bounds per load.
        self.latency_histogram = Histogram(latency_bounds(params))
        for component in (self.hierarchy, self.tlb, self.ip_stride):
            component.tracer = self.tracer
            component.clock = self._clock.now

        #: OS state: the running context, switch/IRQ counters, and the §8.3
        #: mitigation (execute clear-ip-prefetcher on every domain switch).
        self.current: ThreadContext | None = None
        self.context_switches = 0
        self.timer_interrupts = 0
        self.flush_prefetcher_on_switch = False

        #: Per-machine ASID sequence: kernel gets 1, user spaces 2, 3, ...
        #: (a process-global counter would make same-seed traces differ).
        self._next_asid = 1
        self.kernel_space = AddressSpace(
            "kernel", self.physical, aslr=self.kaslr, global_pages=True,
            asid=self._alloc_asid(),
        )
        # The kernel working set touched by switch/IRQ paths.  It must be
        # large: a tiny pool would revisit the same lines every switch, so a
        # single page that happens to be slice-hash-equivalent to a victim
        # page would poison the same monitored cache sets on every round.  4 MiB
        # approximates a kernel steady-state working set.
        self._switch_noise = Buffer(
            self.kernel_space.mmap(1024 * PAGE_SIZE, locked=True, name="switch-noise")
        )
        # The context-switch path is fixed code: its load IPs are chosen
        # once per boot and hit the same prefetcher indexes every switch.
        self._switch_path_ips = [
            int(self._os_rng.integers(0, 1 << 30))
            for _ in range(params.noise.switch_fixed_ips)
        ]

        #: Runtime invariant auditing (repro.sanitize); ``None`` when off.
        #: Audits run after the tracer emits, so a trace shows the event
        #: that a violation was raised on.
        self.sanitizer: Sanitizer | None = (
            Sanitizer(self) if sanitize_enabled(sanitize) else None
        )
        if self.sanitizer is not None:
            self.sanitizer.register_space(self.kernel_space)

    @property
    def cycles(self) -> int:
        """Simulated cycle count (the machine clock is the source of truth)."""
        return self._clock.cycles

    @cycles.setter
    def cycles(self, value: int) -> None:
        self._clock.cycles = value

    # ------------------------------------------------------------------ #
    # Construction helpers                                                #
    # ------------------------------------------------------------------ #

    def _alloc_asid(self) -> int:
        asid = self._next_asid
        self._next_asid += 1
        return asid

    def new_address_space(self, name: str) -> AddressSpace:
        """Create a fresh user address space (one per process)."""
        space = AddressSpace(name, self.physical, aslr=self.aslr, asid=self._alloc_asid())
        if self.sanitizer is not None:
            self.sanitizer.register_space(space)
        return space

    def new_thread(
        self, name: str, space: AddressSpace | None = None, privileged: bool = False
    ) -> ThreadContext:
        """Create a context; without ``space``, a private one is created."""
        if space is None:
            space = self.new_address_space(f"{name}-space")
        return ThreadContext(name=name, space=space, privileged=privileged)

    def kernel_context(self, name: str = "kernel") -> ThreadContext:
        """A privileged context running in the shared kernel address space."""
        return ThreadContext(name=name, space=self.kernel_space, privileged=True)

    def new_buffer(
        self,
        space: AddressSpace,
        n_bytes: int,
        locked: bool = False,
        populate: bool = True,
        name: str = "buf",
    ) -> Buffer:
        """mmap a buffer into ``space`` (see AddressSpace.mmap semantics)."""
        return Buffer(space.mmap(n_bytes, locked=locked, populate=populate, name=name))

    def share_buffer(self, buffer: Buffer, space: AddressSpace, name: str | None = None) -> Buffer:
        """Map ``buffer``'s physical pages into another space (MAP_SHARED)."""
        return Buffer(space.map_shared(buffer.mapping, name=name))

    def code_region(self, base_ip: int, name: str = "code", kernel: bool = False) -> CodeRegion:
        """A code image slid by (K)ASLR when enabled."""
        aslr = self.kaslr if kernel else self.aslr
        return CodeRegion(base_ip, aslr=aslr, name=name)

    # ------------------------------------------------------------------ #
    # Execution                                                           #
    # ------------------------------------------------------------------ #

    def load(self, ctx: ThreadContext, ip: int, vaddr: int, fenced: bool = False) -> int:
        """Execute a load at instruction ``ip``; returns measured latency.

        ``fenced=True`` models a measurement load bracketed by ``mfence``
        (and/or issued from a pointer-chase): the hardware prefetchers
        neither observe it nor act on it.  The paper's artifact reloads
        exactly this way (§A.6: shuffled order + mfence, "the memory
        barrier may prevent prefetching from taking place"), and careful
        Prime+Probe implementations traverse eviction sets as linked lists
        for the same reason.
        """
        # The timer IRQ preempts the load before it translates.
        self._maybe_tick()
        translation = self.tlb.translate(ctx.space, vaddr)
        result = self.hierarchy.access(translation.paddr)
        event: LoadEvent | None = None
        issued: list[PrefetchRequest] = []
        if not fenced:
            event = LoadEvent(
                ip=ip,
                vaddr=vaddr,
                paddr=translation.paddr,
                hit_level=result.level,
                asid=ctx.space.asid,
            )
            if translation.tlb_hit:
                space = ctx.space

                def translate(target: int) -> int | None:
                    try:
                        return space.translate(target)
                    except KeyError:
                        return None

                for prefetcher in (self.ip_stride, *self.noise_prefetchers):
                    requests = prefetcher.observe(event, translate)
                    self._issue(requests, ip)
                    issued.extend(requests)
            else:
                # §4.3: a TLB-missing first touch creates the translation but
                # leaves the prefetcher state untouched — only the next-page
                # prefetcher may carry a pattern across.
                issued = self.ip_stride.observe_tlb_miss(event)
                self._issue(issued, ip)
        latency = self._timing.measured(translation.latency + result.latency)
        self._clock.charge(ctx, latency)
        self.latency_histogram.observe(latency)
        if self.tracer.enabled:
            self.tracer.emit(
                LoadTraced(
                    cycle=self._clock.cycles,
                    ip=ip,
                    vaddr=vaddr,
                    paddr=translation.paddr,
                    level=int(result.level),
                    latency=latency,
                    tlb_hit=translation.tlb_hit,
                    fenced=fenced,
                    asid=ctx.space.asid,
                )
            )
        if self.sanitizer is not None:
            self.sanitizer.after_load(event, translation, issued)
        return latency

    def _issue(self, requests: list[PrefetchRequest], trigger_ip: int) -> None:
        """Install prefetch fills (L2 + LLC, not L1).

        Each request is traced before it is installed, so the trace shows
        the request leaving the prefetcher, then the fill landing.
        """
        for request in requests:
            if self.tracer.enabled:
                self.tracer.emit(
                    PrefetchIssued(
                        cycle=self._clock.cycles,
                        source=request.source,
                        paddr=request.paddr,
                        trigger_ip=trigger_ip,
                    )
                )
            self.hierarchy.insert_prefetch(request.paddr)

    def clflush(self, ctx: ThreadContext, vaddr: int) -> None:
        """Flush the line holding ``vaddr`` from the whole hierarchy."""
        paddr = ctx.space.translate(vaddr)
        self.hierarchy.clflush(paddr)
        self._clock.charge(ctx, CLFLUSH_CYCLES)
        if self.tracer.enabled:
            self.tracer.emit(Clflush(cycle=self._clock.cycles, vaddr=vaddr, paddr=paddr))

    def flush_buffer(self, ctx: ThreadContext, buffer: Buffer) -> None:
        """clflush every line of ``buffer`` (the Flush stage of F+R)."""
        for vaddr in buffer.lines():
            self.clflush(ctx, vaddr)

    def warm_tlb(self, ctx: ThreadContext, vaddr: int) -> None:
        """Install a translation without memory-system side effects."""
        self.tlb.warm(ctx.space, vaddr)

    def warm_buffer_tlb(self, ctx: ThreadContext, buffer: Buffer) -> None:
        """TLB-warm every page of ``buffer`` (the paper's threat-model state)."""
        for page in range(buffer.n_pages):
            self.warm_tlb(ctx, buffer.page_line_addr(page, 0))

    def advance(self, cycles: int) -> None:
        """Account for non-memory compute time."""
        if cycles < 0:
            raise ValueError(f"cannot advance by negative cycles: {cycles}")
        if self.current is not None:
            self._clock.charge(self.current, cycles)
        else:
            self._clock.advance(cycles)

    # ------------------------------------------------------------------ #
    # OS: context switches, timer interrupts, switch noise                #
    # ------------------------------------------------------------------ #

    def context_switch(self, to_ctx: ThreadContext) -> None:
        """Switch the logical core to ``to_ctx``.

        Same-address-space switches (threads of one process) keep the TLB;
        cross-space switches flush non-global entries.  Both kinds run the
        kernel's switch path, whose loads pollute the caches and the
        prefetcher table.
        """
        from_ctx = self.current
        if from_ctx is to_ctx:
            return
        self.context_switches += 1
        self._clock.advance(CONTEXT_SWITCH_CYCLES)
        cross_space = from_ctx is not None and not from_ctx.same_address_space(to_ctx)
        if cross_space:
            self.tlb.flush(keep_global=True)
        # Cross-process switches run the heavier mm-switch path with
        # data-dependent kernel activity; same-space (thread) switches only
        # replay the fixed switch code.
        variable_ips = self.params.noise.switch_variable_ips if cross_space else 0
        self._inject_switch_noise(variable_ips)
        if self.flush_prefetcher_on_switch:
            self.run_prefetcher_clear()
        self.current = to_ctx
        if self.tracer.enabled:
            self.tracer.emit(
                ContextSwitch(
                    cycle=self._clock.cycles,
                    from_ctx=None if from_ctx is None else from_ctx.name,
                    to_ctx=to_ctx.name,
                    cross_space=cross_space,
                )
            )
        if self.sanitizer is not None:
            self.sanitizer.after_switch()

    def run_prefetcher_clear(self) -> None:
        """Execute the proposed privileged clear-ip-prefetcher instruction."""
        self._clock.advance(
            CLEAR_PREFETCHER_CYCLES_PER_ENTRY * self.params.prefetcher.n_entries
        )
        self.ip_stride.clear()

    def _maybe_tick(self) -> None:
        """Run the kernel timer-IRQ path when the tick has elapsed.

        The IRQ handler touches a few kernel lines and executes one load at
        an effectively random kernel IP; with probability 1/256 that IP
        aliases (and clobbers) a trained prefetcher entry.  A backlog of
        elapsed ticks (e.g. after a long ``advance``) fires only once: the
        table's disturbance saturates, and the entries the backlogged ticks
        would have clobbered are retrained before the next observation
        anyway.
        """
        clock = self._clock
        if self.params.noise.switch_fixed_ips == 0:
            # Quiet machines (reverse-engineering benches) take no IRQs.
            clock.rearm_tick()
            return
        if not clock.tick_due():
            return
        self.timer_interrupts += 1
        clock.rearm_tick()
        self._touch_kernel_lines(8)
        # Which IRQ handler ran is data-dependent: one variable-IP load.
        self._kernel_prefetcher_noise([int(self._os_rng.integers(0, 1 << 30))])

    def _inject_switch_noise(self, variable_ips: int) -> None:
        """Model the switch path's own memory traffic.

        Cache pollution: random lines of kernel memory are touched.
        Prefetcher pollution: the fixed switch-path IPs replay (occupying
        their slots, learning nothing — their data addresses vary), plus
        ``variable_ips`` loads at effectively random IPs, each with a 1/256
        chance of aliasing a trained entry.
        """
        self._touch_kernel_lines(self.params.noise.switch_cache_lines)
        # Switch-path code loops over task/mm state, so each fixed IP issues
        # several loads per switch: a re-allocated fixed entry immediately
        # reaches confidence 1 and is no longer a preferred eviction victim.
        # (This is what makes a full-table covert channel lose ~6 of its 24
        # trained entries per switch — the paper's >25 % error rate, §7.2.)
        ips = [ip for ip in self._switch_path_ips for _ in range(2)] + [
            int(self._os_rng.integers(0, 1 << 30)) for _ in range(variable_ips)
        ]
        self._kernel_prefetcher_noise(ips)

    def _touch_kernel_lines(self, count: int) -> None:
        """Demand-access ``count`` random lines of the kernel working set."""
        noise = self._switch_noise
        for _ in range(count):
            line = int(self._os_rng.integers(0, noise.n_lines))
            self.hierarchy.access(self.kernel_space.translate(noise.line_addr(line)))

    def _kernel_prefetcher_noise(self, ips: list[int]) -> None:
        """Kernel loads (random data lines) at the given IPs.

        They feed only the IP-stride table, never with a usable
        translation.
        """
        noise = self._switch_noise
        for ip in ips:
            line = int(self._os_rng.integers(0, noise.n_lines))
            vaddr = noise.line_addr(line)
            event = LoadEvent(
                ip=ip,
                vaddr=vaddr,
                paddr=self.kernel_space.translate(vaddr),
                hit_level=MemoryLevel.LLC,
                asid=self.kernel_space.asid,
            )
            self._issue(self.ip_stride.observe(event, _null_translate), ip)

    # ------------------------------------------------------------------ #
    # Observability                                                       #
    # ------------------------------------------------------------------ #

    def span(self, name: str) -> Span:
        """Open a cycle-attribution span: ``with machine.span("train"): ...``

        The span always feeds ``machine.profile``; ``SpanBegin``/``SpanEnd``
        events are additionally emitted while tracing is enabled.
        """
        return Span(self.profile, name, machine=self)

    def metrics(self) -> MetricsRegistry:
        """Snapshot every component counter (see repro.obs.metrics)."""
        return snapshot(self)

    def reset_stats(self) -> None:
        """Zero every statistics counter across the machine.

        Symmetric by construction: the hierarchy (including prefetch-fill
        and accuracy counters), every cache level, the TLB, the IP-stride
        prefetcher and all noise prefetchers, the latency histogram, and
        the machine's own switch/IRQ counters all reset together.  The
        cycle clock and all learned µarch state survive — this resets
        *measurements*, not the machine.
        """
        self.hierarchy.reset_stats()
        self.tlb.reset_stats()
        self.ip_stride.reset_stats()
        for prefetcher in self.noise_prefetchers:
            prefetcher.reset_stats()
        self.latency_histogram.reset()
        self.context_switches = 0
        self.timer_interrupts = 0

    # ------------------------------------------------------------------ #
    # Inspection                                                          #
    # ------------------------------------------------------------------ #

    def cached_level(self, ctx: ThreadContext, vaddr: int) -> MemoryLevel | None:
        """Highest cache level holding ``vaddr`` (non-mutating debug helper)."""
        return self.hierarchy.contains(ctx.space.translate(vaddr))

    def is_cached(self, ctx: ThreadContext, vaddr: int) -> bool:
        return self.cached_level(ctx, vaddr) is not None

    def measured_latency(self, ideal: int) -> int:
        """Apply the timing-noise model to an ideal latency (for channels
        that time non-load operations, e.g. Flush+Flush)."""
        return self._timing.measured(ideal)

    def hit_threshold(self) -> int:
        """Measured-latency threshold separating cache hits from DRAM misses."""
        return self.params.llc_hit_threshold

    def seconds(self) -> float:
        """Wall-clock equivalent of the elapsed cycle count."""
        return self._clock.seconds(self.params.frequency_hz)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine({self.params.name}, cycles={self.cycles})"


def line_of(vaddr: int) -> int:
    """Cache-line number of a virtual address (convenience for experiments)."""
    return line_index(vaddr)
