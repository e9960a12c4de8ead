"""Which simulator calls the traced run wraps, and the per-layer metrics.

Only public functions of classes that outlive a refactor of the load
pipeline are wrapped: ``Machine``, ``TLB``, ``CacheHierarchy``,
``SliceHash``, ``IPStridePrefetcher``, ``TimingModel``, ``run_cell``,
``TrialStore``, ``ChampSimLite`` (plus ``MitigationStudy.run_workload`` and
``generate_trace`` for the study's spans, and the attack registry's
``get_attack`` for scenario timing).  Nothing in ``repro.cpu.kernel`` is
touched.  The fleet layer is wrapped in the server process by
``serve_launcher.py``.
"""

from __future__ import annotations

import statistics
from typing import Any

from perfbench.tracing import LayerTracer

#: Every per-layer metric with its unit, in report order.  A workload that
#: does not exercise a layer reports 0 for it.
PER_LAYER: dict[str, str] = {
    "cpu.load.n": "count",
    "cpu.load.self_us": "us",
    "cpu.switch.n": "count",
    "cpu.switch.self_us": "us",
    "cpu.switch.noise_accesses": "count",
    "cpu.clflush.n": "count",
    "cpu.init_ms": "ms",
    "mmu.translate.n": "count",
    "mmu.translate.us": "us",
    "mmu.tlb_hit_ratio": "ratio",
    "memsys.access.n": "count",
    "memsys.access.self_us": "us",
    "memsys.slice_of.n": "count",
    "memsys.slice_of.us": "us",
    "memsys.insert_prefetch.n": "count",
    "memsys.l1_hit_ratio": "ratio",
    "memsys.llc_miss_ratio": "ratio",
    "prefetch.observe.n": "count",
    "prefetch.observe.us": "us",
    "prefetch.issued": "count",
    "prefetch.accuracy": "ratio",
    "timing.measured.n": "count",
    "timing.measured.us": "us",
    "attacks.scenario_s": "s",
    "attacks.trials_s": "s",
    "campaign.cell_s.p50": "s",
    "campaign.cell_s.p90": "s",
    "campaign.store.put.n": "count",
    "campaign.store.put.us": "us",
    "campaign.store.put.bytes": "B",
    "campaign.store.get.us": "us",
    "mitigation.trace_gen_s": "s",
    "mitigation.sim.self_s": "s",
    "fleet.store_get_per_request": "count",
    "fleet.store.get.us": "us",
    "fleet.store.refresh.us": "us",
    "fleet.aggregate.us": "us",
    "fleet.server_us": "us",
    "fleet.cache.hit_ratio": "ratio",
    "fleet.wait_ms": "ms",
    "bench.gen_lag_ms": "ms",
    "bench.trace_overhead_s": "s",
}


def written_bytes() -> int:
    """Bytes this thread has passed to ``write`` so far (Linux ``wchar``)."""
    with open("/proc/thread-self/io") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/thread-self/io has no wchar line")


def install_store_writes(tracer: LayerTracer) -> None:
    """Time ``TrialStore.put`` and count the bytes each call writes."""
    from repro.campaign.store import TrialStore

    def on_put(_result: Any, _args: tuple, written_before: int) -> None:
        tracer.count("campaign.store.put.bytes", written_bytes() - written_before)

    tracer.wrap(TrialStore, "put", "campaign.store.put", lambda _a: written_bytes(), on_put)


def store_write_metrics(tracer: LayerTracer, passes: int) -> dict[str, float]:
    puts, total, _s = tracer.layer("campaign.store.put")
    return {
        "campaign.store.put.n": puts / passes,
        "campaign.store.put.us": _mean_us(total, puts),
        "campaign.store.put.bytes": _ratio(tracer.counters.get("campaign.store.put.bytes", 0), puts),
    }


def install_simulator(tracer: LayerTracer) -> None:
    """Wrap the simulator's layers; undo with ``tracer.restore()``."""
    import dataclasses

    import repro.attacks.registry as registry
    import repro.campaign.runner as campaign_runner
    import repro.mitigation.study as study
    from repro.campaign.store import TrialStore
    from repro.cpu.machine import Machine
    from repro.cpu.timing import TimingModel
    from repro.memsys.hierarchy import CacheHierarchy
    from repro.memsys.slice_hash import SliceHash
    from repro.mitigation.champsim_lite import ChampSimLite
    from repro.mmu.tlb import TLB
    from repro.prefetch.ip_stride import IPStridePrefetcher

    count = tracer.count

    def on_translate(result: Any, _args: tuple, _token: Any) -> None:
        if result.tlb_hit:
            count("mmu.tlb_hits")

    def on_access(result: Any, _args: tuple, _token: Any) -> None:
        count(f"memsys.level.{result.level.name}")

    def on_observe(result: Any, _args: tuple, _token: Any) -> None:
        count("prefetch.issued", len(result))

    def on_sim(_result: Any, args: tuple, _token: Any) -> None:
        hierarchy = args[0].hierarchy
        count("prefetch.useful", hierarchy.prefetch_useful)
        count("prefetch.judged", hierarchy.prefetch_useful + hierarchy.prefetch_useless)

    tracer.wrap(Machine, "__init__", "cpu.init")
    tracer.wrap(Machine, "load", "cpu.load")
    tracer.wrap(Machine, "context_switch", "cpu.switch")
    tracer.wrap(Machine, "clflush", "cpu.clflush")
    tracer.wrap(TLB, "translate", "mmu.translate", after=on_translate)
    tracer.wrap(CacheHierarchy, "access", "memsys.access", after=on_access)
    tracer.wrap(CacheHierarchy, "insert_prefetch", "memsys.insert_prefetch")
    tracer.wrap(SliceHash, "slice_of", "memsys.slice_of")
    tracer.wrap(IPStridePrefetcher, "observe", "prefetch.observe", after=on_observe)
    tracer.wrap(TimingModel, "measured", "timing.measured")
    install_store_writes(tracer)
    tracer.wrap(TrialStore, "get", "campaign.store.get")
    tracer.wrap_span(
        campaign_runner, "run_cell", "campaign.cell", lambda cell: {"cell": cell.label}
    )
    tracer.wrap(ChampSimLite, "run", "mitigation.sim", after=on_sim)
    tracer.wrap(study, "generate_trace", "mitigation.trace_gen")
    tracer.wrap_span(
        study.MitigationStudy, "run_workload", "mitigation.workload",
        lambda _study, spec: {"trace": spec.name},
    )

    def timed_spec(get_attack: Any) -> Any:
        def traced_get_attack(name: str) -> Any:
            spec = get_attack(name)
            build = tracer.timed(spec.scenario, "attacks.scenario")

            def scenario(*args: Any, **kwargs: Any) -> Any:
                attack = build(*args, **kwargs)
                attack.run_trials = tracer.timed(attack.run_trials, "attacks.trials")
                return attack

            return dataclasses.replace(spec, scenario=scenario)

        return traced_get_attack

    tracer.patch(registry, "get_attack", timed_spec)


def _mean_us(total: float, n: int) -> float:
    return total / n * 1e6 if n else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def simulator_metrics(
    tracer: LayerTracer, passes: int, batches: list[Any] = ()
) -> dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes.

    Counts and seconds are per pass; ``*_us`` are means per call.
    ``batches`` (the passes' ``TrialBatch`` es) supply prefetch accuracy
    for machine-driven workloads, whose hierarchies die with their machine.
    """
    counters = tracer.counters
    out: dict[str, float] = {name: 0.0 for name in PER_LAYER}

    loads, _t, load_self = tracer.layer("cpu.load")
    switches, _t, switch_self = tracer.layer("cpu.switch")
    inits, init_total, _s = tracer.layer("cpu.init")
    out["cpu.load.n"] = loads / passes
    out["cpu.load.self_us"] = _mean_us(load_self, loads)
    out["cpu.switch.n"] = switches / passes
    out["cpu.switch.self_us"] = _mean_us(switch_self, switches)
    out["cpu.switch.noise_accesses"] = tracer.layer("memsys.access", "cpu.switch")[0] / passes
    out["cpu.clflush.n"] = tracer.layer("cpu.clflush")[0] / passes
    out["cpu.init_ms"] = init_total / inits * 1e3 if inits else 0.0

    n, total, _s = tracer.layer("mmu.translate")
    out["mmu.translate.n"] = n / passes
    out["mmu.translate.us"] = _mean_us(total, n)
    out["mmu.tlb_hit_ratio"] = _ratio(counters.get("mmu.tlb_hits", 0), n)

    n, _t, self_time = tracer.layer("memsys.access")
    out["memsys.access.n"] = n / passes
    out["memsys.access.self_us"] = _mean_us(self_time, n)
    slices, slice_total, _s = tracer.layer("memsys.slice_of")
    out["memsys.slice_of.n"] = slices / passes
    out["memsys.slice_of.us"] = _mean_us(slice_total, slices)
    out["memsys.insert_prefetch.n"] = tracer.layer("memsys.insert_prefetch")[0] / passes
    llc_hits = counters.get("memsys.level.LLC", 0)
    dram = counters.get("memsys.level.DRAM", 0)
    out["memsys.l1_hit_ratio"] = _ratio(counters.get("memsys.level.L1", 0), n)
    out["memsys.llc_miss_ratio"] = _ratio(dram, llc_hits + dram)

    n, total, _s = tracer.layer("prefetch.observe")
    out["prefetch.observe.n"] = n / passes
    out["prefetch.observe.us"] = _mean_us(total, n)
    out["prefetch.issued"] = counters.get("prefetch.issued", 0) / passes
    useful = counters.get("prefetch.useful", 0)
    judged = counters.get("prefetch.judged", 0)
    for batch in batches:
        useful += batch.metrics["hierarchy.prefetch_useful"]
        judged += (
            batch.metrics["hierarchy.prefetch_useful"]
            + batch.metrics["hierarchy.prefetch_useless"]
        )
    out["prefetch.accuracy"] = _ratio(useful, judged)

    n, total, _s = tracer.layer("timing.measured")
    out["timing.measured.n"] = n / passes
    out["timing.measured.us"] = _mean_us(total, n)

    out["attacks.scenario_s"] = tracer.layer("attacks.scenario")[1] / passes
    out["attacks.trials_s"] = tracer.layer("attacks.trials")[1] / passes

    cells = sorted(
        span["end"] - span["start"] for span in tracer.spans if span["name"] == "campaign.cell"
    )
    if cells:
        out["campaign.cell_s.p50"] = statistics.median(cells)
        out["campaign.cell_s.p90"] = cells[min(len(cells) - 1, int(0.9 * len(cells)))]
    out.update(store_write_metrics(tracer, passes))
    gets, get_total, _s = tracer.layer("campaign.store.get")
    out["campaign.store.get.us"] = _mean_us(get_total, gets)

    out["mitigation.trace_gen_s"] = tracer.layer("mitigation.trace_gen")[1] / passes
    out["mitigation.sim.self_s"] = tracer.layer("mitigation.sim")[2] / passes
    return out
