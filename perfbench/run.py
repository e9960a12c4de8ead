"""The end-to-end benchmark: one workload per run, one JSON line out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-hostile --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

``BENCHMARK.json`` gates three of the four workloads; ``probe-quiet``
runs on request only (see perfbench/README.md).

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs untraced and traced passes of the same inputs, checks
they produce identical digests, and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name every metric with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter  # repro: noqa[RL003] — the benchmark measures host time
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import reference, workloads  # noqa: E402

WORK = ROOT / ".perfbench"
DIGESTS = ROOT / "perfbench" / "digests.json"
WORKLOADS = ("probe-quiet", "campaign-hostile", "mitigation-trace", "serve-mixed")
#: Set-ups per run, spread evenly over it; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The gated end-to-end metrics, the same four on every workload.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_ms": "ms", "peak_rss_mb": "MB"}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def check_digests(
    passes: list[dict[str, str | None]], expected: dict[str, str] | None
) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every pass.

    Each operation must equal ``expected`` when given (the default seed),
    else the first pass: every repetition of a seed must agree.
    """
    reference = expected if expected is not None else (passes[0] if passes else {})
    attempted = failed = 0
    problems: list[str] = []
    for number, digests in enumerate(passes):
        for op in sorted(set(reference) | set(digests)):
            attempted += 1
            got = digests.get(op)
            if got is None or got != reference.get(op):
                failed += 1
                problems.append(f"pass {number}: {op} digest {got} != {reference.get(op)}")
    return attempted, failed, problems


#: The label of a pass's remainder outside its operations.
REST = "(rest)"


def op_median_seconds(passes: list[tuple[float, workloads.PassResult]]) -> dict[str, float]:
    """Each operation's median scaled time over the passes, and under
    ``REST`` the median remainder of a pass outside its operations and
    their reference runs.

    Each operation's host time is scaled by the reference run right after
    it, the remainder by the pass's median reference run (see
    perfbench/reference.py).  Medians rather than fastest times: on a
    2-CPU host shared with other tenants the fastest times spread more
    from run to run (see perfbench/README.md).
    """
    times: dict[str, list[float]] = {}
    for seconds, result in passes:
        references = result.op_reference
        rest = seconds - sum(result.op_seconds.values()) - sum(references.values())
        scaled_ops = [
            (label, reference.scaled(took, references[label]))
            for label, took in result.op_seconds.items()
        ]
        rest = reference.scaled(rest, median(list(references.values()))) if references else rest
        for label, took in [*scaled_ops, (REST, rest)]:
            times.setdefault(label, []).append(took)
    return {label: median(values) for label, values in times.items()}


def op_latency_seconds(medians: dict[str, float], op_events: dict[str, int]) -> float:
    """Host seconds per simulated event of one operation (an attack run, a
    cell or a trace): each operation's median time over its own events,
    and the geometric mean of those over the operations, as serve-mixed's
    ``latency_ms`` is over its request kinds.

    Each operation weighs the same, however long it runs, so this moves
    differently from ``ops_per_s``, which a pass's longest operations
    dominate.  Dividing by the operation's events removes the amount of
    work its seed makes (an ``rsa`` cell's accesses vary 2x over seeds).
    """
    per_event = [took / op_events[label] for label, took in medians.items() if op_events.get(label)]
    if not per_event:
        return 0.0
    return float(np.exp(np.mean(np.log(per_event))))


def expected_digests(workload: str, seed: int) -> dict[str, str] | None:
    """The recorded digests when ``seed`` is the recorded seed, else None."""
    recorded_seed, digests = workloads.load_expected_digests(DIGESTS)
    if seed != recorded_seed:
        return None
    return digests.get(workload, {})


def run_setup_child(workload: str, seed: int, work: Path) -> float:
    """Time one cold set-up in a fresh interpreter."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only", str(work)],
        check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - start


def setup_only(workload: str, seed: int, work: Path) -> None:
    if workload == "serve-mixed":
        workloads.fill_serve_store(seed, work / "store")
    else:
        workloads.SIM_WORKLOADS[workload].prepare(seed, work)


def report(lines: list[tuple[str, float, str]]) -> None:
    for name, value, unit in lines:
        print(f"  {name:<28} {value:>14.6g} {unit}")


# --------------------------------------------------------------------- #
# Simulation workloads                                                   #
# --------------------------------------------------------------------- #


def run_sim(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    workload = workloads.SIM_WORKLOADS[name]
    work = WORK / name
    setups: list[float] = []

    def setup_when_due(run_start: float) -> None:
        # Set-up i runs once i / SETUP_REPEATS of the run has passed, so
        # the median samples the host across the run, not at one moment.
        due = len(setups) < SETUP_REPEATS and (
            perf_counter() >= run_start + len(setups) * seconds / SETUP_REPEATS
        )
        if due and not trace:
            took = run_setup_child(name, seed, work / f"setup-{len(setups)}")
            setups.append(reference.scaled(took, reference.seconds()))

    state = workload.prepare(seed, work)
    tracer = None
    if trace:
        from perfbench.layers import install_simulator
        from perfbench.tracing import LayerTracer

        tracer = LayerTracer()
    plain: list[tuple[float, workloads.PassResult]] = []
    traced: list[tuple[float, workloads.PassResult]] = []
    run_start = perf_counter()
    deadline = run_start + seconds
    iterations: list[float] = []
    while True:
        began = perf_counter()
        setup_when_due(run_start)
        # Each pass starts from a collected heap, so garbage one pass left
        # behind is not charged to the next.
        gc.collect()
        start = perf_counter()
        result = workload.run_pass(state, None)
        plain.append((perf_counter() - start, result))
        if tracer is not None:
            gc.collect()
            install_simulator(tracer)
            try:
                start = perf_counter()
                result = workload.run_pass(state, tracer)
                traced.append((perf_counter() - start, result))
            finally:
                tracer.restore()
        else:
            result.batches = []  # only the traced run reads them
        iterations.append(perf_counter() - began)
        # Stop when another pass would end past the deadline, so a run
        # lasts about ``seconds`` rather than up to a pass longer.
        if perf_counter() + median(iterations) > deadline:
            break
    while not trace and len(setups) < SETUP_REPEATS:
        setup_when_due(run_start)
    all_passes = plain + traced
    attempted, failed, problems = check_digests(
        [r.digests for _t, r in all_passes], expected_digests(name, seed)
    )
    for problem in problems[:10]:
        print(f"  check failed: {problem}")
    print(f"{name}: seed {seed}, {len(plain)} untraced + {len(traced)} traced passes, "
          f"{attempted - failed}/{attempted} checks passed")
    # The first pass also pays lazy imports and first-touch allocation;
    # it is checked but not timed when there are other passes.
    timed = plain[1:] or plain
    times = [t for t, _r in timed]
    if tracer is not None:
        from perfbench.layers import PER_LAYER, simulator_metrics

        metrics = simulator_metrics(
            tracer, len(traced), [b for _t, r in traced for b in r.batches]
        )
        metrics["bench.trace_overhead_s"] = median([t for t, _r in traced]) - median(times)
        stem = WORK / f"{name}-seed{seed}"
        tracer.write(stem.with_suffix(".trace.json"), stem.with_suffix(".chrome.json"))
        return result_object(attempted, failed, metrics, PER_LAYER)
    write_timings(name, seed, {
        "setups_s": setups,
        "passes": [{"seconds": t, "op_seconds": r.op_seconds, "op_reference_s": r.op_reference}
                   for t, r in plain],
    })
    first = plain[0][1]
    medians = op_median_seconds(timed)
    latency_s = op_latency_seconds(medians, first.op_events)
    per_event_s = sum(medians.values()) / first.events if first.events else float(sum(times))
    per_second = lambda count: count / (per_event_s * first.events)  # noqa: E731
    derived = [("sim_loads_per_s", first.loads), ("trials_per_s", first.trials),
               ("cells_per_s", first.cells)]
    report([
        ("setup_s", median(setups), "s"),
        (f"sim_{workload.event_name}_per_s", 1 / per_event_s, "1/s"),
        ("latency_ms (per 1000 events, operation geomean)", latency_s * 1e6, "ms"),
        ("ms_per_1000_events", per_event_s * 1e6, "ms"),
        ("pass_s (median, host)", median(times), "s"),
        ("passes", len(plain), "count"),
        (f"{workload.event_name}_per_pass", first.events, "count"),
        *[(label, per_second(count), "1/s") for label, count in derived
          if count and count != first.events],
        ("failed_ratio", failed / attempted if attempted else 0.0, "ratio"),
    ])
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": 1 / per_event_s,
        "latency_ms": latency_s * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return result_object(attempted, failed, metrics, END_TO_END)


def write_timings(name: str, seed: int, timings: dict[str, Any]) -> None:
    """Keep a run's raw timings beside its summary, for comparing runs."""
    path = WORK / f"{name}-seed{seed}.timings.json"
    path.write_text(json.dumps(timings, indent=1) + "\n")


def result_object(attempted: int, failed: int, metrics: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


# --------------------------------------------------------------------- #
# serve-mixed                                                            #
# --------------------------------------------------------------------- #


def serve_setup(seed: int, store: Path, trace: bool) -> tuple[float, Any, Any]:
    """Fill a store, start a daemon over it and check its first answers;
    returns (seconds, server, checker)."""
    from perfbench import serve

    start = perf_counter()
    if trace:
        setup_only("serve-mixed", seed, store.parent)
    else:
        run_setup_child("serve-mixed", seed, store.parent)
    server = serve.Server(store, seed)
    try:
        checker = serve.Checker(server.port, seed, store)
        checker.warm()
    except BaseException:
        server.stop()
        raise
    return reference.scaled(perf_counter() - start, reference.seconds()), server, checker


def run_serve(seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    from perfbench import serve
    from perfbench.layers import PER_LAYER, install_store_writes, store_write_metrics
    from perfbench.tracing import LayerTracer, chrome_events
    from repro.utils.rng import make_rng
    from repro.utils.stats import percentile

    work = WORK / "serve-mixed"
    rng = make_rng(seed)
    store = work / "setup-0" / "store"
    took, server, checker = serve_setup(seed, store, trace)
    setups = [took]

    def another_setup() -> None:
        # The rest of the set-ups run between saturation chunks, so the
        # median samples the host across the run; each daemon is stopped
        # once it has answered.
        if len(setups) < SETUP_REPEATS:
            took, extra, _checker = serve_setup(seed, work / f"setup-{len(setups)}" / "store", False)
            extra.stop()
            setups.append(took)

    try:
        if trace:
            samples, delta = serve.phase(checker, rng, serve.NOMINAL_RPS, seconds / 2)
            server.stop()
            dump_path = work / "launcher-dump.json"
            dump_path.unlink(missing_ok=True)
            server = serve.Server(store, seed, dump=dump_path)
            checker = serve.Checker(server.port, seed, store)
            checker.warm()
            writes = LayerTracer()
            install_store_writes(writes)
            try:
                traced_samples, _traced_delta = serve.phase(
                    checker, rng, serve.NOMINAL_RPS, seconds / 2
                )
            finally:
                writes.restore()
            all_samples = samples + traced_samples
            dump = server.stop()
            server = None
        else:
            chunks, rates, references, steps, all_samples = serve.measure(
                checker, rng, seconds, another_setup
            )
            while len(setups) < SETUP_REPEATS:
                another_setup()
            samples = [s for chunk in chunks for s in chunk]
            peak_kb = serve_peak_rss_kb(server)
    finally:
        if server is not None:
            server.stop()
    attempted = len(all_samples)
    failed = sum(1 for s in all_samples if not s.ok)
    for sample in [s for s in all_samples if not s.ok][:10]:
        print(f"  check failed: {sample.kind}: {sample.error}")
    latencies = [s.latency for s in samples if s.ok]
    print(f"serve-mixed: seed {seed}, {len(samples)} requests at {serve.NOMINAL_RPS:g}/s, "
          f"{attempted - failed}/{attempted} checks passed")
    if trace:
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(serve_layer_metrics(dump, samples, traced_samples, delta))
        metrics.update(store_write_metrics(writes, 1))
        (WORK / f"serve-mixed-seed{seed}.trace.json").write_text(json.dumps(dump) + "\n")
        (WORK / f"serve-mixed-seed{seed}.chrome.json").write_text(
            json.dumps(chrome_events(dump["requests"])) + "\n"
        )
        return result_object(attempted, failed, metrics, PER_LAYER)
    p50s = serve.kind_p50s(samples)
    # Scaled by the run's median reference run: a single one after each
    # nominal chunk was too noisy a sample of the host's speed.
    latency_ms = reference.scaled(serve.mix_latency(p50s), median(references)) * 1e3
    max_rps = statistics.median(rates)
    write_timings("serve-mixed", seed, {
        "setups_s": setups, "saturation_rates": rates, "references_s": references,
        "nominal_chunk_p50s_s": [serve.kind_p50s(chunk) for chunk in chunks],
    })
    holding = [step.rate for step in steps if step.holds(serve.LATENCY_LIMIT_S)]
    for step in steps:
        print(f"  open loop at {step.rate:7.1f}/s: p99 {step.p99_s * 1e3:.2f} ms, "
              f"end lag {step.end_lag_s * 1e3:.2f} ms, {step.failed}/{step.sent} failed")
    report([
        ("setup_s", median(setups), "s"),
        ("max_rps", max_rps, "1/s"),
        ("sweep_max_rps (p99 <= 200 ms)", max(holding, default=0.0), "1/s"),
        ("latency_ms (geomean of p50s)", latency_ms, "ms"),
        *[(f"p50_ms {kind}", p50s.get(kind, 0.0) * 1e3, "ms") for kind, _w in serve.MIX],
        ("p50_ms (all nominal requests)", median(latencies) * 1e3, "ms"),
        ("p99_ms", percentile(latencies, 99) * 1e3 if latencies else 0.0, "ms"),
        ("nominal_requests", len(samples), "count"),
        ("failed_ratio", failed / attempted if attempted else 0.0, "ratio"),
    ])
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": max_rps,
        "latency_ms": latency_ms,
        "peak_rss_mb": peak_kb / 1024,
    }
    return result_object(attempted, failed, metrics, END_TO_END)


def serve_peak_rss_kb(server: Any) -> float:
    """The daemon's peak resident set (``VmHWM``), read while it runs."""
    with open(f"/proc/{server.process.pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


def serve_layer_metrics(
    dump: dict[str, Any], plain: list[Any], traced: list[Any], delta: dict[str, float]
) -> dict[str, float]:
    from perfbench.tracing import LayerTracer

    tracer = LayerTracer()
    for row in dump["aggregates"]:
        tracer.aggregates[(row["layer"], row["parent"])] = [
            row["count"], row["total_s"], row["self_s"]
        ]
    aggregate_requests = [
        r for r in dump["requests"] if (r.get("path") or "").startswith("/aggregate/")
    ]
    gets, get_total, _s = tracer.layer("fleet.store.get")
    refreshes, refresh_total, _s = tracer.layer("fleet.store.refresh")
    client_p50_ms = median([s.latency for s in plain if s.ok]) * 1e3
    mean = lambda values: sum(values) / len(values) if values else 0.0  # noqa: E731
    return {
        "fleet.store_get_per_request": mean([r["store_gets"] for r in aggregate_requests]),
        "fleet.store.get.us": get_total / gets * 1e6 if gets else 0.0,
        "fleet.store.refresh.us": refresh_total / refreshes * 1e6 if refreshes else 0.0,
        "fleet.aggregate.us": mean([(r["end"] - r["start"]) * 1e6 for r in aggregate_requests]),
        "fleet.server_us": delta["server_us"],
        "fleet.cache.hit_ratio": delta["cache_hit_ratio"],
        "fleet.wait_ms": client_p50_ms - delta["server_us"] / 1e3,
        "bench.gen_lag_ms": median([s.lag for s in plain]) * 1e3,
        "bench.trace_overhead_s": mean([s.latency for s in traced]) - mean([s.latency for s in plain]),
    }


# --------------------------------------------------------------------- #
# Entry point                                                            #
# --------------------------------------------------------------------- #


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    if name == "serve-mixed":
        return run_serve(seed, seconds, trace)
    return run_sim(name, seed, seconds, trace)


def record_digests() -> None:
    """Re-record ``digests.json`` from one pass of each simulation workload
    at the default seed."""
    seed = workloads.DEFAULT_SEED
    recorded = {}
    for name, workload in workloads.SIM_WORKLOADS.items():
        result = workload.run_pass(workload.prepare(seed, WORK / name), None)
        if any(value is None for value in result.digests.values()):
            raise RuntimeError(f"{name}: an operation failed; nothing recorded")
        recorded[name] = result.digests
    DIGESTS.write_text(json.dumps({"seed": seed, "digests": recorded}, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="re-record perfbench/digests.json for the default seed and exit")
    args = parser.parse_args(argv)
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        parser.error(f"--record-digests records seed {workloads.DEFAULT_SEED} only")
    import repro  # noqa: F401 - fail before any work when the sources are missing

    if args.setup_only:
        setup_only(args.workload, args.seed, Path(args.setup_only))
        return 0
    if args.record_digests:
        record_digests()
        return 0
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    finally:
        for name in names:
            for stale in (WORK / name).glob("setup-*"):
                shutil.rmtree(stale, ignore_errors=True)
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
