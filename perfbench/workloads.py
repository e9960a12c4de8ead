"""The three simulation workloads and the serve workload's store.

Each simulation workload is a *pass*: a fixed set of operations built
from the seed, run start to finish.  A run repeats passes until its time
is used up, so every pass of one run must produce the same digests.

* ``probe-quiet`` — ``run_trials`` for four attacks at the attacks-vs-noise
  ``quiet`` point: per-load dispatch and the demand path, no switch noise.
* ``campaign-hostile`` — a cold ``CampaignRunner(jobs=1)`` fill of three
  attacks at the ``hostile`` and ``paper`` points: switch noise, bulk
  hierarchy traffic, cell hashing and store writes.
* ``mitigation-trace`` — ``MitigationStudy.run_suite`` over the synthetic
  suite: the hierarchy and IP-stride prefetcher with no ``Machine``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter  # repro: noqa[RL003] — operations are timed on the host
from typing import Any, Callable

from perfbench import reference

#: The seed whose digests are recorded in ``digests.json``.
DEFAULT_SEED = 1
MACHINE = "i7-9700"
PROBE_ATTACKS = ("variant1", "variant1-thread", "covert", "sgx")
#: variant2 is left out: its IP search alone takes ~25 s at ``hostile``
#: (more than a whole run) and retries a seed-dependent number of times.
CAMPAIGN_ATTACKS = ("switch-leak", "rsa", "tracker")
CAMPAIGN_POINTS = ("hostile", "paper")
#: Instructions per trace: the suite's 24 traces x 3 configurations make
#: one pass about two seconds of simulation on a 2-CPU host.
MITIGATION_INSTRUCTIONS = 4_000
#: The shrunk campaign the serve workload fills and serves.
SERVE_CAMPAIGN = "attacks-vs-noise"
SERVE_ATTACKS = ("variant1", "covert", "sgx")
SERVE_ROUNDS = 2
SERVE_REPEATS = 2


def digest(document: Any) -> str:
    """SHA-256 of the canonical JSON of ``document``."""
    from repro.campaign.spec import canonical_json

    return hashlib.sha256(canonical_json(document).encode()).hexdigest()


@dataclass
class PassResult:
    """What one pass did and produced."""

    #: Operation label -> digest of its wall-clock-free output, or None
    #: when the operation raised.
    digests: dict[str, str | None]
    #: Simulated events, the throughput metric's unit: ``Machine.load``
    #: calls, hierarchy accesses or trace instructions.  Fixed for a seed,
    #: so host time per event does not depend on how much work a seed makes.
    events: int
    #: Operation label -> host seconds it took in this pass.
    op_seconds: dict[str, float] = field(default_factory=dict)
    #: Operation label -> its simulated events; an operation that raised
    #: has none.
    op_events: dict[str, int] = field(default_factory=dict)
    #: Operation label -> host seconds of the reference kernel run right
    #: after it (perfbench/reference.py), to scale its time by.
    op_reference: dict[str, float] = field(default_factory=dict)
    loads: int = 0
    trials: int = 0
    cells: int = 0
    batches: list[Any] = field(default_factory=list)


@dataclass
class SimWorkload:
    name: str
    #: What ``events`` counts, for the human-readable report.
    event_name: str
    prepare: Callable[[int, Path], Any]
    run_pass: Callable[[Any, Any], PassResult]


def _noise_point(name: str) -> Any:
    from repro.campaign import builtin_campaign

    for axis in builtin_campaign("attacks-vs-noise").axes:
        if axis.name == name:
            return axis
    raise KeyError(name)


# --------------------------------------------------------------------- #
# probe-quiet                                                            #
# --------------------------------------------------------------------- #


def _prepare_probe(seed: int, _work: Path) -> dict[str, Any]:
    from repro.attacks import attack_names
    from repro.params import preset

    missing = set(PROBE_ATTACKS) - set(attack_names())
    if missing:
        raise KeyError(f"attacks not registered: {sorted(missing)}")
    return {"seed": seed, "params": _noise_point("quiet").apply_noise(preset(MACHINE))}


def _run_probe(state: dict[str, Any], tracer: Any) -> PassResult:
    from repro.attacks import run_trials

    result = PassResult(digests={}, events=0)
    for name in PROBE_ATTACKS:
        start = perf_counter()
        try:
            if tracer is None:
                batch = run_trials(name, params=state["params"], seed=state["seed"])
            else:
                with tracer.span("attacks.run", attack=name):
                    batch = run_trials(name, params=state["params"], seed=state["seed"])
        except Exception:  # an operation failure is counted, not fatal
            result.digests[name] = None
            continue
        finally:
            result.op_seconds[name] = perf_counter() - start
            result.op_reference[name] = reference.seconds()
        result.digests[name] = digest(batch.wall_clock_free_dict())
        result.op_events[name] = batch.metrics["latency.measured"]["total"]
        result.trials += len(batch.trials)
        result.loads += result.op_events[name]
        result.batches.append(batch)
    result.events = result.loads
    return result


# --------------------------------------------------------------------- #
# campaign-hostile                                                       #
# --------------------------------------------------------------------- #


def campaign_spec(
    base: str, attacks: tuple[str, ...], points: tuple[str, ...] | None, seed: int, **kw: Any
) -> Any:
    from repro.campaign import builtin_campaign

    spec = builtin_campaign(base)
    axes = spec.axes if points is None else tuple(_noise_point(p) for p in points)
    return dataclasses.replace(spec, attacks=attacks, axes=axes, base_seed=seed, **kw)


def _prepare_campaign(seed: int, work: Path) -> dict[str, Any]:
    spec = campaign_spec("attacks-vs-noise", CAMPAIGN_ATTACKS, CAMPAIGN_POINTS, seed, repeats=1)
    return {"spec": spec, "work": work, "fills": 0}


def _run_campaign(state: dict[str, Any], tracer: Any) -> PassResult:
    import repro.campaign.runner as campaign_runner
    from repro.campaign import CampaignRunner, TrialStore

    out = PassResult(digests={}, events=0)

    def timed_cell(cell: Any) -> Any:
        # Looked up per call, so the traced run's wrapper is the one timed.
        start = perf_counter()
        try:
            return campaign_runner.run_cell(cell)
        finally:
            out.op_seconds[cell.label] = perf_counter() - start
            out.op_reference[cell.label] = reference.seconds()

    store_dir = state["work"] / f"campaign-store-{state['fills']}"
    state["fills"] += 1
    shutil.rmtree(store_dir, ignore_errors=True)
    try:
        runner = CampaignRunner(TrialStore(store_dir), jobs=1, run_cell_fn=timed_cell)
        result = runner.run(state["spec"])
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    for outcome in result.outcomes:
        batch = outcome.batch
        if batch is None:
            out.digests[outcome.cell.label] = None
            continue
        out.digests[outcome.cell.label] = digest(batch.wall_clock_free_dict())
        # Switch noise, not the attack's own loads, is most of the work.
        out.op_events[outcome.cell.label] = batch.metrics["hierarchy.demand_accesses"]
        out.events += out.op_events[outcome.cell.label]
        out.cells += 1
        out.trials += len(batch.trials)
        out.loads += batch.metrics["latency.measured"]["total"]
        out.batches.append(batch)
    out.digests["aggregates"] = digest(result.aggregates()) if result.complete else None
    return out


# --------------------------------------------------------------------- #
# mitigation-trace                                                       #
# --------------------------------------------------------------------- #


def _prepare_mitigation(seed: int, _work: Path) -> dict[str, Any]:
    from repro.mitigation.study import MitigationStudy
    from repro.mitigation.traces import SYNTHETIC_SUITE
    from repro.params import preset

    study = MitigationStudy(preset(MACHINE), n_instructions=MITIGATION_INSTRUCTIONS, seed=seed)
    return {"study": study, "suite": SYNTHETIC_SUITE}


def _run_mitigation(state: dict[str, Any], _tracer: Any) -> PassResult:
    # ``run_suite`` is exactly this loop over ``run_workload``; running it
    # here times each trace and fails each on its own.
    out = PassResult(digests={}, events=0)
    for spec in state["suite"]:
        start = perf_counter()
        try:
            r = state["study"].run_workload(spec)
        except Exception:  # an operation failure is counted, not fatal
            out.digests[spec.name] = None
            continue
        finally:
            out.op_seconds[spec.name] = perf_counter() - start
            out.op_reference[spec.name] = reference.seconds()
        out.digests[r.name] = digest([r.ipc_no_prefetch, r.ipc_baseline, r.ipc_flushed])
        # Three simulations (prefetcher off, on, flushed) per trace.
        out.op_events[spec.name] = 3 * MITIGATION_INSTRUCTIONS
        out.events += out.op_events[spec.name]
    return out


SIM_WORKLOADS: dict[str, SimWorkload] = {
    w.name: w
    for w in (
        SimWorkload("probe-quiet", "loads", _prepare_probe, _run_probe),
        SimWorkload("campaign-hostile", "accesses", _prepare_campaign, _run_campaign),
        SimWorkload("mitigation-trace", "instructions", _prepare_mitigation, _run_mitigation),
    )
}


# --------------------------------------------------------------------- #
# serve-mixed store                                                      #
# --------------------------------------------------------------------- #


def serve_spec(seed: int) -> Any:
    return campaign_spec(
        SERVE_CAMPAIGN, SERVE_ATTACKS, None, seed, rounds=SERVE_ROUNDS, repeats=SERVE_REPEATS
    )


def serve_cli_overrides(seed: int) -> list[str]:
    """``afterimage serve`` flags that make its builtin campaign equal
    :func:`serve_spec`."""
    return [
        "--attacks", ",".join(SERVE_ATTACKS),
        "--rounds", str(SERVE_ROUNDS),
        "--repeats", str(SERVE_REPEATS),
        "--base-seed", str(seed),
    ]


def fill_serve_store(seed: int, store_dir: Path) -> None:
    """Cold-fill the served store (the serve workload's set-up step)."""
    from repro.campaign import CampaignRunner, TrialStore

    shutil.rmtree(store_dir, ignore_errors=True)
    result = CampaignRunner(TrialStore(store_dir), jobs=1).run(serve_spec(seed))
    if not result.complete:
        raise RuntimeError(f"serve store fill failed for {len(result.failed)} cells")


def load_expected_digests(path: Path) -> tuple[int, dict[str, dict[str, str]]]:
    """(recorded seed, workload -> operation -> digest)."""
    recorded = json.loads(path.read_text())
    return recorded["seed"], recorded["digests"]
