"""Observability benchmark: wall-clock and simulated-cycle totals per attack.

Runs every attack the :mod:`repro.attacks` registry knows — all eight,
including ``sgx`` and ``switch-leak``, which the old hand-wired table
missed — through one untraced machine each and writes ``BENCH_obs.json``,
the `make bench` artifact that lets sessions compare simulator throughput
over time.  A second artifact, ``BENCH_attacks.json``, times the same
suite through the :class:`~repro.attacks.executor.TrialExecutor` serially
and with ``--jobs N`` workers, recording both wall-clocks plus a check
that the merged per-attack success rates are identical — the executor's
determinism contract::

    python benchmarks/bench_obs.py --out BENCH_obs.json --rounds-scale 0.5
    python benchmarks/bench_obs.py --jobs 4   # records serial vs 4-worker

Wall-clock numbers come from the profiler's host-time column and are of
course machine-dependent (a single-CPU container shows no parallel
speedup); the simulated-cycle totals are deterministic for a given seed
and the real regression signal.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro.attacks import TrialExecutor, attack_names, build_matrix, get_attack, run_on_machine
from repro.bench import provenance
from repro.cpu.machine import Machine
from repro.params import preset

#: Bump when the JSON layout changes so downstream diffing can gate on it.
#: v3: provenance stamp + kind tag (`afterimage bench compare` gates on both).
SCHEMA_VERSION = 3


def bench(
    machine_name: str, seed: int, rounds_scale: float, attacks: Sequence[str]
) -> dict:
    """Run each attack once; returns the JSON-ready result document."""
    params = preset(machine_name)
    results = []
    for name in attacks:
        rounds = max(1, int(get_attack(name).default_rounds * rounds_scale))
        machine = Machine(params, seed=seed)
        batch = run_on_machine(name, machine, seed=seed, rounds=rounds)
        total = machine.profile["total"]
        results.append(
            {
                "attack": name,
                "rounds": rounds,
                "quality": batch.quality,
                "detail": batch.detail,
                "simulated_cycles": machine.cycles,
                "wall_seconds": round(total.wall_seconds, 4),
                "cycles_per_wall_second": (
                    round(machine.cycles / total.wall_seconds)
                    if total.wall_seconds > 0
                    else None
                ),
                "spans": machine.profile.as_dict(),
            }
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "obs",
        "provenance": provenance(),
        "machine": machine_name,
        "seed": seed,
        "rounds_scale": rounds_scale,
        "results": results,
    }


def bench_executor(
    machine_name: str,
    seed: int,
    rounds_scale: float,
    attacks: Sequence[str],
    jobs: int,
    repeats: int = 2,
) -> dict:
    """Time the suite through the executor, serial vs ``jobs`` workers."""
    params = preset(machine_name)
    from dataclasses import replace

    tasks = [
        replace(
            task,
            rounds=max(1, int(get_attack(task.attack).default_rounds * rounds_scale)),
        )
        for task in build_matrix(
            attacks, base_seed=seed, repeats=repeats, params=(params,)
        )
    ]
    serial = TrialExecutor(jobs=1).run(tasks)
    parallel = TrialExecutor(jobs=jobs).run(tasks)
    rates_match = all(
        serial.merged[name].quality == parallel.merged[name].quality
        and serial.merged[name].n_trials == parallel.merged[name].n_trials
        and serial.merged[name].simulated_cycles
        == parallel.merged[name].simulated_cycles
        for name in serial.merged
    )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "attacks",
        "provenance": provenance(),
        "machine": machine_name,
        "seed": seed,
        "rounds_scale": rounds_scale,
        "n_tasks": len(tasks),
        "repeats": repeats,
        "jobs": jobs,
        "serial_wall_seconds": round(serial.wall_seconds, 4),
        "parallel_wall_seconds": round(parallel.wall_seconds, 4),
        "speedup": (
            round(serial.wall_seconds / parallel.wall_seconds, 3)
            if parallel.wall_seconds > 0
            else None
        ),
        "aggregates_identical": rates_match,
        "per_attack": {
            name: {
                "quality": batch.quality,
                "n_trials": batch.n_trials,
                "simulated_cycles": batch.simulated_cycles,
                "detail": batch.detail,
            }
            for name, batch in serial.merged.items()
        },
    }


def main(argv: Sequence[str] | None = None) -> int:
    names = attack_names()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_obs.json")
    parser.add_argument("--attacks-out", default="BENCH_attacks.json")
    parser.add_argument("--machine", default="i7-9700")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--rounds-scale",
        type=float,
        default=1.0,
        help="multiply every attack's default round count (0.25 for a quick pass)",
    )
    parser.add_argument(
        "--attacks",
        nargs="*",
        default=list(names),
        choices=names,
        help="subset of attacks to run (default: all)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker count for the executor comparison in BENCH_attacks.json",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="matrix repeats per attack in the executor comparison",
    )
    args = parser.parse_args(argv)

    document = bench(args.machine, args.seed, args.rounds_scale, args.attacks)
    with open(args.out, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    for result in document["results"]:
        print(
            f"{result['attack']:16s} {result['rounds']:4d} rounds  "
            f"{result['simulated_cycles']:>13,} cycles  "
            f"{result['wall_seconds']:8.3f} s  quality {result['quality']:.2f}"
        )
    print(f"wrote {args.out}")

    executor_doc = bench_executor(
        args.machine,
        args.seed,
        args.rounds_scale,
        args.attacks,
        jobs=args.jobs,
        repeats=args.repeats,
    )
    with open(args.attacks_out, "w") as handle:
        json.dump(executor_doc, handle, indent=2)
        handle.write("\n")
    print(
        f"executor: {executor_doc['n_tasks']} tasks  "
        f"serial {executor_doc['serial_wall_seconds']:.2f}s  "
        f"jobs={executor_doc['jobs']} {executor_doc['parallel_wall_seconds']:.2f}s  "
        f"speedup {executor_doc['speedup']}x  "
        f"aggregates identical: {executor_doc['aggregates_identical']}"
    )
    print(f"wrote {args.attacks_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
