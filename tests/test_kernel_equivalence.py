"""Differential equivalence gate for the machine's load pipeline.

``Machine`` calls the TLB, the cache hierarchy, the prefetchers, the
timing model and the OS-noise paths directly, in a fixed order with a
fixed RNG draw order.  These tests pin that behaviour to *committed bytes*
produced before the pipeline was rewritten:

* two same-seed JSONL traces (variant1 + covert) must replay
  byte-identically;
* all eight registered attacks must reproduce their committed
  :meth:`TrialBatch.wall_clock_free_dict` aggregates exactly, with and
  without the runtime sanitizer (auditing must never change a result);
* the campaign smoke's content-addressed cell keys must not drift (a
  drift would turn every warm campaign store into a cold one).

Regenerate the fixtures (only when a behaviour change is *intended* and
reviewed) with::

    REPRO_GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_kernel_equivalence.py
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.attacks import run_trials
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SEED = 7

#: Small-but-representative round counts: every attack exercises its full
#: train/switch/probe pipeline at least once, and the whole differential
#: suite stays test-suite fast.
ROUNDS = {
    "variant1": 2,
    "variant1-thread": 2,
    "variant2": 2,
    "covert": 2,
    "sgx": 1,
    "switch-leak": 1,
    "rsa": 4,
    "tracker": 1,
}

#: Attacks whose full event streams are pinned byte-for-byte.
TRACED = ("variant1", "covert")

_REGEN = os.environ.get("REPRO_GOLDEN_REGEN") == "1"


def _trace_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}_seed{SEED}_rounds{ROUNDS[name]}.trace.jsonl"


def _run_traced(name: str, out_path: Path) -> None:
    sink = JsonlSink(str(out_path))
    try:
        run_trials(name, seed=SEED, rounds=ROUNDS[name], trace=Tracer([sink]))
    finally:
        sink.close()


def _aggregates(sanitize: bool | None) -> dict[str, dict]:
    return {
        name: run_trials(
            name, seed=SEED, rounds=rounds, sanitize=sanitize
        ).wall_clock_free_dict()
        for name, rounds in sorted(ROUNDS.items())
    }


def _campaign_cells() -> dict[str, str]:
    from repro.campaign import builtin_campaign

    spec = dataclasses.replace(
        builtin_campaign("attacks-vs-noise"),
        attacks=("variant1", "sgx"),
        rounds=3,
        repeats=1,
    )
    return {cell.label: cell.key for cell in spec.cells()}


@pytest.mark.parametrize("name", TRACED)
def test_trace_replays_byte_identically(name: str, tmp_path: Path) -> None:
    golden = _trace_path(name)
    if _REGEN:
        _run_traced(name, golden)
        pytest.skip(f"regenerated {golden.name}")
    fresh = tmp_path / golden.name
    _run_traced(name, fresh)
    assert fresh.read_bytes() == golden.read_bytes(), (
        f"{name}: same-seed trace diverged from the committed golden "
        f"({golden.name}); the kernel refactor changed observable behaviour"
    )


@pytest.mark.parametrize("sanitize", [None, True], ids=["default", "sanitized"])
def test_all_attacks_reproduce_golden_aggregates(sanitize: bool | None) -> None:
    golden = GOLDEN_DIR / f"aggregates_seed{SEED}.json"
    fresh = _aggregates(sanitize)
    if _REGEN and not sanitize:
        with open(golden, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, sort_keys=True, indent=1)
            handle.write("\n")
        pytest.skip(f"regenerated {golden.name}")
    committed = json.loads(golden.read_text())
    assert set(fresh) == set(committed)
    for name in sorted(fresh):
        assert fresh[name] == committed[name], (
            f"{name}: TrialBatch aggregate (sanitize={sanitize}) diverged "
            f"from the committed golden"
        )


def test_campaign_cell_keys_do_not_drift() -> None:
    golden = GOLDEN_DIR / "campaign_cells.json"
    fresh = _campaign_cells()
    if _REGEN:
        with open(golden, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, sort_keys=True, indent=1)
            handle.write("\n")
        pytest.skip(f"regenerated {golden.name}")
    committed = json.loads(golden.read_text())
    assert fresh == committed, (
        "campaign cell content hashes drifted: a warm campaign store would "
        "re-execute every cell after this change"
    )
