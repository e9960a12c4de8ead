"""Overhead and determinism guarantees of the observability layer.

Two contracts:

* **Disabled means free** — with the default :class:`NullTracer`, the hot
  path must not construct a single event object (structural test with
  raising event stubs) and a fixed covert run must stay within 5 % of the
  wall clock of a fully-traced run of the same workload (best of three
  interleaved pairs; tracing serializes thousands of events, so a
  disabled path that secretly pays the tracing cost shows up here).
* **Traced means deterministic** — two same-seed traced runs serialize to
  byte-identical JSONL.
"""

from time import perf_counter  # repro: noqa[RL003] — measuring the host is the point

import pytest

import repro.cpu.machine as machine_mod
import repro.obs.events as events_mod
import repro.prefetch.ip_stride as ip_stride_mod
from repro.attacks import run_on_machine
from repro.cpu.machine import Machine
from repro.obs.sinks import JsonlSink
from repro.obs.tracer import Tracer

ROUNDS = 12
SEED = 7


def _run_covert(seed, rounds, trace=None):
    """Run the covert attack; returns ``(machine, batch)``."""
    machine = Machine(seed=seed, trace=trace)
    return machine, run_on_machine("covert", machine, seed=seed, rounds=rounds)


def _covert_run(trace=None):
    return _run_covert(SEED, ROUNDS, trace=trace)


class _Exploding:
    """Event stand-in that detonates if the disabled path constructs it."""

    def __init__(self, *args, **kwargs):
        raise AssertionError("event constructed while tracing is disabled")


#: (module, attribute) of every event class a hook site instantiates.
_HOOK_EVENT_SITES = [
    (ip_stride_mod, "TableTransition"),
    (ip_stride_mod, "EntrySnapshot"),
    # The machine's load/flush/switch/prefetch hooks bind their events at
    # import time, so they are patched where ``repro.cpu.machine`` looks
    # them up.
    (machine_mod, "LoadTraced"),
    (machine_mod, "PrefetchIssued"),
    (machine_mod, "Clflush"),
    (machine_mod, "ContextSwitch"),
    # The hierarchy, the TLB, the profiler and the sanitizer import their
    # events lazily per call (after the ``tracer.enabled`` check), so
    # patching the defining module covers them.
    (events_mod, "LoadTraced"),
    (events_mod, "PrefetchIssued"),
    (events_mod, "Clflush"),
    (events_mod, "ContextSwitch"),
    (events_mod, "PrefetchFill"),
    (events_mod, "TlbMiss"),
    (events_mod, "SanitizerViolation"),
    (events_mod, "SpanBegin"),
    (events_mod, "SpanEnd"),
]


class TestDisabledPath:
    def test_no_event_constructed_when_disabled(self, monkeypatch):
        for module, name in _HOOK_EVENT_SITES:
            monkeypatch.setattr(module, name, _Exploding)
        _machine, batch = _covert_run(trace=None)  # NullTracer: must never touch a stub
        assert batch.quality > 0.5

    def test_null_tracer_overhead_under_five_percent(self, tmp_path):
        # Interleaved pairs of (NullTracer run, fully-traced JSONL run) on
        # the fixed covert workload.  The disabled path must, in its best
        # pair, stay within 5 % of the traced run — the traced arm pays
        # per-event construction plus JSONL serialization, so this fails
        # if the disabled path starts doing tracing work.  Best-of-3
        # pairwise ratios filter scheduler noise.
        _covert_run()  # warm caches/imports outside the measurement
        ratios = []
        for i in range(3):
            start = perf_counter()
            _covert_run()
            disabled = perf_counter() - start
            tracer = Tracer([JsonlSink(str(tmp_path / f"run{i}.jsonl"))])
            start = perf_counter()
            _covert_run(trace=tracer)
            traced = perf_counter() - start
            tracer.close()
            ratios.append(disabled / traced)
        assert min(ratios) <= 1.05, f"NullTracer run slower than traced run: {ratios}"


class TestDeterminism:
    def test_same_seed_traced_runs_byte_identical(self, tmp_path):
        paths = []
        for label in ("a", "b"):
            path = tmp_path / f"run_{label}.jsonl"
            tracer = Tracer([JsonlSink(str(path))])
            _covert_run(trace=tracer)
            tracer.close()
            paths.append(path)
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        assert first  # the runs actually traced something

    def test_different_seeds_diverge(self, tmp_path):
        streams = []
        for seed in (1, 2):
            path = tmp_path / f"seed_{seed}.jsonl"
            tracer = Tracer([JsonlSink(str(path))])
            _run_covert(seed, 6, trace=tracer)
            tracer.close()
            streams.append(path.read_bytes())
        assert streams[0] != streams[1]

    def test_simulated_cycles_identical_across_runs(self):
        assert _covert_run()[0].cycles == _covert_run()[0].cycles
