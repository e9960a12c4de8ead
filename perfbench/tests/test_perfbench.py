"""Tests of the benchmark itself: tracing arithmetic, wrapper hygiene,
failure accounting and open-loop timing.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import time

import pytest

from perfbench import loadgen, reference, run, serve, workloads
from perfbench.tracing import TOP, LayerTracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    # outer [0, 10] holds inner [1, 3] and leaf [4, 5]; inner holds leaf [1.5, 2].
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    with tracer.span("outer", label="x"):
        clock.now = 1.0
        with tracer.span("inner"):
            clock.now = 1.5
            with tracer.span("leaf"):
                clock.now = 2.0
            clock.now = 3.0
        clock.now = 4.0
        with tracer.span("leaf"):
            clock.now = 5.0
        clock.now = 10.0

    assert tracer.aggregates[("outer", TOP)] == [1, 10.0, 7.0]
    assert tracer.aggregates[("inner", "outer")] == [1, 2.0, 1.5]
    assert tracer.aggregates[("leaf", "inner")] == [1, 0.5, 0.5]
    assert tracer.aggregates[("leaf", "outer")] == [1, 1.0, 1.0]
    assert tracer.layer("leaf") == (2, 1.5, 1.5)
    # Self times partition the root's duration.
    assert sum(s for _n, _t, s in tracer.aggregates.values()) == pytest.approx(10.0)
    outer, inner, inner_leaf, outer_leaf = tracer.spans
    assert (outer["start"], outer["end"], outer["parent"], outer["args"]) == (0.0, 10.0, None, {"label": "x"})
    assert (inner["parent"], inner_leaf["parent"], outer_leaf["parent"]) == (0, 1, 0)


def test_timed_wrapper_records_a_frame_and_runs_hooks():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    seen = []

    def work(x):
        clock.now += 2.0
        return x * 2

    timed = tracer.timed(
        work, "work", before=lambda args: clock.now, after=lambda r, args, t0: seen.append((r, args, t0))
    )
    with tracer.span("op"):
        assert timed(21) == 42
    assert seen == [(42, (21,), 0.0)]
    assert tracer.aggregates[("work", "op")] == [1, 2.0, 2.0]
    assert tracer.aggregates[("op", TOP)] == [1, 2.0, 0.0]


def test_simulator_wrappers_are_removed_and_change_no_result():
    from repro.cpu.machine import Machine
    from repro.memsys.hierarchy import CacheHierarchy
    from repro.params import COFFEE_LAKE_I7_9700
    from perfbench.layers import install_simulator

    import repro.attacks.registry as registry
    import repro.campaign.runner as campaign_runner

    owners = (Machine, CacheHierarchy, registry, campaign_runner)
    before = {owner: dict(vars(owner)) for owner in owners}

    def latencies() -> list[int]:
        machine = Machine(COFFEE_LAKE_I7_9700, seed=7)
        ctx = machine.new_thread("t")
        machine.context_switch(ctx)
        buf = machine.new_buffer(ctx.space, 4 * 4096)
        machine.warm_buffer_tlb(ctx, buf)
        return [machine.load(ctx, 0x401000, buf.page_line_addr(i % 4, 3 * i % 64)) for i in range(64)]

    plain = latencies()
    tracer = LayerTracer()
    install_simulator(tracer)
    try:
        assert vars(Machine)["load"] is not before[Machine]["load"]
        traced = latencies()
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.layer("cpu.load")[0] == 64
    for owner in owners:
        assert dict(vars(owner)) == before[owner], owner


def test_check_digests_counts_mismatches_and_missing_operations():
    expected = {"a": "1", "b": "2"}
    assert run.check_digests([{"a": "1", "b": "2"}], expected) == (2, 0, [])
    attempted, failed, problems = run.check_digests([{"a": "1", "b": "9"}, {"a": None}], expected)
    assert (attempted, failed) == (4, 3)
    assert len(problems) == 3
    # Without an expected digest every pass must match the first.
    assert run.check_digests([{"a": "1"}, {"a": "2"}], None)[:2] == (2, 1)


def test_op_medians_include_the_remainder_of_each_pass():
    unit = reference.REFERENCE_S

    def result(**ops):
        return workloads.PassResult(
            digests={}, events=100, op_seconds=ops, op_reference={label: unit for label in ops}
        )

    # Each pass also spends two reference runs outside its operations.
    refs = 2 * unit
    passes = [(10.0 + refs, result(a=4.0, b=5.0)), (9.0 + refs, result(a=6.0, b=2.0)),
              (12.0 + refs, result(a=3.0, b=8.0))]
    # a: 4.0, b: 5.0, remainder outside the operations and their reference
    # runs: median(1.0, 1.0, 1.0).
    assert run.op_median_seconds(passes) == pytest.approx({"a": 4.0, "b": 5.0, run.REST: 1.0})


def test_op_times_are_scaled_by_the_reference_run_after_them():
    unit = reference.REFERENCE_S
    # The host ran the reference at half speed after "a": a's 6 s are 3 s
    # at the reference host's speed.  The remainder is scaled by the
    # pass's median reference run.
    ops = workloads.PassResult(
        digests={}, events=100, op_seconds={"a": 6.0, "b": 2.0}, op_reference={"a": 2 * unit, "b": unit}
    )
    rest = 1.0
    medians = run.op_median_seconds([(8.0 + 3 * unit + rest, ops)])
    assert medians == pytest.approx({"a": 3.0, "b": 2.0, run.REST: rest / 1.5})
    assert reference.scaled_rate(100.0, 2 * unit) == pytest.approx(200.0)


def test_op_latency_is_the_geometric_mean_of_median_times_per_event():
    def result(**ops):
        return workloads.PassResult(
            digests={}, events=100, op_seconds=ops,
            op_reference={label: reference.REFERENCE_S for label in ops},
        )

    passes = [(20.0, result(a=4.0, b=5.0, c=9.0)), (19.0, result(a=6.0, b=2.0, c=7.0))]
    events = {"a": 10, "b": 7, "c": 16}
    # Medians: a 5.0, b 3.5, c 8.0, over their events; the remainder
    # outside the operations is not one.
    latency = run.op_latency_seconds(run.op_median_seconds(passes), events)
    assert latency == pytest.approx((0.5 * 0.5 * 0.5) ** (1 / 3))
    # An operation with no events (one that raised) is left out.
    assert run.op_latency_seconds({"a": 5.0, "b": 3.0}, {"a": 10}) == pytest.approx(0.5)


def test_mix_latency_weighs_every_kind_equally():
    p50s = {kind: 0.001 for kind, _w in serve.MIX}
    assert serve.mix_latency(p50s) == pytest.approx(0.001)
    # Doubling any one kind moves the result by the same factor, whatever its share.
    for kind, _w in serve.MIX:
        slower = dict(p50s, **{kind: 0.002})
        assert serve.mix_latency(slower) == pytest.approx(0.001 * 2 ** (1 / len(serve.MIX)))
    with pytest.raises(ValueError):
        serve.mix_latency({})


def test_recorded_digests_apply_to_the_recorded_seed_only(tmp_path, monkeypatch):
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"seed": 1, "digests": {"fake": {"op": "x"}}}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    assert run.expected_digests("fake", 1) == {"op": "x"}
    assert run.expected_digests("fake", 3) is None
    with pytest.raises(SystemExit):
        run.main(["--workload", "probe-quiet", "--record-digests", "--seed", "3"])


def test_wrong_expected_digest_is_a_failure_not_a_crash(tmp_path, monkeypatch):
    def run_pass(_state, _tracer):
        return workloads.PassResult(digests={"op": "actual"}, events=10)

    fake = workloads.SimWorkload("fake", "events", lambda seed, work: {}, run_pass)
    monkeypatch.setitem(workloads.SIM_WORKLOADS, "fake", fake)
    monkeypatch.setattr(run, "run_setup_child", lambda *_a: 0.25)
    monkeypatch.setattr(reference, "seconds", lambda: reference.REFERENCE_S)
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps({"seed": 1, "digests": {"fake": {"op": "wrong"}}}))
    monkeypatch.setattr(run, "DIGESTS", digests)
    monkeypatch.setattr(run, "WORK", tmp_path)

    result = run.run_sim("fake", workloads.DEFAULT_SEED, 0.0, trace=False)
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 1
    assert result["metrics"]["setup_s"]["value"] == 0.25

    # Another seed is checked against its own first pass, which agrees.
    assert run.run_sim("fake", 2, 0.0, trace=False)["correct"] is True


def test_latency_is_timed_from_the_due_time_when_the_server_stalls():
    def execute(index: int) -> None:
        if index == 0:
            time.sleep(0.3)  # the server stalls on the first request

    samples = loadgen.run_open_loop(list(range(5)), rate=100.0, execute=execute, workers=1)
    assert [s.ok for s in samples] == [True] * 5
    stalled, queued = samples[0], samples[1]
    assert stalled.latency >= 0.3
    # Request 1 was due 10 ms in but could only go out after the stall:
    # its own service is instant, yet its latency carries the wait.
    assert queued.done - queued.sent < 0.05
    assert queued.lag >= 0.25
    assert queued.latency >= 0.25


def test_open_loop_counts_exceptions_and_caps_in_flight():
    in_flight, peak = [0], [0]
    import threading

    lock = threading.Lock()

    def execute(index: int) -> None:
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        time.sleep(0.02)
        with lock:
            in_flight[0] -= 1
        if index == 3:
            raise RuntimeError("bad body")

    samples = loadgen.run_open_loop(list(range(12)), rate=1000.0, execute=execute, workers=2)
    assert peak[0] <= 2
    assert [s.ok for s in samples].count(False) == 1
    assert "bad body" in samples[3].error


def test_step_holds_only_within_the_limit_and_without_backlog():
    samples = [loadgen.Sample("cell", due=i / 100, sent=i / 100, done=i / 100 + 0.01, ok=True) for i in range(100)]
    step = loadgen.step_result(100.0, samples)
    assert step.holds(0.05) and not step.holds(0.005)
    backlog = [loadgen.Sample("cell", i / 100, i / 100 + i / 500, i / 100 + i / 500 + 0.01, True) for i in range(100)]
    assert not loadgen.step_result(100.0, backlog).holds(0.05)
    assert loadgen.completion_rate(samples) == pytest.approx(100 / 1.0)


def test_histogram_median_interpolates_inside_its_bucket():
    before = {"le:100": 5, "le:250": 0, "gt:250": 0, "total": 5}
    after = {"le:100": 5, "le:250": 10, "gt:250": 0, "total": 15}
    # Ten new samples, all in (100, 250]: the median sits half-way.
    assert serve.histogram_p50(before, after) == pytest.approx(175.0)
