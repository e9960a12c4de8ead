"""Tests for the repro.attacks registry, trial schema, and executor.

The completeness contract: every registered attack runs end-to-end —
traced AND sanitized — and every consumer surface (CLI subcommands,
report rows, lint rule RL012's covers) stays in sync with the registry.
"""

import json

import pytest

from repro.attacks import (
    TaskError,
    TrialBatch,
    TrialExecutor,
    TrialTask,
    attack_names,
    build_matrix,
    get_attack,
    registered_covers,
    run_task_safe,
    run_trials,
    task_seed,
)
from repro.params import preset

PARAMS = preset("i7-9700")
SEED = 2023


class TestRegistry:
    def test_all_eight_attacks_registered(self):
        assert set(attack_names()) == {
            "variant1",
            "variant1-thread",
            "variant2",
            "covert",
            "sgx",
            "switch-leak",
            "rsa",
            "tracker",
        }

    def test_get_attack_unknown_name(self):
        with pytest.raises(ValueError, match="unknown attack"):
            get_attack("rowhammer")

    def test_specs_have_descriptions_and_rounds(self):
        for name in attack_names():
            spec = get_attack(name)
            assert spec.name == name
            assert spec.description
            assert spec.default_rounds > 0

    def test_covers_includes_every_core_attack_class(self):
        # Mirrors lint rule RL012: the classes defining attack entry-point
        # methods in repro/core must all be claimed by some spec.
        assert registered_covers() >= {
            "Variant1CrossThread",
            "Variant1CrossProcess",
            "Variant2UserKernel",
            "CovertChannel",
            "SGXControlFlowAttack",
            "SGXCovertChannel",
            "SwitchCaseLeak",
            "TimingConstantRSAAttack",
            "LoadTimingTracker",
        }

    def test_leakcheck_victim_links_resolve(self):
        from repro.leakcheck import get_victim

        for name in attack_names():
            victim = get_attack(name).leakcheck_victim
            if victim is not None:
                assert get_victim(victim) is not None


class TestCompleteness:
    """Every registered attack runs end-to-end, traced and sanitized."""

    @pytest.mark.parametrize("name", attack_names())
    def test_runs_traced_and_sanitized(self, name):
        batch = run_trials(
            name, PARAMS, seed=SEED, rounds=2, trace=True, sanitize=True
        )
        assert isinstance(batch, TrialBatch)
        assert batch.attack == name
        assert batch.n_trials >= 2
        assert 0.0 <= batch.quality <= 1.0
        assert batch.detail
        assert batch.simulated_cycles > 0
        assert "total" in batch.spans
        assert batch.metrics["machine.cycles"] > 0
        for trial in batch.trials:
            assert trial.success == (trial.true_outcome == trial.inferred_outcome)
        # The serializable view must actually serialize (payloads excluded).
        json.dumps(batch.as_dict())

    @pytest.mark.parametrize("name", attack_names())
    def test_same_seed_same_batch(self, name):
        a = run_trials(name, PARAMS, seed=SEED, rounds=2)
        b = run_trials(name, PARAMS, seed=SEED, rounds=2)
        assert [t.as_dict() for t in a.trials] == [t.as_dict() for t in b.trials]
        assert a.simulated_cycles == b.simulated_cycles
        assert a.quality == b.quality


class TestConsumerSync:
    def test_report_rows_match_registry(self):
        from repro.analysis.report import ATTACK_ROWS

        assert set(ATTACK_ROWS) == set(attack_names())

    def test_cli_trace_metrics_choices_match_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        for command in ("trace", "metrics", "run"):
            attack_action = next(
                a for a in sub.choices[command]._actions if a.dest == "attack"
            )
            assert set(attack_action.choices) == set(attack_names())


class TestTrialBatchMerge:
    def test_merge_recomputes_success_rate(self):
        a = run_trials("variant1", PARAMS, seed=1, rounds=3)
        b = run_trials("variant1", PARAMS, seed=2, rounds=3)
        merged = TrialBatch.merge([a, b])
        assert merged.n_trials == a.n_trials + b.n_trials
        assert merged.quality == merged.success_rate
        assert merged.simulated_cycles == a.simulated_cycles + b.simulated_cycles
        assert merged.spans["total"]["cycles"] == (
            a.spans["total"]["cycles"] + b.spans["total"]["cycles"]
        )
        assert merged.notes == {
            "merged_batches": 2,
            "merged_seeds": [1, 2],
            "merged_machines": ["i7-9700"],
        }

    def test_merge_refuses_mixed_attacks(self):
        a = run_trials("variant1", PARAMS, seed=1, rounds=2)
        b = run_trials("sgx", PARAMS, seed=1, rounds=2)
        with pytest.raises(ValueError, match="different attacks"):
            TrialBatch.merge([a, b])

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            TrialBatch.merge([])

    def test_merge_single_batch_passthrough(self):
        a = run_trials("sgx", PARAMS, seed=1, rounds=2)
        assert TrialBatch.merge([a]) is a


class TestExecutor:
    def test_task_seed_is_dispatch_order_independent(self):
        assert task_seed(SEED, "sgx", "i7-9700", 0) == task_seed(
            SEED, "sgx", "i7-9700", 0
        )
        assert task_seed(SEED, "sgx", "i7-9700", 0) != task_seed(
            SEED, "sgx", "i7-9700", 1
        )
        assert task_seed(SEED, "sgx", "i7-9700", 0) != task_seed(
            SEED, "covert", "i7-9700", 0
        )

    def test_build_matrix_shape(self):
        tasks = build_matrix(("sgx", "covert"), base_seed=SEED, repeats=3)
        assert len(tasks) == 6
        assert len({(t.attack, t.seed) for t in tasks}) == 6

    def test_parallel_aggregates_equal_serial(self):
        tasks = build_matrix(
            ("variant1", "sgx"), base_seed=SEED, repeats=2, rounds=2
        )
        serial = TrialExecutor(jobs=1).run(tasks)
        parallel = TrialExecutor(jobs=2).run(tasks)
        assert set(serial.merged) == set(parallel.merged) == {"variant1", "sgx"}
        for name in serial.merged:
            s, p = serial.merged[name], parallel.merged[name]
            assert s.quality == p.quality
            assert s.simulated_cycles == p.simulated_cycles
            assert [t.as_dict() for t in s.trials] == [t.as_dict() for t in p.trials]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            TrialExecutor(jobs=0)

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError):
            TrialExecutor(jobs=1).run([])


class TestTrialBatchRoundTrip:
    """Satellite contract: ``from_dict(as_dict())`` preserves every
    aggregate for all eight attacks; payloads are documented as lost."""

    @pytest.mark.parametrize("name", attack_names())
    def test_round_trip_preserves_aggregates(self, name):
        batch = run_trials(name, PARAMS, seed=SEED, rounds=2)
        # The store's actual path: dict → JSON → dict → batch → dict.
        over_the_wire = json.loads(json.dumps(batch.as_dict()))
        restored = TrialBatch.from_dict(over_the_wire)
        assert restored.attack == batch.attack
        assert restored.seed == batch.seed
        assert restored.machine == batch.machine
        assert restored.n_trials == batch.n_trials
        assert restored.successes == batch.successes
        assert restored.success_rate == batch.success_rate
        assert restored.quality == batch.quality
        assert restored.detail == batch.detail
        assert restored.simulated_cycles == batch.simulated_cycles
        assert json.loads(json.dumps(restored.as_dict())) == over_the_wire
        # The one deliberate loss: per-trial rich result objects.
        assert all(trial.payload is None for trial in restored.trials)

    def test_merged_batch_round_trips(self):
        merged = TrialBatch.merge(
            [
                run_trials("variant1", PARAMS, seed=1, rounds=2),
                run_trials("variant1", PARAMS, seed=2, rounds=2),
            ]
        )
        restored = TrialBatch.from_dict(json.loads(json.dumps(merged.as_dict())))
        assert restored.notes["merged_seeds"] == [1, 2]
        assert restored.quality == merged.quality


class TestExecutorFaultIsolation:
    """Satellite contract: one raising worker no longer aborts ``pool.map``
    and discards every completed batch — it comes back as a TaskError."""

    def bad_task(self) -> TrialTask:
        # An unknown attack name makes run_task raise inside the worker.
        return TrialTask(attack="rowhammer", params=PARAMS, seed=SEED, rounds=2)

    def test_run_task_safe_returns_error_value(self):
        outcome = run_task_safe(self.bad_task())
        assert isinstance(outcome, TaskError)
        assert outcome.task.attack == "rowhammer"
        assert "unknown attack" in outcome.summary
        json.dumps(outcome.as_dict())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_good_cells_survive_a_failing_cell(self, jobs):
        tasks = build_matrix(("sgx",), base_seed=SEED, repeats=2, rounds=2)
        tasks.append(self.bad_task())
        result = TrialExecutor(jobs=jobs).run(tasks)
        assert len(result.batches) == 2
        assert len(result.errors) == 1
        assert result.errors[0].task.attack == "rowhammer"
        assert set(result.merged) == {"sgx"}
        assert result.as_dict()["errors"][0]["attack"] == "rowhammer"

    def test_failing_cell_does_not_change_sibling_aggregates(self):
        tasks = build_matrix(("sgx",), base_seed=SEED, repeats=2, rounds=2)
        clean = TrialExecutor(jobs=1).run(list(tasks))
        dirty = TrialExecutor(jobs=1).run(list(tasks) + [self.bad_task()])

        def deterministic(batch):  # host wall-clock varies run to run
            data = batch.as_dict()
            data["spans"] = {
                name: {k: v for k, v in stats.items() if k != "wall_seconds"}
                for name, stats in data["spans"].items()
            }
            return data

        assert deterministic(clean.merged["sgx"]) == deterministic(dirty.merged["sgx"])
