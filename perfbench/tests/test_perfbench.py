"""Tests of the benchmark itself: definitions, gate, tracing, command.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

The tracing tests use thinned sweeps of every workload, so they finish in
well under a minute while still crossing every wrapped layer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from gate import check_trials, load_reference  # noqa: E402
from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from probe import REFERENCE_PROBE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Thinned strides: a handful of trials per fault class and workload.
TEST_STRIDES = {"poisson30-serial": 25, "circuit400-bound-sharded": 95,
                "poisson100-serial": 100, "poisson30-batched": 12}


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_mirrors_the_definitions():
    spec = _benchmark_json()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == \
        {name: d[:3] for name, d in END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {name: (d["unit"], d["better"]) for name, d in PER_LAYER.items()}
    assert spec["paths"] == ["perfbench"]


def test_predictions_name_real_metrics_and_workloads():
    for name, definition in PER_LAYER.items():
        assert definition["moves"] in END_TO_END, name
        assert set(definition["on"]) <= set(WORKLOADS), name
        assert set(definition["no_change"]) <= set(WORKLOADS), name
        assert not set(definition["on"]) & set(definition["no_change"]), name


def test_seed_is_the_only_source_of_input_variation():
    for w in WORKLOADS.values():
        assert w.problem_spec(3) == w.problem_spec(3)
        assert w.campaign_spec(3) == w.campaign_spec(3)
        assert (w.problem_spec(3), w.campaign_spec(3)) != \
            (w.problem_spec(4), w.campaign_spec(4)), w.name
        assert w.campaign_spec(3)["exec"]["kernels"] == "numpy"
        assert "workers" in w.campaign_spec(3)["exec"]


def test_speed_probe_scales_by_the_two_probes_around_an_interval():
    speed = SpeedProbe()
    factor = speed.scale()
    before, after = speed.samples[-2:]
    assert factor == pytest.approx(REFERENCE_PROBE_S / ((before + after) / 2))
    speed.scale()
    assert len(speed.samples) == 3  # consecutive intervals share a probe


def test_speed_probe_does_not_run_the_program():
    # A change to the library must not move the probe, or the scaling
    # would cancel part of the change.
    code = ("import sys; import probe; probe.SpeedProbe().scale(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def _small_context(name: str, work_dir: str) -> run.Context:
    return run.Context(WORKLOADS[name], DEFAULT_SEED, work_dir,
                       stride=TEST_STRIDES[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_is_transparent_and_counts_repeat_exactly(name, work_dir):
    ctx = _small_context(name, work_dir)
    untraced = ctx.run()
    first, values, counts, _ = ctx.traced_run()
    second, _, counts_again, _ = ctx.traced_run()
    assert ctx.failed == 0, ctx.violations
    assert first.trials == untraced.trials
    assert second.trials == untraced.trials
    assert counts == counts_again
    assert set(values) | {n for n in PER_LAYER if n.startswith(("exec.", "trace."))} \
        == set(PER_LAYER)
    assert values["faults.injections"] == len(untraced.trials)
    assert values["store.appends"] == len(untraced.trials)
    if WORKLOADS[name].campaign.get("detector"):
        assert values["detectors.checks"] > 0
    else:
        assert values["detectors.checks"] == 0
    batched = WORKLOADS[name].execution["backend"] == "batched"
    assert (values["batched.lane_ratio"] > 0) == batched


def test_tracer_restores_every_wrapped_attribute():
    import importlib

    def current():
        out = []
        for _, owner, attr, *_ in Tracer.TARGETS:
            module_name, _, cls = owner.partition(":")
            holder = importlib.import_module(module_name)
            holder = getattr(holder, cls) if cls else holder
            out.append(holder.__dict__[attr])
        return out

    before = current()
    with Tracer():
        assert current() != before
    assert current() == before


def test_exact_counts_cover_every_count_metric():
    counts = {n for n, d in PER_LAYER.items()
              if d["unit"] == "count" and not n.startswith("exec.")}
    assert counts <= set(EXACT_COUNTS)


# --------------------------------------------------------------------- #
# correctness gate
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    ctx = run.Context(WORKLOADS["poisson30-serial"], DEFAULT_SEED,
                      str(tmp_path_factory.mktemp("gate")))
    result = ctx.run()
    assert ctx.failed == 0, ctx.violations
    return ctx, result


def _gate(ctx, trials, loaded=None, total=None):
    return check_trials(trials, total=len(trials) if total is None else total,
                        loaded=loaded, b_norm=ctx.b_norm,
                        outer_tol=ctx.outer_tol, reference=ctx.reference,
                        residual_rtol=ctx.workload.residual_rtol)[0]


def test_default_seed_matches_the_committed_reference(reference_run):
    ctx, result = reference_run
    assert len(ctx.reference["trials"]) == len(result.trials) == 63
    assert _gate(ctx, result.trials, loaded=result.loaded.trials) == 0


@pytest.mark.parametrize("change", [
    {"outer_iterations": 99},
    {"total_inner_iterations": 1},
    {"status": "error", "converged": False},
    {"faults_injected": 0},
    {"residual_norm": 1.0},
])
def test_gate_counts_a_changed_trial_as_failed(reference_run, change):
    ctx, result = reference_run
    trials = list(result.trials)
    trials[7] = dataclasses.replace(trials[7], **change)
    assert _gate(ctx, trials) == 1


def test_gate_counts_missing_and_unstored_trials(reference_run):
    ctx, result = reference_run
    trials = list(result.trials)
    assert _gate(ctx, trials[:-2], total=len(trials)) == 2
    stored = list(trials)
    stored[3] = dataclasses.replace(stored[3], outer_iterations=0)
    assert _gate(ctx, trials, loaded=stored) == 1


def test_gate_checks_outer_tol_without_a_reference(reference_run):
    ctx, result = reference_run
    trial = dataclasses.replace(result.trials[0],
                                residual_norm=2 * ctx.outer_tol * ctx.b_norm)
    failed, _, _ = check_trials([trial], total=1, b_norm=ctx.b_norm,
                                outer_tol=ctx.outer_tol)
    assert failed == 1


def test_batched_reference_is_the_serial_one():
    batched = WORKLOADS["poisson30-batched"]
    assert batched.reference_name == "poisson30-serial"
    serial = WORKLOADS["poisson30-serial"]
    ref = load_reference("poisson30-serial")
    assert ref["problem"] == batched.problem_spec(DEFAULT_SEED)
    same = [{k: v for k, v in w.campaign_spec(DEFAULT_SEED).items() if k != "exec"}
            for w in (batched, serial)]
    assert same[0] == same[1]


# --------------------------------------------------------------------- #
# the command
# --------------------------------------------------------------------- #
def _command(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_contract_line():
    done = _command(ROOT, "--workload", "poisson30-batched", "--seed", "5",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == set(END_TO_END)
    assert "fail_frac" in done.stdout


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _command(str(tmp_path), "--workload", "poisson30-serial", "--seed",
                    "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
