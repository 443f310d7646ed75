"""The sharded supervisor, its chaos harness, and the shard store layout.

The acceptance bar: a sharded campaign whose workers are murdered mid-run
by :class:`~repro.faults.chaos.ChaosPolicy` completes via supervisor
restarts with zero lost and zero duplicated trials, its merged result
trial-identical to an undisturbed serial reference; a poison trial is
quarantined as an error record after ``max_retries`` without wedging its
shard.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_campaign
from repro.exec.executor import BackendKnobError, CampaignExecutor
from repro.exec.spec import TrialSpec
from repro.exec.supervisor import (
    DEFAULT_MAX_RETRIES,
    ShardedSupervisor,
    SupervisorDrained,
    partition_shards,
    read_heartbeat,
    write_heartbeat,
)
from repro.faults.campaign import FaultCampaign, TrialRecord
from repro.faults.chaos import ChaosError, ChaosPolicy
from repro.gallery.problems import poisson_problem
from repro.results.store import (
    RunManifest,
    RunStore,
    RunStoreError,
    read_trial_file,
    shard_dir_name,
)
from repro.specs import CampaignSpec, ExecutionSpec, SpecError

# A tiny campaign: 3 fault classes x 7 locations = 21 trials, ~1 s serial.
BASE = dict(problem="poisson:8", inner_iterations=10, max_outer=30, stride=6)


def spec_with(**exec_knobs) -> dict:
    return dict(BASE, exec=exec_knobs)


@pytest.fixture(scope="module")
def serial_reference():
    """The undisturbed serial run every chaos result must equal."""
    return run_campaign(spec=spec_with(backend="serial"))


# ---------------------------------------------------------------------- #
# shard partitioning (hypothesis)
# ---------------------------------------------------------------------- #
def _specs(n: int) -> list[TrialSpec]:
    return [TrialSpec(index=i, fault_class="none", aggregate_inner_iteration=i)
            for i in range(n)]


class TestPartitionShards:
    @given(n=st.integers(min_value=0, max_value=200),
           shards=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200, deadline=None)
    def test_disjoint_covering_ordered(self, n, shards):
        specs = _specs(n)
        blocks = partition_shards(specs, shards)
        assert len(blocks) == shards
        flat = [spec for block in blocks for spec in block]
        assert flat == specs  # covering, disjoint, order-preserving

    @given(n=st.integers(min_value=1, max_value=200),
           shards=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200, deadline=None)
    def test_balanced(self, n, shards):
        sizes = [len(block) for block in partition_shards(_specs(n), shards)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n

    @given(n=st.integers(min_value=1, max_value=100),
           shards=st.integers(min_value=1, max_value=8),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_stable_under_resume(self, n, shards, data):
        """Re-partitioning any casualty subset is deterministic."""
        specs = _specs(n)
        keep = data.draw(st.sets(st.integers(0, n - 1)))
        remaining = [s for s in specs if s.index in keep]
        once = partition_shards(remaining, shards)
        again = partition_shards(list(remaining), shards)
        assert once == again

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards must be positive"):
            partition_shards(_specs(3), 0)


# ---------------------------------------------------------------------- #
# heartbeats
# ---------------------------------------------------------------------- #
class TestHeartbeats:
    def test_round_trip_and_tolerant_read(self, tmp_path):
        path = str(tmp_path / "heartbeat.json")
        assert read_heartbeat(path) is None
        write_heartbeat(path, {"pid": 1, "current_index": 7})
        assert read_heartbeat(path)["current_index"] == 7
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        assert read_heartbeat(path) is None  # unreadable, never raises


# ---------------------------------------------------------------------- #
# chaos kill-points: merged result must be trial-identical to serial
# ---------------------------------------------------------------------- #
FIRST, MID, LAST = 0, 10, 20  # trial indices in the 21-trial campaign

CHAOS_CASES = {
    "sigkill-first-trial": ChaosPolicy(kill_before={FIRST: 1}),
    "sigkill-mid-shard": ChaosPolicy(kill_before={MID: 1}),
    "sigkill-last-trial": ChaosPolicy(kill_before={LAST: 1}),
    "sigkill-during-append": ChaosPolicy(kill_during_append={MID: 1}),
    "sigkill-after-append": ChaosPolicy(kill_after_append={MID: 1}),
    "raise-mid-shard": ChaosPolicy(raise_before={MID: 1}),
    "two-shards-hit": ChaosPolicy(kill_before={FIRST: 1, LAST: 1},
                                  kill_after_append={MID: 1}),
}


class TestChaosKillPoints:
    @pytest.mark.parametrize("case", sorted(CHAOS_CASES))
    def test_merged_result_is_trial_identical(self, case, serial_reference,
                                              tmp_path):
        store = RunStore(tmp_path)
        result = run_campaign(spec=spec_with(shards=2), store=store,
                              run_id="chaos", chaos=CHAOS_CASES[case])
        assert result.trials == serial_reference.trials  # zero lost, zero dup
        assert [t.status for t in result.trials] == \
            [t.status for t in serial_reference.trials]
        assert [t.outer_iterations for t in result.trials] == \
            [t.outer_iterations for t in serial_reference.trials]
        # the run completed: shards were compacted into the flat layout
        assert store.shard_ids("chaos") == []
        assert store.manifest("chaos").status == "complete"
        loaded = store.load_result("chaos")
        assert loaded.trials == serial_reference.trials

    def test_kill_before_counts_a_retry(self, serial_reference, tmp_path):
        result = run_campaign(spec=spec_with(shards=2),
                              store=RunStore(tmp_path), run_id="r",
                              chaos=ChaosPolicy(kill_before={MID: 1}))
        assert result.trials == serial_reference.trials
        assert result.query().retry_count() == 1
        (retried,) = [t for t in result.trials if t.retries]
        assert retried.status != "error"  # the retry healed it

    def test_kill_after_durable_append_never_duplicates(self, serial_reference,
                                                        tmp_path):
        """A kill after the append landed blames nobody and re-runs nothing."""
        result = run_campaign(spec=spec_with(shards=2),
                              store=RunStore(tmp_path), run_id="r",
                              chaos=ChaosPolicy(kill_after_append={MID: 1}))
        assert result.trials == serial_reference.trials
        assert result.query().retry_count() == 0

    def test_storeless_sharded_campaign(self, serial_reference):
        """Without a store the shard files live in an ephemeral temp dir."""
        result = run_campaign(spec=spec_with(shards=2),
                              chaos=ChaosPolicy(kill_before={MID: 1}))
        assert result.trials == serial_reference.trials


# ---------------------------------------------------------------------- #
# quarantine
# ---------------------------------------------------------------------- #
class TestQuarantine:
    def test_poison_trial_quarantined_without_wedging_shard(
            self, serial_reference, tmp_path):
        store = RunStore(tmp_path)
        # kill trial MID's worker more times than max_retries allows
        result = run_campaign(spec=spec_with(shards=2, max_retries=2),
                              store=store, run_id="p",
                              chaos=ChaosPolicy(kill_before={MID: 5}))
        poison = [t for t in result.trials if t.status == "error"]
        assert len(poison) == 1
        assert poison[0].error.startswith("poison")
        assert poison[0].retries == 2
        # every OTHER trial in the poisoned shard still completed
        healthy = [t for t in result.trials if t.status != "error"]
        assert len(healthy) == len(serial_reference.trials) - 1
        # bookkeeping surfaced in the summary and the manifest
        totals = result.summary()
        assert sum(row["quarantined"] for row in totals.values()) == 1
        assert sum(row["errors"] for row in totals.values()) == 1
        supervisor = store.manifest("p").extra["supervisor"]
        assert supervisor["quarantined"] == [MID]
        assert supervisor["retries"] == {str(MID): 2}

    def test_chaos_free_resume_heals_the_poison_trial(self, serial_reference,
                                                      tmp_path):
        store = RunStore(tmp_path)
        run_campaign(spec=spec_with(shards=2, max_retries=2), store=store,
                     run_id="p", chaos=ChaosPolicy(kill_before={MID: 5}))
        healed = run_campaign(spec=spec_with(shards=2, max_retries=2),
                              store=store, run_id="p", resume=True)
        assert healed.trials == serial_reference.trials
        assert store.shard_ids("p") == []  # compacted after completion

    def test_default_max_retries(self):
        campaign = FaultCampaign(poisson_problem(8), inner_iterations=10,
                                 max_outer=30)
        supervisor = ShardedSupervisor(campaign, shards=2)
        assert supervisor.max_retries == DEFAULT_MAX_RETRIES


# ---------------------------------------------------------------------- #
# hard timeouts
# ---------------------------------------------------------------------- #
class TestHardTimeout:
    def test_sharded_backend_kills_stuck_worker(self, serial_reference,
                                                tmp_path):
        store = RunStore(tmp_path)
        result = run_campaign(
            spec=spec_with(shards=2, trial_timeout=0.5), store=store,
            run_id="h", chaos=ChaosPolicy(hang_before={MID: 60.0}))
        (timed_out,) = [t for t in result.trials if t.status == "error"]
        assert timed_out.error.startswith("hard timeout")
        assert len(result.trials) == len(serial_reference.trials)
        # resume (the hang is one-shot chaos) heals the casualty
        healed = run_campaign(spec=spec_with(shards=2, trial_timeout=0.5),
                              store=store, run_id="h", resume=True)
        assert healed.trials == serial_reference.trials

    def test_workers_auto_backend_hard_enforces_trial_timeout(
            self, serial_reference):
        """workers > 1 without a backend selects the supervisor, which
        hard-enforces trial_timeout."""
        result = run_campaign(
            spec=spec_with(workers=2, trial_timeout=0.5),
            chaos=ChaosPolicy(hang_before={MID: 60.0}))
        (timed_out,) = [t for t in result.trials if t.status == "error"]
        assert timed_out.error.startswith("hard timeout")
        healthy = [t for t in result.trials if t.status != "error"]
        assert len(healthy) == len(serial_reference.trials) - 1

    def test_serial_backend_keeps_the_soft_check(self):
        result = run_campaign(spec=spec_with(backend="serial",
                                             trial_timeout=1e-9))
        assert all(t.status == "error" for t in result.trials)
        assert all(t.error.startswith("soft timeout") for t in result.trials)


# ---------------------------------------------------------------------- #
# drain
# ---------------------------------------------------------------------- #
class TestDrain:
    def test_programmatic_drain_checkpoints_every_shard(self, tmp_path):
        campaign = FaultCampaign(poisson_problem(8), inner_iterations=10,
                                 max_outer=30)
        plan = campaign.plan(stride=6)
        supervisor = ShardedSupervisor(campaign, shards=2,
                                       run_dir=str(tmp_path))
        yielded = []
        with pytest.raises(SupervisorDrained):
            for index, _ in supervisor.iter_records(plan.specs):
                yielded.append(index)
                if len(yielded) == 4:
                    supervisor.request_drain()
        assert 4 <= len(yielded) < len(plan.specs)
        durable = []
        for shard in (0, 1):
            path = os.path.join(str(tmp_path), shard_dir_name(shard),
                                "trials.jsonl")
            pairs, _, torn = read_trial_file(path)
            assert not torn  # drain healed any partial tail
            durable.extend(index for index, _ in pairs)
        # exactly the yielded records are durable: nothing lost, nothing extra
        assert sorted(durable) == sorted(yielded)

    def test_sigterm_drains_and_resume_reruns_only_casualties(self, tmp_path):
        """SIGTERM mid-campaign = graceful checkpoint + exit; resume finishes."""
        script = """
import os, signal, sys
from repro.api import run_campaign
store_dir = sys.argv[1]
spec = {"problem": "poisson:8", "inner_iterations": 10, "max_outer": 30,
        "stride": 2, "exec": {"shards": 2}}

def progress(done, total):
    if done == 5:  # mid-campaign: ask for a graceful drain
        os.kill(os.getpid(), signal.SIGTERM)

run_campaign(spec=spec, store=store_dir, run_id="drain", progress=progress)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, timeout=120, capture_output=True)
        assert proc.returncode == -signal.SIGTERM  # re-delivered after drain
        store = RunStore(tmp_path)
        assert store.manifest("drain").status == "running"
        checkpointed = len(store.completed_indices("drain"))
        assert checkpointed > 0  # something durable survived the SIGTERM
        serial = run_campaign(spec=dict(BASE, stride=2,
                                        exec={"backend": "serial"}))
        assert checkpointed < len(serial.trials)  # ... but not everything
        resumed = run_campaign(spec=dict(BASE, stride=2,
                                         exec={"shards": 2}),
                               store=store, run_id="drain", resume=True)
        assert resumed.trials == serial.trials
        assert store.manifest("drain").status == "complete"


# ---------------------------------------------------------------------- #
# the shard store layout
# ---------------------------------------------------------------------- #
def _record(index: int, *, status: str = "converged",
            spec_hash: str | None = "hash", error: str | None = None,
            retries: int = 0) -> TrialRecord:
    return TrialRecord(
        fault_class="none", fault_description="none",
        aggregate_inner_iteration=index, mgs_position="inner",
        outer_iterations=-1 if status == "error" else 3,
        total_inner_iterations=-1 if status == "error" else 30,
        converged=status != "error", status=status,
        residual_norm=float("nan") if status == "error" else 1e-11,
        faults_injected=1, faults_detected=0, detector_enabled=False,
        error=error, spec_hash=spec_hash, retries=retries)


def _manifest(run_id: str, total: int) -> RunManifest:
    return RunManifest(
        run_id=run_id, spec={}, spec_hash="hash", problem_name="p",
        repro_version="0", seed=None, mgs_position="inner",
        inner_iterations=10, detector_enabled=False, failure_free_outer=3,
        failure_free_residual=1e-11, locations=list(range(total)),
        fault_classes=["none"], total_trials=total)


def _write_shard(store: RunStore, run_id: str, shard: int, rows: list,
                 torn_tail: bytes = b"") -> str:
    shard_dir = store.shard_path(run_id, shard)
    os.makedirs(shard_dir, exist_ok=True)
    path = os.path.join(shard_dir, "trials.jsonl")
    with open(path, "ab") as handle:
        for index, record in rows:
            handle.write((json.dumps({"index": index, **record.to_dict()})
                          + "\n").encode("utf-8"))
        handle.write(torn_tail)
    return path


class TestShardStore:
    def test_read_trials_merges_shards(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 4))
        _write_shard(store, "m", 0, [(0, _record(0)), (1, _record(1))])
        _write_shard(store, "m", 1, [(2, _record(2)), (3, _record(3))])
        pairs, torn = store.read_trials("m")
        assert [index for index, _ in pairs] == [0, 1, 2, 3]
        assert not torn
        assert store.completed_indices("m") == {0, 1, 2, 3}

    def test_recover_truncates_torn_tails_per_shard(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 4))
        clean = _write_shard(store, "m", 0, [(0, _record(0))])
        torn = _write_shard(store, "m", 1, [(1, _record(1))],
                            torn_tail=b'{"index": 2, "half')
        clean_size = os.path.getsize(clean)
        pairs = store.recover("m")
        assert [index for index, _ in pairs] == [0, 1]
        assert os.path.getsize(clean) == clean_size  # untouched
        reread, _, still_torn = read_trial_file(torn)
        assert not still_torn and len(reread) == 1  # healed

    def test_merge_shards_compacts_and_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 3))
        _write_shard(store, "m", 0,
                     [(1, _record(1, status="error", error="crash")),
                      (0, _record(0))])
        _write_shard(store, "m", 1, [(2, _record(2)), (1, _record(1))])
        assert store.merge_shards("m") == 2
        assert store.shard_ids("m") == []
        pairs, torn = store.read_trials("m")
        # flat layout, canonical index order, error superseded
        assert [index for index, _ in pairs] == [0, 1, 2]
        assert all(record.status != "error" for _, record in pairs)
        assert store.merge_shards("m") == 0  # idempotent no-op

    def test_merge_shards_refuses_foreign_records(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 1))
        _write_shard(store, "m", 0, [(0, _record(0, spec_hash="other"))])
        with pytest.raises(RunStoreError, match="different campaign"):
            store.merge_shards("m")

    def test_error_then_success_supersedes_in_either_order(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 1))
        # the SUCCESS lands in a lower-numbered shard than the stale error
        # (a resume re-partitions casualties): success is read FIRST
        _write_shard(store, "m", 0, [(0, _record(0))])
        _write_shard(store, "m", 3,
                     [(0, _record(0, status="error", error="crash"))])
        assert store.completed_indices("m") == {0}
        store.merge_shards("m")
        pairs, _ = store.read_trials("m")
        assert len(pairs) == 1 and pairs[0][1].status != "error"

    def test_duplicate_successes_still_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 1))
        _write_shard(store, "m", 0, [(0, _record(0))])
        _write_shard(store, "m", 1, [(0, _record(0))])
        with pytest.raises(RunStoreError, match="duplicate trial index"):
            store.completed_indices("m")


# ---------------------------------------------------------------------- #
# chaos policy mechanics
# ---------------------------------------------------------------------- #
class TestChaosPolicy:
    def test_firings_are_one_shot_across_restarts(self, tmp_path):
        chaos = ChaosPolicy(raise_before={3: 2}).bound_to(str(tmp_path))
        fired = 0
        for _ in range(5):  # five "worker lifetimes"
            try:
                chaos.on_trial_start(3)
            except ChaosError:
                fired += 1
        assert fired == 2  # times=2 means exactly two firings, ever

    def test_unbound_policy_refuses_to_fire(self):
        with pytest.raises(RuntimeError, match="unbound"):
            ChaosPolicy(kill_before={0: 1}).on_trial_start(0)

    def test_schedules_validate(self):
        with pytest.raises(ValueError, match="times must be >= 1"):
            ChaosPolicy(kill_before={0: 0})
        with pytest.raises(ValueError, match="heartbeat_delay"):
            ChaosPolicy(heartbeat_delay=-1.0)


# ---------------------------------------------------------------------- #
# reliability surfaced in analysis
# ---------------------------------------------------------------------- #
class TestQueryReliability:
    def test_errors_and_retry_count(self):
        from repro.results.query import TrialQuery

        records = [_record(0), _record(1, status="error", error="crash",
                                       retries=2),
                   _record(2, status="error", error="poison: dead"),
                   _record(3, retries=1)]
        q = TrialQuery(records)
        assert len(q.errors()) == 2
        assert q.retry_count() == 3
        assert q.errors().count(
            lambda t: (t.error or "").startswith("poison")) == 1


# ---------------------------------------------------------------------- #
# plumbing: spec, knob validation, registry, CLI
# ---------------------------------------------------------------------- #
class TestPlumbing:
    def test_execution_spec_round_trip(self):
        spec = ExecutionSpec(backend="sharded", shards=4, max_retries=2,
                             heartbeat_interval=0.05)
        assert ExecutionSpec.from_dict(spec.to_dict()) == spec
        kwargs = spec.executor_kwargs()
        assert kwargs["shards"] == 4
        assert kwargs["max_retries"] == 2
        assert kwargs["heartbeat_interval"] == 0.05

    def test_shards_auto_selects_sharded_backend(self):
        campaign = FaultCampaign(poisson_problem(8), inner_iterations=10,
                                 max_outer=30)
        executor = CampaignExecutor(campaign, shards=2)
        assert executor.backend == "sharded"

    def test_knob_conflicts_rejected(self):
        campaign = FaultCampaign(poisson_problem(8), inner_iterations=10,
                                 max_outer=30)
        with pytest.raises(BackendKnobError, match="mutually exclusive"):
            CampaignExecutor(campaign, shards=2, batch_size=4)
        with pytest.raises(BackendKnobError, match="mutually exclusive"):
            CampaignExecutor(campaign, shards=2, workers=4)
        with pytest.raises(BackendKnobError, match="sharded"):
            CampaignExecutor(campaign, backend="batched", shards=2)
        with pytest.raises(BackendKnobError, match="sharded"):
            CampaignExecutor(campaign, max_retries=3)
        with pytest.raises(BackendKnobError, match="sharded"):
            CampaignExecutor(campaign, backend="serial", heartbeat_interval=0.1)

    def test_spec_layer_rejects_conflicts_too(self):
        with pytest.raises(SpecError):
            ExecutionSpec(backend="batched", shards=2)
        with pytest.raises(SpecError):
            ExecutionSpec(shards=0)
        with pytest.raises(SpecError):
            ExecutionSpec(backend="sharded", heartbeat_interval=0.0)

    def test_registry_metadata(self):
        from repro.registry import backend_knobs

        assert backend_knobs("sharded") == ("workers", "shards", "max_retries",
                                            "heartbeat_interval")

    def test_runner_flags_map_to_exec_spec(self):
        from repro.experiments.runner import build_parser, build_campaign_spec

        parser = build_parser()
        args = parser.parse_args(
            ["fig3", "--shards", "3", "--max-retries", "2",
             "--heartbeat-interval", "0.2", "--backend", "sharded"])
        spec = build_campaign_spec(args)
        assert spec.exec.backend == "sharded"
        assert spec.exec.shards == 3
        assert spec.exec.max_retries == 2
        assert spec.exec.heartbeat_interval == 0.2

    def test_campaign_spec_accepts_supervisor_knobs(self):
        spec = CampaignSpec.coerce(dict(BASE, exec={"shards": 2,
                                                    "max_retries": 5}))
        assert spec.exec.shards == 2
        assert spec.exec.max_retries == 5
