"""Tests for the campaign execution engine (:mod:`repro.exec`).

The engine's central promise: a sharded campaign run is trial-for-trial
identical to a serial one — same :class:`TrialRecord` values, same order —
for every worker and shard count.
"""

from __future__ import annotations

import pytest

from repro.exec.executor import CampaignExecutor, resolve_backend, resolve_workers
from repro.exec.spec import TrialSpec
from repro.faults.campaign import FaultCampaign
from repro.gallery.problems import poisson_problem


@pytest.fixture(scope="module")
def tiny_problem():
    return poisson_problem(grid_n=8)


@pytest.fixture(scope="module")
def campaign(tiny_problem):
    return FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                         detector="bound", detector_response="zero")


@pytest.fixture(scope="module")
def serial_result(campaign):
    return campaign.run(stride=11)


class TestWorkerResolution:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_backend_auto_selection(self):
        assert resolve_backend(None, 1) == "serial"
        assert resolve_backend(None, 4) == "sharded"
        assert resolve_backend("serial", 4) == "serial"
        assert resolve_backend(None, 1, shards=2) == "sharded"
        assert resolve_backend(None, 4, batch_size=8) == "batched"
        for retired in ("gpu", "thread", "process"):
            with pytest.raises(ValueError):
                resolve_backend(retired, 4)

    def test_backend_auto_selection_reads_repro_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_backend() == "sharded"
        assert resolve_backend(None, 1) == "serial"  # explicit beats the env
        monkeypatch.setenv("REPRO_WORKERS", "1")
        assert resolve_backend() == "serial"


class TestDeterministicParallelism:
    """The headline guarantee: sharded output == serial output, in order."""

    def test_sharded_matches_serial(self, campaign, serial_result):
        parallel = campaign.run(stride=11, backend="sharded", workers=2)
        assert parallel.trials == serial_result.trials
        assert parallel.failure_free_outer == serial_result.failure_free_outer
        assert parallel.failure_free_residual == serial_result.failure_free_residual

    def test_more_shards_than_cpus_match_serial(self, campaign, serial_result):
        """Many small shards maximize reordering; order must survive."""
        parallel = campaign.run(stride=11, shards=5)
        assert parallel.trials == serial_result.trials

    def test_workers_env_knob_respected(self, campaign, serial_result, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert CampaignExecutor(campaign).backend == "sharded"
        parallel = campaign.run(stride=11)
        assert parallel.trials == serial_result.trials


class TestExecutorMechanics:
    def test_progress_reaches_total(self, campaign):
        calls = []
        campaign.run(stride=17, backend="sharded", workers=2,
                     progress=lambda done, total: calls.append((done, total)))
        assert calls, "progress callback never fired"
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        assert calls[-1][0] == calls[-1][1]

    def test_empty_spec_list(self, campaign):
        executor = CampaignExecutor(campaign)
        assert executor.run([]) == []

    def test_duplicate_indices_rejected(self, campaign):
        executor = CampaignExecutor(campaign)
        specs = [TrialSpec(0, "large", 1), TrialSpec(0, "large", 2)]
        with pytest.raises(ValueError):
            executor.run(specs)

    def test_unknown_fault_class(self, campaign):
        with pytest.raises(KeyError):
            campaign.run_spec(TrialSpec(0, "no-such-class", 1))

    def test_invalid_chunksize(self, campaign):
        """The pool's chunksize knob is gone from every backend."""
        with pytest.raises(TypeError, match="chunksize"):
            CampaignExecutor(campaign, chunksize=2)

    def test_batch_size_with_pool_backend_rejected(self, campaign):
        """Knobs the backend would silently ignore are errors up front."""
        with pytest.raises(ValueError, match="batch_size"):
            CampaignExecutor(campaign, backend="sharded", batch_size=8)

    def test_parallel_workers_with_serial_rejected(self, campaign):
        with pytest.raises(ValueError, match="workers"):
            CampaignExecutor(campaign, backend="serial", workers=4)

    def test_chunksize_with_batched_rejected(self, campaign):
        with pytest.raises(TypeError, match="chunksize"):
            CampaignExecutor(campaign, backend="batched", chunksize=2)

    def test_workers_one_accepted_everywhere(self, campaign):
        assert CampaignExecutor(campaign, backend="serial", workers=1).backend == "serial"
        assert CampaignExecutor(campaign, backend="batched", workers=1).backend == "batched"

    def test_batch_size_auto_selects_batched(self, campaign):
        executor = CampaignExecutor(campaign, batch_size=4)
        assert executor.backend == "batched"
        assert executor.batch_size == 4

    def test_ambiguous_auto_backend_rejected(self, campaign):
        with pytest.raises(ValueError, match="batch_size"):
            CampaignExecutor(campaign, workers=4, batch_size=4)

    def test_env_workers_do_not_trip_serial_validation(self, campaign, monkeypatch):
        """REPRO_WORKERS is a default, not an explicit knob; serial ignores it."""
        monkeypatch.setenv("REPRO_WORKERS", "4")
        executor = CampaignExecutor(campaign, backend="serial")
        assert executor.backend == "serial"

    def test_env_workers_do_not_veto_explicit_batch_size(self, campaign, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        executor = CampaignExecutor(campaign, batch_size=8)
        assert executor.backend == "batched"
        assert executor.batch_size == 8

    def test_workers_zero_means_one_per_cpu(self, campaign):
        """workers=0 must stay accepted even when it resolves to 1 CPU."""
        executor = CampaignExecutor(campaign, workers=0)
        assert executor.workers >= 1
        assert executor.backend in ("serial", "sharded")

    def test_non_campaign_config_rejected(self):
        with pytest.raises(TypeError):
            CampaignExecutor(object())

    def test_spec_order_defines_output_order(self, campaign):
        """Reversed input specs still come back sorted by spec.index."""
        specs = campaign.trial_specs([1, 26])
        executor = CampaignExecutor(campaign)
        forward = executor.run(specs)
        backward = executor.run(list(reversed(specs)))
        assert forward == backward


class TestWorkerIsolation:
    def test_shard_workers_inherit_the_built_campaign(self, campaign,
                                                      monkeypatch):
        """Forked shard workers run the parent's campaign; none is rebuilt."""
        specs = campaign.trial_specs([1, 26])
        serial = CampaignExecutor(campaign).run(specs)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("a shard worker rebuilt the campaign")

        monkeypatch.setattr(FaultCampaign, "__init__", no_rebuild)
        sharded = CampaignExecutor(campaign, backend="sharded", shards=2)
        assert sharded.run(specs) == serial

    def test_custom_solver_params_reach_shard_workers(self, tiny_problem):
        """inner_params/outer_params must reach the shard workers."""
        from repro.core.gmres import GMRESParameters

        custom = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                               inner_params=GMRESParameters(tol=0.0, maxiter=10,
                                                            orthogonalization="cgs2"))
        serial = custom.run(stride=13)
        parallel = custom.run(stride=13, backend="sharded", workers=2)
        assert parallel.trials == serial.trials

    def test_trial_specs_accepts_iterator(self, campaign):
        """A generator of locations must sweep every fault class."""
        from_list = campaign.trial_specs([1, 12])
        from_iter = campaign.trial_specs(iter([1, 12]))
        assert from_iter == from_list
        assert len(from_iter) == 2 * len(campaign.fault_classes)
