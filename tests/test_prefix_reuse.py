"""Failure-free prefix reuse: trials take the baseline's inner solves.

A campaign trial repeats the failure-free run, one inner solve after
another, until the outer iteration that holds its fault.  ``ft_gmres(...,
prefix=...)`` takes those inner solves from a
:class:`~repro.core.ftgmres.FailureFreePrefix` instead of recomputing them.
These tests pin down that doing so changes nothing and that it happens:

* campaigns with the record are identical to campaigns whose lookups are
  forced to miss, across sites, persistences, fault rates, MGS positions,
  detector responses and preconditioning — trial records, injection
  records with their context, event streams, and every inner result;
* a paper trial at location L computes exactly
  ``outer_iterations - L // inner_iterations`` inner solves;
* stateful detectors, fault-target wrappers, kernel profiles, caller
  sandboxes and injectors without ``may_fire_at`` compute every solve;
* a stored run resumed from a plan that skips the baseline is
  trial-identical, and fills the record from its first trials;
* a reused result is an independent copy of the stored one.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ftgmres as ftgmres_module
import repro.faults.campaign as campaign_module
from repro.api import run_campaign
from repro.core.arnoldi import VALID_RESPONSES
from repro.core.exceptions import FaultDetectedError
from repro.core.ftgmres import FailureFreePrefix, ft_gmres
from repro.core.gmres import GMRESParameters
from repro.core.status import SolverResult, SolverStatus
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import FaultInjector, NullInjector
from repro.faults.models import ScalingFault
from repro.faults.sandbox import Sandbox
from repro.faults.schedule import KNOWN_SITES, InjectionSchedule
from repro.faults.targets import FaultyOperator, FaultyPreconditioner
from repro.gallery.problems import poisson_problem
from repro.precond.jacobi import JacobiPreconditioner
from repro.results.store import RunStore
from repro.utils.profile import KernelProfile


@pytest.fixture(scope="module")
def tiny_problem():
    return poisson_problem(grid_n=6, seed=7)


@pytest.fixture(scope="module")
def small_problem():
    return poisson_problem(grid_n=8, seed=7)


@pytest.fixture
def gmres_calls(monkeypatch):
    """Counts the inner solves ``ft_gmres`` actually computes."""
    real = ftgmres_module.gmres
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ftgmres_module, "gmres", counting)
    return calls


def _inner_trace(result) -> list:
    """Each inner result, floats as bytes (so NaN compares equal to itself)."""
    return [(r.status, r.iterations, repr(r.residual_norm), r.matvecs,
             r.history.as_array().tobytes(), r.x.tobytes(), repr(list(r.events)))
            for r in result.inner_results]


def _traced_run(campaign, locations, *, miss: bool):
    """Trial records, each solve's injection records/events/inner results,
    and the number of inner solves computed."""
    real_ft_gmres = campaign_module.ft_gmres
    real_gmres = ftgmres_module.gmres
    traces, calls = [], [0]

    def traced(A, b, x0=None, *, injector=None, **kwargs):
        records = getattr(injector, "records", None)
        try:
            result = real_ft_gmres(A, b, x0, injector=injector, **kwargs)
        except FaultDetectedError as exc:
            traces.append((repr(records), repr(exc)))
            raise
        traces.append((repr(records), repr(list(result.events)), result.x.tobytes(),
                       _inner_trace(result)))
        return result

    def counting(*args, **kwargs):
        calls[0] += 1
        return real_gmres(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign_module, "ft_gmres", traced)
        patch.setattr(ftgmres_module, "gmres", counting)
        if miss:
            patch.setattr(FailureFreePrefix, "lookup", lambda self, j, q_j: None)
        trials = campaign.run(locations=locations).trials
    return [repr(dataclasses.replace(t, elapsed=0.0)) for t in trials], traces, calls[0]


# --------------------------------------------------------------------------- #
# identity property: reuse vs lookups forced to miss
# --------------------------------------------------------------------------- #
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e150 faults overflow
class TestReuseChangesNothing:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(site=st.sampled_from(KNOWN_SITES),
           persistence=st.sampled_from(["transient", "sticky", "persistent"]),
           fault_rate=st.sampled_from([None, 2]),
           mgs_position=st.sampled_from(["first", "last"]),
           response=st.sampled_from([None, *VALID_RESPONSES]),
           jacobi=st.booleans())
    def test_campaigns_identical(self, tiny_problem, site, persistence, fault_rate,
                                 mgs_position, response, jacobi):
        def build():
            inner = None
            if jacobi:
                inner = GMRESParameters(tol=0.0, maxiter=6, preconditioner=JacobiPreconditioner(
                    tiny_problem.A))
            return FaultCampaign(
                tiny_problem, inner_iterations=6, max_outer=20, site=site,
                fault_persistence=persistence, fault_rate=fault_rate,
                mgs_position=mgs_position, inner_params=inner,
                detector="bound" if response else None, detector_response=response)

        locations = [3, 9, 16]
        *reused, reused_calls = _traced_run(build(), locations, miss=False)
        *computed, computed_calls = _traced_run(build(), locations, miss=True)
        assert reused == computed
        assert reused_calls < computed_calls


# --------------------------------------------------------------------------- #
# count guard: the reuse really happens
# --------------------------------------------------------------------------- #
def test_paper_trial_computes_only_from_its_fault_on(small_problem, gmres_calls):
    campaign = FaultCampaign(small_problem, inner_iterations=10, max_outer=30)
    baseline = campaign.run_failure_free()
    assert gmres_calls[0] == baseline.outer_iterations
    assert len(campaign.prefix) == baseline.outer_iterations
    gmres_calls[0] = 0
    again = campaign.run_failure_free()  # entirely from the record
    assert gmres_calls[0] == 0
    assert again.x.tobytes() == baseline.x.tobytes()
    m = campaign.inner_iterations
    for location in range(0, baseline.total_inner_iterations, 7):
        for name, model in campaign.fault_classes.items():
            gmres_calls[0] = 0
            record = campaign.run_single(name, model, location)
            assert record.faults_injected == 1
            assert gmres_calls[0] == record.outer_iterations - location // m, \
                (name, location)


# --------------------------------------------------------------------------- #
# eligibility: configurations where every solve is computed
# --------------------------------------------------------------------------- #
def _late_injector(campaign, location):
    return campaign._trial_injector(ScalingFault(1e3), location)


class TestEligibility:
    def test_stateful_detector_computes_every_solve(self, small_problem, gmres_calls):
        def trial():
            campaign = FaultCampaign(small_problem, inner_iterations=10, max_outer=30,
                                     detector="norm_growth", detector_response="flag")
            baseline = campaign.run_failure_free()
            gmres_calls[0] = 0
            record = campaign.run_single("scaled", ScalingFault(1e3),
                                         baseline.total_inner_iterations - 3)
            assert gmres_calls[0] == record.outer_iterations
            assert len(campaign.prefix) == 0
            return dataclasses.replace(record, elapsed=0.0)

        reused = trial()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(FailureFreePrefix, "lookup", lambda self, j, q_j: None)
            assert trial() == reused

    def _assert_all_computed(self, problem, gmres_calls, A=None, **kwargs):
        prefix = FailureFreePrefix()
        plain = ft_gmres(problem.A, problem.b, inner_iterations=10, max_outer=30)
        gmres_calls[0] = 0
        result = ft_gmres(problem.A if A is None else A, problem.b, inner_iterations=10,
                          max_outer=30, prefix=prefix, **kwargs)
        assert gmres_calls[0] == result.outer_iterations
        assert len(prefix) == 0
        assert result.x.tobytes() == plain.x.tobytes()
        assert _inner_trace(result) == _inner_trace(plain)

    def test_kernel_profile(self, small_problem, gmres_calls):
        prefix = FailureFreePrefix()
        gmres_calls[0] = 0
        ft_gmres(small_problem.A, small_problem.b, inner_iterations=10, max_outer=30,
                 profile=KernelProfile(), prefix=prefix)
        assert gmres_calls[0] > 0 and len(prefix) == 0

    def test_caller_sandbox(self, small_problem, gmres_calls):
        self._assert_all_computed(small_problem, gmres_calls, sandbox=Sandbox())

    def test_operator_wrapper(self, small_problem, gmres_calls):
        inert = FaultInjector(ScalingFault(1e3),
                              InjectionSchedule(site="spmv", aggregate_inner_iteration=10**9))
        self._assert_all_computed(small_problem, gmres_calls,
                                  A=FaultyOperator(small_problem.A, inert))

    def test_preconditioner_wrapper(self, small_problem, gmres_calls):
        inert = FaultInjector(ScalingFault(1e3),
                              InjectionSchedule(site="precond", aggregate_inner_iteration=10**9))
        wrapped = FaultyPreconditioner(JacobiPreconditioner(small_problem.A), inert)
        prefix = FailureFreePrefix()
        params = ftgmres_module.FTGMRESParameters()
        params.inner = params.inner.replace(maxiter=10, preconditioner=wrapped)
        for _ in range(2):
            gmres_calls[0] = 0
            result = ft_gmres(small_problem.A, small_problem.b, params=params,
                              prefix=prefix)
            assert gmres_calls[0] == result.outer_iterations
        assert len(prefix) == 0

    def test_injector_without_predicate(self, small_problem, gmres_calls):
        prefix = FailureFreePrefix()
        plain = ft_gmres(small_problem.A, small_problem.b, inner_iterations=10,
                         max_outer=30, prefix=prefix)
        assert len(prefix) == plain.outer_iterations
        gmres_calls[0] = 0
        result = ft_gmres(small_problem.A, small_problem.b, inner_iterations=10,
                          max_outer=30, injector=NullInjector(), prefix=prefix)
        assert gmres_calls[0] == result.outer_iterations
        assert result.x.tobytes() == plain.x.tobytes()
        assert _inner_trace(result) == _inner_trace(plain)


# --------------------------------------------------------------------------- #
# resume from a short-circuited plan
# --------------------------------------------------------------------------- #
class _Interrupt(Exception):
    pass


def test_resumed_run_is_trial_identical(small_problem, tmp_path, monkeypatch):
    spec = dict(inner_iterations=5, max_outer=25, locations=[0, 7, 12, 18])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FailureFreePrefix, "lookup", lambda self, j, q_j: None)
        reference = run_campaign(small_problem, dict(spec))

    def bomb(event):
        if event.kind == "trial_completed" and event.data["done"] >= 2:
            raise _Interrupt

    store = RunStore(tmp_path)
    with pytest.raises(_Interrupt):
        run_campaign(small_problem, dict(spec), store=store, run_id="r", sink=bomb)

    def forbidden(self):  # pragma: no cover - guard
        raise AssertionError("a resumed plan must not re-solve the baseline")

    prefixes = []
    real_init = FaultCampaign.__init__

    def spying_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        prefixes.append(self.prefix)

    monkeypatch.setattr(FaultCampaign, "run_failure_free", forbidden)
    monkeypatch.setattr(FaultCampaign, "__init__", spying_init)
    resumed = run_campaign(small_problem, dict(spec), store=store, run_id="r",
                           resume=True)
    assert resumed.trials == reference.trials
    assert any(len(prefix) for prefix in prefixes)  # filled from the trials


# --------------------------------------------------------------------------- #
# the record itself
# --------------------------------------------------------------------------- #
def _result(x) -> SolverResult:
    result = SolverResult(x=np.asarray(x, dtype=np.float64),
                          status=SolverStatus.MAX_ITERATIONS, iterations=2,
                          residual_norm=0.5)
    result.history.append(1.0)
    result.history.append(0.5)
    result.events.record("inner_solve_complete", where="inner_solve")
    return result


class TestRecord:
    def test_lookup_is_bitwise(self):
        prefix = FailureFreePrefix()
        prefix.record(0, np.array([1.0, 0.0]), _result([2.0, 3.0]))
        assert prefix.lookup(0, np.array([1.0, 0.0])) is not None
        assert prefix.lookup(0, np.array([1.0, -0.0])) is None  # equal, not identical
        assert prefix.lookup(0, np.array([1.0, 0.0, 0.0])) is None
        assert prefix.lookup(1, np.array([1.0, 0.0])) is None

    def test_first_record_wins(self):
        prefix = FailureFreePrefix()
        prefix.record(0, np.zeros(2), _result([1.0, 1.0]))
        prefix.record(0, np.zeros(2), _result([9.0, 9.0]))
        assert prefix.lookup(0, np.zeros(2)).x.tolist() == [1.0, 1.0]

    def test_bound_to_one_configuration(self, small_problem):
        prefix = FailureFreePrefix()
        ft_gmres(small_problem.A, small_problem.b, max_outer=3, prefix=prefix)
        ft_gmres(small_problem.A, small_problem.b, max_outer=4, prefix=prefix)
        other = poisson_problem(grid_n=8, seed=7)
        with pytest.raises(ValueError, match="another operator"):
            ft_gmres(other.A, other.b, max_outer=3, prefix=prefix)
        with pytest.raises(ValueError, match="inner configuration"):
            ft_gmres(small_problem.A, small_problem.b, max_outer=3, inner_iterations=7,
                     prefix=prefix)

    def test_reused_results_are_independent(self, small_problem):
        campaign = FaultCampaign(small_problem, inner_iterations=10, max_outer=30)
        baseline = campaign.run_failure_free()
        stored = _inner_trace(baseline)
        # Mutating the baseline's own results leaves the record untouched ...
        for inner in baseline.inner_results:
            inner.x[:] = np.nan
            inner.history.append(7.0)
            inner.events.record("lsq_fallback", where="least_squares")
        injector = _late_injector(campaign, baseline.total_inner_iterations - 1)
        trial = ft_gmres(small_problem.A, small_problem.b, params=campaign.params,
                         injector=injector, prefix=campaign.prefix)
        # ... and so does mutating a trial's reused ones.
        for inner in trial.inner_results[:-1]:
            inner.x[:] = np.nan
            inner.history.append(7.0)
            inner.events.record("lsq_fallback", where="least_squares")
        again = campaign.run_failure_free()
        assert _inner_trace(again) == stored
        assert all(a is not b for a, b in zip(again.inner_results, trial.inner_results))


def test_clone_is_independent():
    original = _result([1.0, 2.0])
    copy = original.clone()
    copy.x[0] = 5.0
    copy.history.append(0.1)
    copy.events.record("lsq_fallback", where="least_squares")
    assert original.x.tolist() == [1.0, 2.0]
    assert list(original.history.residual_norms) == [1.0, 0.5]
    assert len(original.events) == 1
    assert (copy.status, copy.iterations, copy.residual_norm, copy.matvecs) == \
        (original.status, original.iterations, original.residual_norm, original.matvecs)
