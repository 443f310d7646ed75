"""The trial-batched campaign engine vs the serial reference.

The batched backend's contract: for every trial, iteration counts, statuses,
classification and event streams are identical to the serial backend, and
residual norms agree to ~1e-10 (bit-identical where the reduction order
matches).  Trials that leave the lockstep common path — happy breakdown,
early inner convergence, chaotic huge-magnitude faults — are transparently
rerun through the serial engine and therefore match exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batched import (
    BatchedGivensQR,
    BatchedTrialSetup,
    _batched_givens,
    batched_ft_gmres,
    batched_support_reason,
)
from repro.core.ftgmres import ft_gmres
from repro.core.gmres import GMRESParameters
from repro.core.least_squares import IncrementalGivensQR, givens_rotation
from repro.exec.executor import CampaignExecutor
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    InfFault,
    NaNFault,
    PAPER_FAULT_CLASSES,
    ScalingFault,
)
from repro.faults.schedule import InjectionSchedule
from repro.gallery.problems import TestProblem, circuit_problem, poisson_problem
from repro.sparse.csr import CSRMatrix


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def assert_records_equivalent(serial, batched, rtol=1e-10):
    """Field-by-field TrialRecord equivalence with the engine's tolerance."""
    assert len(serial.trials) == len(batched.trials)
    assert batched.failure_free_outer == serial.failure_free_outer
    for s, b in zip(serial.trials, batched.trials):
        assert (s.fault_class, s.aggregate_inner_iteration) == \
            (b.fault_class, b.aggregate_inner_iteration)
        assert s.outer_iterations == b.outer_iterations
        assert s.total_inner_iterations == b.total_inner_iterations
        assert s.converged == b.converged
        assert s.status == b.status
        assert s.faults_injected == b.faults_injected
        assert s.faults_detected == b.faults_detected
        assert s.detector_enabled == b.detector_enabled
        if np.isnan(s.residual_norm):
            assert np.isnan(b.residual_norm)
        else:
            assert abs(s.residual_norm - b.residual_norm) <= \
                rtol * max(1.0, abs(s.residual_norm))


def event_signature(events):
    return [(e.kind, e.where, e.outer_iteration, e.inner_iteration) for e in events]


@pytest.fixture(scope="module")
def tiny_problem():
    return poisson_problem(grid_n=8)


@pytest.fixture(scope="module")
def detector_campaign(tiny_problem):
    return FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                         detector="bound", detector_response="zero")


# --------------------------------------------------------------------------- #
# lockstep building blocks
# --------------------------------------------------------------------------- #
class TestBatchedGivensQR:
    def test_lanes_bitwise_match_scalar_qr(self):
        rng = np.random.default_rng(3)
        m, lanes = 8, 5
        beta = rng.uniform(0.5, 2.0, lanes)
        batched = BatchedGivensQR(m, beta)
        scalars = [IncrementalGivensQR(m, b) for b in beta]
        for j in range(m):
            cols = rng.standard_normal((j + 2, lanes))
            resid = batched.add_column(cols)
            for lane, qr in enumerate(scalars):
                expected = qr.add_column(cols[:, lane])
                assert resid[lane] == expected
        for lane, qr in enumerate(scalars):
            assert np.array_equal(batched.lane_R(lane), qr.R)
            assert np.array_equal(batched.lane_g(lane), qr.g)

    def test_solve_standard_matches_scalar_triangular_solve(self):
        from repro.core.least_squares import solve_triangular

        rng = np.random.default_rng(4)
        m, lanes = 6, 4
        batched = BatchedGivensQR(m, rng.uniform(0.5, 2.0, lanes))
        for j in range(m):
            batched.add_column(rng.standard_normal((j + 2, lanes)))
        Y = batched.solve_standard()
        for lane in range(lanes):
            expected = solve_triangular(batched.lane_R(lane),
                                        batched.lane_g(lane)[:m])
            np.testing.assert_allclose(Y[:, lane], expected, rtol=1e-13)

    def test_validation(self):
        qr = BatchedGivensQR(2, np.ones(3))
        with pytest.raises(ValueError):
            qr.add_column(np.zeros((3, 3)))  # wrong leading dimension
        qr.add_column(np.zeros((2, 3)))
        qr.add_column(np.zeros((3, 3)))
        with pytest.raises(RuntimeError):
            qr.add_column(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            BatchedGivensQR(0, np.ones(2))


class TestBatchedGivensRotation:
    @pytest.mark.parametrize("a,b", [
        (0.0, 0.0), (1.5, 0.0), (0.0, -2.0), (3.0, 4.0), (4.0, 3.0),
        (-1e-300, 1e300), (1e300, -1e-300), (np.nan, 1.0), (1.0, np.inf),
        (-7.25, 0.5), (0.5, -7.25),
    ])
    def test_matches_scalar_rotation_bitwise(self, a, b):
        c, s = _batched_givens(np.array([a]), np.array([b]))
        cs, ss = givens_rotation(a, b)
        assert (c[0] == cs or (np.isnan(c[0]) and np.isnan(cs)))
        assert (s[0] == ss or (np.isnan(s[0]) and np.isnan(ss)))


# --------------------------------------------------------------------------- #
# campaign-level equivalence
# --------------------------------------------------------------------------- #
class TestCampaignEquivalence:
    def test_detector_campaign_matches_serial(self, detector_campaign):
        serial = detector_campaign.run(stride=7)
        batched = detector_campaign.run(stride=7, backend="batched", batch_size=8)
        assert_records_equivalent(serial, batched)

    def test_no_detector_campaign_matches_serial(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50)
        serial = campaign.run(stride=7)
        batched = campaign.run(stride=7, backend="batched")
        assert_records_equivalent(serial, batched)

    def test_batch_size_only_perturbs_within_tolerance(self, detector_campaign):
        """Any batch size stays within the serial-equivalence contract.

        Results are *deterministic* for a fixed batch size; across batch
        sizes the lockstep reductions may block differently (einsum picks
        its blocking by operand shape), so residuals agree to the same
        ~1e-10 contract as against serial rather than bit-for-bit.
        """
        serial = detector_campaign.run(stride=9)
        reference = detector_campaign.run(stride=9, backend="batched", batch_size=64)
        assert detector_campaign.run(stride=9, backend="batched",
                                     batch_size=64).trials == reference.trials
        for batch_size in (1, 3, 7):
            again = detector_campaign.run(stride=9, backend="batched",
                                          batch_size=batch_size)
            assert_records_equivalent(serial, again)

    def test_mgs_last_position(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                                 mgs_position="last", detector="bound",
                                 detector_response="zero")
        assert_records_equivalent(campaign.run(stride=9),
                                  campaign.run(stride=9, backend="batched"))

    def test_nonsymmetric_circuit_problem(self):
        problem = circuit_problem(200)
        campaign = FaultCampaign(problem, inner_iterations=10, max_outer=60,
                                 detector="bound", detector_response="zero")
        assert_records_equivalent(campaign.run(stride=17),
                                  campaign.run(stride=17, backend="batched"))

    @pytest.mark.parametrize("response", ["flag", "clamp", "recompute"])
    def test_detector_responses(self, tiny_problem, response):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 detector="bound", detector_response=response)
        assert_records_equivalent(campaign.run(stride=11),
                                  campaign.run(stride=11, backend="batched"))


class TestCommonPathExits:
    def test_converge_at_first_outer_iteration(self, tiny_problem):
        """A loose tolerance makes every trial converge at outer iteration 1."""
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                                 outer_tol=1e-1)
        serial = campaign.run(stride=7)
        assert any(t.outer_iterations == 1 for t in serial.trials)
        assert_records_equivalent(serial, campaign.run(stride=7, backend="batched"))

    def test_happy_breakdown_mid_batch(self):
        """On the identity matrix every inner solve breaks down at step 1."""
        problem = TestProblem(name="identity", A=CSRMatrix.identity(30),
                              b=np.ones(30), spd=True)
        campaign = FaultCampaign(problem, inner_iterations=5, max_outer=10)
        serial = campaign.run(locations=[0, 1, 2, 3])
        batched = campaign.run(locations=[0, 1, 2, 3], backend="batched")
        assert_records_equivalent(serial, batched)

    def test_nan_trial_continues_while_batch_mates_converge(self, tiny_problem):
        """A NaN-injected lane stays in lockstep (the serial solver also runs
        its full budget on NaN data) while clean batch-mates converge."""
        classes = {"nan": NaNFault(), "inf": InfFault(),
                   "benign": ScalingFault(10.0 ** -0.5)}
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 fault_classes=classes)
        serial = campaign.run(stride=9)
        assert_records_equivalent(serial, campaign.run(stride=9, backend="batched"))

    def test_chaotic_large_fault_is_serial_exact(self, tiny_problem):
        """Huge (1e150-scale) faults without a filtering detector are peeled
        to the serial engine, so their records match *exactly*."""
        campaign = FaultCampaign(
            tiny_problem, inner_iterations=10, max_outer=30,
            fault_classes={"large": PAPER_FAULT_CLASSES["large"]})
        serial = campaign.run(stride=9)
        batched = campaign.run(stride=9, backend="batched")
        assert batched.trials == serial.trials  # exact, not just equivalent


class TestEventStreams:
    def _nested_results(self, campaign, location):
        """The same trial through ft_gmres and through batched_ft_gmres."""
        problem = campaign.problem
        model = campaign.fault_classes["large"]

        def make_injector():
            schedule = InjectionSchedule(site="hessenberg",
                                         aggregate_inner_iteration=location,
                                         mgs_position="first",
                                         persistence="transient")
            return FaultInjector(model, schedule)

        serial = ft_gmres(problem.A, problem.b, problem.x0,
                          params=campaign.params, injector=make_injector())
        setups = [BatchedTrialSetup(injector=make_injector(),
                                    hessenberg_target=location)]
        results = batched_ft_gmres(problem.A, problem.b, problem.x0,
                                   campaign.params, setups)
        return serial, results[0]

    def test_event_streams_identical(self, detector_campaign):
        serial, batched = self._nested_results(detector_campaign, location=12)
        assert batched is not None, "trial unexpectedly left the lockstep path"
        assert event_signature(batched.events) == event_signature(serial.events)
        assert batched.outer_iterations == serial.outer_iterations
        assert batched.total_inner_iterations == serial.total_inner_iterations
        assert batched.status == serial.status
        np.testing.assert_allclose(batched.history.as_array(),
                                   serial.history.as_array(),
                                   rtol=1e-10, atol=1e-12)

    def test_inner_histories_match(self, detector_campaign):
        serial, batched = self._nested_results(detector_campaign, location=5)
        assert batched is not None
        assert len(batched.inner_results) == len(serial.inner_results)
        for s_inner, b_inner in zip(serial.inner_results, batched.inner_results):
            assert b_inner.iterations == s_inner.iterations
            assert b_inner.status == s_inner.status
            assert b_inner.matvecs == s_inner.matvecs
            expected = s_inner.history.as_array()
            # The contract: histories agree to 1e-10 on the scale of the
            # solve (the initial residual norm).
            scale = max(1.0, float(expected[0]))
            np.testing.assert_allclose(b_inner.history.as_array(), expected,
                                       rtol=0.0, atol=1e-10 * scale)


# --------------------------------------------------------------------------- #
# configuration gating and executor integration
# --------------------------------------------------------------------------- #
class TestGating:
    def test_supported_configuration(self, detector_campaign):
        assert detector_campaign.batched_unsupported_reason() is None

    def test_non_mgs_inner_rejected(self, tiny_problem):
        campaign = FaultCampaign(
            tiny_problem, inner_iterations=10, max_outer=30,
            inner_params=GMRESParameters(tol=0.0, maxiter=10,
                                         orthogonalization="cgs2"))
        assert campaign.batched_unsupported_reason() is not None
        with pytest.raises(ValueError, match="not supported by the batched"):
            campaign.run(stride=11, backend="batched")

    def test_raise_response_rejected(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 detector="bound", detector_response="raise")
        assert "raise" in campaign.batched_unsupported_reason()

    def test_spmv_site_supported(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 site="spmv")
        assert campaign.batched_unsupported_reason() is None

    def test_unsupported_site_rejected(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 site="givens")
        assert "site" in campaign.batched_unsupported_reason()

    def test_mixed_site_list_rejected(self, tiny_problem):
        # A comma list is batched-eligible only when *every* site is.
        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 site="spmv,precond")
        assert "site" in campaign.batched_unsupported_reason()

    def test_stateful_detector_rejected(self, tiny_problem):
        from repro.core.detectors import NormGrowthDetector

        campaign = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=30,
                                 detector=NormGrowthDetector())
        assert "NormGrowthDetector" in campaign.batched_unsupported_reason()

    def test_support_reason_helper(self, detector_campaign):
        assert batched_support_reason(detector_campaign.params, "hessenberg") is None
        assert batched_support_reason(detector_campaign.params, "subdiag") is not None


class TestExecutorIntegration:
    def test_backend_listed(self):
        from repro.exec.executor import BACKENDS

        assert "batched" in BACKENDS

    def test_executor_runs_batched(self, detector_campaign):
        executor = CampaignExecutor(detector_campaign, backend="batched",
                                    batch_size=4)
        specs = detector_campaign.trial_specs([1, 12, 23])
        records = executor.run(specs)
        assert [r.fault_class for r in records] == [s.fault_class for s in specs]

    def test_spec_order_defines_output_order(self, detector_campaign):
        executor = CampaignExecutor(detector_campaign, backend="batched")
        specs = detector_campaign.trial_specs([1, 12])
        assert executor.run(list(reversed(specs))) == executor.run(specs)

    def test_progress_reaches_total(self, detector_campaign):
        calls = []
        detector_campaign.run(stride=11, backend="batched", batch_size=2,
                              progress=lambda done, total: calls.append((done, total)))
        assert calls and calls[-1][0] == calls[-1][1]
        assert [d for d, _ in calls] == sorted(d for d, _ in calls)

    def test_invalid_batch_size(self, detector_campaign):
        with pytest.raises(ValueError):
            CampaignExecutor(detector_campaign, backend="batched", batch_size=0)
        with pytest.raises(ValueError):
            list(detector_campaign.iter_specs_batched(
                detector_campaign.trial_specs([1]), batch_size=-1))

    def test_empty_specs(self, detector_campaign):
        assert list(detector_campaign.iter_specs_batched([])) == []
        assert CampaignExecutor(detector_campaign, backend="batched").run([]) == []

    def test_unknown_fault_class(self, detector_campaign):
        from repro.exec.spec import TrialSpec

        with pytest.raises(KeyError):
            list(detector_campaign.iter_specs_batched([TrialSpec(0, "no-such", 1)]))
