"""The injector's step predicate and the hook-free steady state it enables.

``FaultInjector.may_fire_at`` lets the Arnoldi step and the ``precond`` and
``givens`` hooks skip the injector on every step where no site can fire,
and the bound detector then screens a whole Hessenberg column at once.
These tests pin down that doing so changes nothing:

* the predicate is sound: whenever it says "cannot fire", every
  ``corrupt_*`` call at that iteration is a no-op that touches no state;
* campaigns give identical injection records, events and trial records
  with the predicate as built and with it forced to "may fire" everywhere;
* a fast Arnoldi step with the bound detector is bit-identical to the
  hooked step, with and without a flagged coefficient forcing the replay;
* the injector is consulted only on the firing step of a paper trial, and
  its step predicate once per step that cannot fire;
* every ``fault_detected`` event, ``spmv`` included, carries one schema.
"""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.ftgmres as ftgmres_module
import repro.faults.campaign as campaign_module
from repro.core.arnoldi import VALID_RESPONSES, ArnoldiContext, arnoldi_process
from repro.core.batched import BatchedTrialSetup, batched_ft_gmres
from repro.core.detectors import DetectionResult, HessenbergBoundDetector
from repro.core.exceptions import FaultDetectedError
from repro.core.ftgmres import ft_gmres
from repro.core.gmres import GMRESParameters
from repro.faults.campaign import FaultCampaign
from repro.faults.injector import FaultInjector, NullInjector
from repro.faults.models import ScalingFault
from repro.faults.sandbox import Sandbox
from repro.faults.schedule import KNOWN_SITES, FaultRateSchedule, InjectionSchedule
from repro.gallery.problems import poisson_problem
from repro.precond.jacobi import JacobiPreconditioner

# ``repro.core`` re-exports the ``gmres`` function under the module's name.
gmres_module = importlib.import_module("repro.core.gmres")


@pytest.fixture(scope="module")
def tiny_problem():
    return poisson_problem(grid_n=6, seed=7)


# --------------------------------------------------------------------------- #
# the predicate itself
# --------------------------------------------------------------------------- #
def _injector(schedule, **kwargs):
    return FaultInjector(ScalingFault(1e3), schedule, rng=np.random.default_rng(3),
                         **kwargs)


class TestPredicateCases:
    def test_anchored_schedule(self):
        inj = _injector(InjectionSchedule(aggregate_inner_iteration=4))
        assert inj.may_fire_at(4)
        assert not inj.may_fire_at(3)
        assert not inj.may_fire_at(5)

    def test_unanchored_schedule_may_fire_everywhere(self):
        inj = _injector(InjectionSchedule(aggregate_inner_iteration=None))
        assert all(inj.may_fire_at(a) for a in range(10))

    def test_rate_schedule_cadence(self):
        inj = _injector(FaultRateSchedule(faults_per_solve=3, start=2, interval=5))
        assert [a for a in range(20) if inj.may_fire_at(a)] == [2, 7, 12, 17]

    def test_disabled_injector(self):
        inj = _injector(InjectionSchedule(aggregate_inner_iteration=4), enabled=False)
        assert not inj.may_fire_at(4)

    def test_sandbox_gates_the_predicate(self):
        sandbox = Sandbox()
        inj = _injector(InjectionSchedule(aggregate_inner_iteration=4), sandbox=sandbox)
        assert not inj.may_fire_at(4)
        with sandbox:
            assert inj.may_fire_at(4)

    def test_spent_cap(self):
        inj = _injector(InjectionSchedule(aggregate_inner_iteration=None))
        assert inj.may_fire_at(0)
        inj.corrupt_scalar("hessenberg", 1.0, aggregate_inner_iteration=0, mgs_index=0)
        assert inj.injections_performed == 1
        assert not inj.may_fire_at(0)

    def test_injectors_without_the_predicate_are_always_consulted(self):
        # NullInjector deliberately has no predicate: it is how tests force
        # the hooked Arnoldi path with a null context.
        assert not hasattr(NullInjector(), "may_fire_at")
        assert ArnoldiContext(injector=NullInjector()).may_inject(0)
        assert not ArnoldiContext().may_inject(0)


_SITE_SPECS = list(KNOWN_SITES) + ["*", "spmv,precond", "hessenberg,subdiag,orth",
                                   "givens,basis"]
_AGGREGATES = st.integers(0, 12)


@st.composite
def _scheduled_injectors(draw):
    common = {
        "site": draw(st.sampled_from(_SITE_SPECS)),
        "persistence": draw(st.sampled_from(["transient", "sticky", "persistent"])),
        "mgs_position": draw(st.sampled_from(["first", "last", None, 1])),
        "sticky_count": draw(st.integers(1, 3)),
        "max_injections": draw(st.none() | st.integers(0, 3)),
        "aggregate_inner_iteration": draw(st.none() | _AGGREGATES),
    }
    if draw(st.booleans()):
        schedule = FaultRateSchedule(faults_per_solve=draw(st.integers(1, 3)),
                                     start=draw(st.integers(0, 6)),
                                     interval=draw(st.integers(1, 4)), **common)
    else:
        schedule = InjectionSchedule(**common)
    sandbox_mode = draw(st.sampled_from([None, "active", "inactive"]))
    sandbox = Sandbox() if sandbox_mode else None
    if sandbox_mode == "active":
        sandbox.__enter__()
    return _injector(schedule, sandbox=sandbox)


def _context(aggregate, inner, mgs_index, mgs_length):
    return {"outer_iteration": aggregate // 5, "inner_solve_index": aggregate // 5,
            "inner_iteration": inner, "aggregate_inner_iteration": aggregate,
            "mgs_index": mgs_index, "mgs_length": mgs_length}


def _state(inj):
    return (list(inj.records), set(inj._sticky_started), dict(inj._sticky_remaining),
            set(inj._fired_points), inj._rng.bit_generator.state)


class TestPredicateSoundness:
    @settings(max_examples=300, deadline=None)
    @given(inj=_scheduled_injectors(),
           history=st.lists(st.tuples(st.sampled_from(KNOWN_SITES), _AGGREGATES,
                                      st.integers(-1, 2), st.booleans()),
                            max_size=8),
           aggregate=_AGGREGATES)
    def test_cannot_fire_means_no_op(self, inj, history, aggregate):
        # Warm the injector up so caps, sticky windows and fired points are
        # in arbitrary states when the predicate is asked.
        vec = np.linspace(1.0, 2.0, 6)
        for site, agg, mgs_index, scalar in history:
            ctx = _context(agg, agg % 5, mgs_index, 3)
            if scalar:
                inj.corrupt_scalar(site, 1.5, **ctx)
            else:
                inj.corrupt_vector(site, vec, **ctx)
        if inj.may_fire_at(aggregate):
            return
        before = _state(inj)
        for site in KNOWN_SITES:
            for mgs_index in (-1, 0, 1, 2):
                for mgs_length in (0, 1, 3):
                    ctx = _context(aggregate, aggregate % 5, mgs_index, mgs_length)
                    value = 1.5
                    assert inj.corrupt_scalar(site, value, **ctx) is value
                    assert inj.corrupt_vector(site, vec, **ctx) is vec
        assert _state(inj) == before


# --------------------------------------------------------------------------- #
# end-to-end identity: predicate as built vs forced to "may fire"
# --------------------------------------------------------------------------- #
def _traced_run(campaign, locations, monkeypatch, always_may_fire):
    """Trial records plus each trial's injection records and events."""
    real = campaign_module.ft_gmres
    traces = []

    def traced(A, b, x0=None, *, injector=None, **kwargs):
        records = getattr(injector, "records", None)
        try:
            result = real(A, b, x0, injector=injector, **kwargs)
        except FaultDetectedError as exc:
            traces.append((repr(records), repr(exc)))
            raise
        traces.append((repr(records), repr(list(result.events)), result.x.tobytes()))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(campaign_module, "ft_gmres", traced)
        if always_may_fire:
            patch.setattr(FaultInjector, "may_fire_at", lambda self, a: True)
        trials = campaign.run(locations=locations).trials
    return [repr(dataclasses.replace(t, elapsed=0.0)) for t in trials], traces


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e150 faults overflow
class TestEndToEndIdentity:
    @pytest.mark.parametrize("response", [None, *VALID_RESPONSES])
    @pytest.mark.parametrize("persistence", ["transient", "sticky", "persistent"])
    @pytest.mark.parametrize("site", KNOWN_SITES)
    def test_predicate_changes_nothing(self, tiny_problem, monkeypatch, site,
                                       persistence, response):
        inner = None
        if site == "precond":
            inner = GMRESParameters(tol=0.0, maxiter=6,
                                    preconditioner=JacobiPreconditioner(tiny_problem.A))
        campaign = FaultCampaign(
            tiny_problem, inner_iterations=6, max_outer=20, site=site,
            fault_persistence=persistence, inner_params=inner,
            detector="bound" if response else None, detector_response=response)
        locations = [2, 13]
        built = _traced_run(campaign, locations, monkeypatch, always_may_fire=False)
        hooked = _traced_run(campaign, locations, monkeypatch, always_may_fire=True)
        assert built == hooked
        assert "InjectionRecord" in "".join(t[0] for t in built[1])


# --------------------------------------------------------------------------- #
# Arnoldi level: fast step with the bound detector vs the hooked step
# --------------------------------------------------------------------------- #
class _SpmvBlindBound(HessenbergBoundDetector):
    """A bound detector that never flags ``A q_j``, so the coefficient
    checks (and the replay they force) are reached under every response."""

    def check_vector(self, vec, site=""):
        return DetectionResult(False)


def _arnoldi_outcome(A, v0, ctx, steps, orth):
    try:
        Q, H, breakdown = arnoldi_process(A, v0, steps, orthogonalization=orth, ctx=ctx)
        outcome = (Q.tobytes(), H.tobytes(), breakdown)
    except FaultDetectedError as exc:
        outcome = repr(exc)
    return outcome, repr(list(ctx.events)), ctx.matvecs


class TestBoundDetectorFastStep:
    STEPS = 8

    def _bounds(self, A, v0):
        """(unflagged, prefilter band only, flagged) detector bounds."""
        _, H, _ = arnoldi_process(A, v0, self.STEPS)
        peak = float(np.abs(H).max())
        return {"clean": 10.0 * peak, "band": peak, "flagged": 0.5 * peak}

    @pytest.mark.parametrize("orth", ["mgs", "cgs2"])
    @pytest.mark.parametrize("detector_cls", [HessenbergBoundDetector, _SpmvBlindBound])
    @pytest.mark.parametrize("case", ["clean", "band", "flagged"])
    @pytest.mark.parametrize("response", VALID_RESPONSES)
    def test_fast_step_bit_identical_to_hooked(self, rng, poisson_medium, monkeypatch,
                                               detector_cls, case, response, orth):
        v0 = rng.standard_normal(poisson_medium.shape[0])
        detector = detector_cls(self._bounds(poisson_medium, v0)[case])
        scalar_checks = []
        real_check = HessenbergBoundDetector.check_scalar

        def counting(self, value, site=""):
            scalar_checks.append(site)
            return real_check(self, value, site=site)

        monkeypatch.setattr(HessenbergBoundDetector, "check_scalar", counting)
        fast = _arnoldi_outcome(poisson_medium, v0, ArnoldiContext(
            detector=detector, detector_response=response), self.STEPS, orth)
        fast_checks = list(scalar_checks)
        scalar_checks.clear()
        hooked = _arnoldi_outcome(poisson_medium, v0, ArnoldiContext(
            injector=NullInjector(), detector=detector, detector_response=response),
            self.STEPS, orth)
        assert fast == hooked
        if case == "clean":
            # No replay: only the per-step spmv check reaches check_scalar.
            assert "hessenberg" not in fast_checks and "subdiag" not in fast_checks
            assert "hessenberg" in scalar_checks
        elif detector_cls is _SpmvBlindBound:
            # The prefilter tripped and the step was replayed coefficient
            # by coefficient through the hooks.
            assert "hessenberg" in fast_checks
        if case == "flagged" and detector_cls is _SpmvBlindBound:
            assert "fault_detected" in fast[1]


# --------------------------------------------------------------------------- #
# hook-count regression guard
# --------------------------------------------------------------------------- #
def test_injector_consulted_only_on_the_firing_step(monkeypatch):
    """A paper trial (transient, hessenberg, first MGS position) consults the
    injector's hooks on the firing step only.  That step offers the spmv
    vector, its ``j + 1`` coefficients, the subdiagonal, the orthogonalized
    and the normalized vector; the first coefficient spends the injection
    cap, so the Givens hook declines without calling ``corrupt_scalar``."""
    problem = poisson_problem(grid_n=8, seed=7)
    campaign = FaultCampaign(problem, inner_iterations=10, max_outer=30)
    assert (campaign.site, campaign.mgs_position) == ("hessenberg", "first")
    calls = {"scalar": [], "vector": []}
    real_scalar, real_vector = FaultInjector.corrupt_scalar, FaultInjector.corrupt_vector

    def counting_scalar(self, site, value, **context):
        calls["scalar"].append(site)
        return real_scalar(self, site, value, **context)

    def counting_vector(self, site, vec, **context):
        calls["vector"].append(site)
        return real_vector(self, site, vec, **context)

    monkeypatch.setattr(FaultInjector, "corrupt_scalar", counting_scalar)
    monkeypatch.setattr(FaultInjector, "corrupt_vector", counting_vector)
    total = campaign.run_failure_free().total_inner_iterations
    for location in range(0, total, 7):
        j = location % campaign.inner_iterations
        for name, model in campaign.fault_classes.items():
            calls["scalar"].clear()
            calls["vector"].clear()
            record = campaign.run_single(name, model, location)
            assert record.faults_injected == 1
            assert calls["scalar"] == ["hessenberg"] * (j + 1) + ["subdiag"], (name, location)
            assert calls["vector"] == ["spmv", "orth", "basis"], (name, location)


def test_one_predicate_call_per_step(monkeypatch):
    """The step predicate is asked once per Arnoldi step that cannot fire:
    the Givens (and precond) hooks read the step's stored verdict instead of
    asking again.  Only the scheduled step, whose verdict is ``True``, asks
    again in its hooks, since its own fault may have spent the cap."""
    problem = poisson_problem(grid_n=8, seed=7)
    campaign = FaultCampaign(problem, inner_iterations=10, max_outer=30)
    steps = []  # the predicate verdicts asked during each inner Arnoldi step
    in_solve = []
    real_step, real_gmres = gmres_module.arnoldi_step, ftgmres_module.gmres
    real_may_fire_at = FaultInjector.may_fire_at

    def step(*args, **kwargs):
        steps.append([])
        return real_step(*args, **kwargs)

    def inner_solve(*args, **kwargs):
        in_solve.append(True)
        try:
            return real_gmres(*args, **kwargs)
        finally:
            in_solve.pop()

    def may_fire_at(self, aggregate):
        verdict = real_may_fire_at(self, aggregate)
        if in_solve:
            steps[-1].append(verdict)
        return verdict

    monkeypatch.setattr(gmres_module, "arnoldi_step", step)
    monkeypatch.setattr(ftgmres_module, "gmres", inner_solve)
    monkeypatch.setattr(FaultInjector, "may_fire_at", may_fire_at)
    total = campaign.run_failure_free().total_inner_iterations
    for location in range(0, total, 7):
        for name, model in campaign.fault_classes.items():
            steps.clear()
            assert campaign.run_single(name, model, location).faults_injected == 1
            quiet = [asked for asked in steps if not asked[0]]
            scheduled = [asked for asked in steps if asked[0]]
            assert quiet and all(len(asked) == 1 for asked in quiet), (name, location)
            assert len(scheduled) == 1 and len(scheduled[0]) == 2, (name, location)


# --------------------------------------------------------------------------- #
# one fault_detected schema
# --------------------------------------------------------------------------- #
class TestSpmvDetectionEventSchema:
    LOCATION = 3

    def _injector(self):
        return FaultInjector(ScalingFault(1e4),
                             InjectionSchedule(site="spmv",
                                               aggregate_inner_iteration=self.LOCATION),
                             vector_index=0)

    @staticmethod
    def _spmv_detections(result):
        events = [e for e in result.events
                  if e.kind == "fault_detected" and e.where == "spmv"]
        assert events, "the corrupted A q_j was not flagged"
        return events

    def _assert_schema(self, event):
        for key in ("value", "bound", "aggregate_inner_iteration", "detector",
                    "reason", "response"):
            assert key in event.data, key
        assert event.data["aggregate_inner_iteration"] == self.LOCATION
        assert event.data["value"] > event.data["bound"]

    def test_serial_and_batched_share_the_schema(self, tiny_problem):
        campaign = FaultCampaign(tiny_problem, inner_iterations=6, max_outer=20,
                                 site="spmv", detector="bound",
                                 detector_response="flag")
        p = tiny_problem
        serial = ft_gmres(p.A, p.b, p.x0, params=campaign.params,
                          injector=self._injector())
        batched = batched_ft_gmres(p.A, p.b, p.x0, campaign.params, [
            BatchedTrialSetup(injector=self._injector(),
                              hessenberg_target=self.LOCATION)])[0]
        assert batched is not None, "trial unexpectedly left the lockstep path"
        (s_event,) = self._spmv_detections(serial)
        (b_event,) = self._spmv_detections(batched)
        self._assert_schema(s_event)
        self._assert_schema(b_event)
        assert set(s_event.data) == set(b_event.data)
        assert b_event.data["value"] == pytest.approx(s_event.data["value"], rel=1e-12)
