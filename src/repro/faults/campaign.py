"""Fault-injection campaigns: the engine behind Figures 3 and 4.

A campaign runs the nested FT-GMRES solver once without faults to establish
the failure-free iteration count, then once per (fault class, injection
location) pair, injecting exactly one SDC event per run into the chosen
Hessenberg coefficient.  The result is the set of series plotted in the
paper: "number of outer iterations to convergence" versus "aggregate inner
solve iteration that faults".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.core.detectors import Detector
from repro.core.ftgmres import FTGMRESParameters, ft_gmres
from repro.core.gmres import GMRESParameters
from repro.core.fgmres import FGMRESParameters
from repro.core.status import NestedSolverResult
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultModel, PAPER_FAULT_CLASSES
from repro.faults.schedule import InjectionSchedule
from repro.gallery.problems import TestProblem
from repro.registry import (
    resolve_detector,
    resolve_fault_classes,
    resolve_preconditioner,
    resolve_problem,
)
from repro.results.events import Event, ensure_sink
from repro.results.query import TrialQuery
from repro.specs import CampaignSpec
from repro.utils.timer import Timer

__all__ = ["TrialRecord", "CampaignResult", "CampaignPlan", "FaultCampaign",
           "sweep_injection_locations"]


def _repro_version() -> str:
    from repro import __version__  # lazy: repro/__init__ imports this module

    return __version__

#: Single source of truth for campaign defaults: the :class:`CampaignSpec`
#: field defaults.  Both :class:`FaultCampaign` and
#: :func:`sweep_injection_locations` fill their ``None`` sentinels from here,
#: so the numbers cannot drift between the declarative and keyword APIs.
_DEFAULTS = CampaignSpec()


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one faulted nested solve.

    The payload fields (fault class, location, iteration counts, status,
    residual) define equality; the measurement/provenance fields —
    ``elapsed`` wall time, and the ``repro_version``/``seed``/``spec_hash``
    stamps — are ``compare=False`` so trial-identity assertions across
    backends and across resumed runs compare physics, not bookkeeping.
    """

    fault_class: str
    fault_description: str
    aggregate_inner_iteration: int
    mgs_position: str
    outer_iterations: int
    total_inner_iterations: int
    converged: bool
    status: str
    residual_norm: float
    faults_injected: int
    faults_detected: int
    detector_enabled: bool
    #: Wall-clock seconds for this trial (batched lanes: their amortized
    #: share of the batch, see :meth:`FaultCampaign.iter_specs_batched`).
    elapsed: float = field(default=0.0, compare=False)
    #: Crash isolation: when a trial's solve raised (or blew its soft
    #: timeout), ``status`` is ``"error"`` and this carries the message.
    #: ``compare=False``: an error record never equals a real measurement
    #: anyway (the payload fields are sentinels), and traceback text may
    #: differ across interpreters.
    error: str | None = field(default=None, compare=False)
    #: Provenance stamps (``None`` until stamped by the campaign layer).
    repro_version: str | None = field(default=None, compare=False)
    seed: int | None = field(default=None, compare=False)
    spec_hash: str | None = field(default=None, compare=False)
    #: How many times this trial crashed its worker before this record was
    #: produced (sharded supervisor bookkeeping).  ``compare=False``: a
    #: retried trial's measurement is still the same physics.
    retries: int = field(default=0, compare=False)

    @property
    def is_error(self) -> bool:
        """True if this records a crashed/timed-out trial, not a measurement."""
        return self.status == "error"

    def to_dict(self) -> dict:
        """JSON-ready dict (the common result schema, ``kind="trial"``).

        Provenance stamps are included when set, so a record written to a
        run store proves which repro version, RNG seed, and spec produced it.
        """
        from dataclasses import asdict

        out = {"kind": "trial", **asdict(self)}
        for key in ("error", "repro_version", "seed", "spec_hash"):
            if out[key] is None:
                del out[key]
        if not out["retries"]:
            del out["retries"]  # the overwhelmingly common case stays compact
        return out

    def summary(self) -> dict:
        """The headline fields of this trial (common result schema)."""
        return {
            "kind": "trial",
            "status": self.status,
            "converged": self.converged,
            "fault_class": self.fault_class,
            "aggregate_inner_iteration": self.aggregate_inner_iteration,
            "outer_iterations": self.outer_iterations,
            "residual_norm": self.residual_norm,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrialRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        data = {k: v for k, v in data.items() if k != "kind"}
        return cls(**data)


@dataclass
class CampaignResult:
    """All trials of a campaign plus the failure-free reference.

    The aggregate helpers (``series``, ``detection_rate``, ...) are built on
    the :class:`~repro.results.query.TrialQuery` API — the same queries work
    identically on a result loaded back from a
    :class:`~repro.results.store.RunStore`.
    """

    problem_name: str
    mgs_position: str
    inner_iterations: int
    detector_enabled: bool
    failure_free_outer: int
    failure_free_residual: float
    trials: list[TrialRecord] = field(default_factory=list)
    #: Provenance stamps (``None`` for legacy/unstamped results).
    repro_version: str | None = None
    seed: int | None = None
    spec_hash: str | None = None

    # ------------------------------------------------------------------ #
    def query(self) -> TrialQuery:
        """A :class:`TrialQuery` over this campaign's trials."""
        return TrialQuery(self.trials)

    def fault_classes(self) -> list[str]:
        """Fault-class labels present in the campaign, in first-seen order."""
        return self.query().distinct("fault_class")

    def series(self, fault_class: str) -> tuple[np.ndarray, np.ndarray]:
        """The plotted series for one fault class.

        Returns ``(locations, outer_iterations)`` sorted by location — the x
        and y data of one panel of Figure 3 or 4.
        """
        return self.query().filter(fault_class=fault_class).series()

    def max_outer(self, fault_class: str) -> int:
        """Worst-case outer-iteration count over the sweep for one class."""
        _, outers = self.series(fault_class)
        return int(outers.max()) if outers.size else 0

    def max_increase(self, fault_class: str) -> int:
        """Worst-case increase over the failure-free outer count."""
        return max(self.max_outer(fault_class) - self.failure_free_outer, 0)

    def percent_increase(self, fault_class: str) -> float:
        """Worst-case percentage increase in time-to-solution (outer iterations)."""
        if self.failure_free_outer == 0:
            return 0.0
        return 100.0 * self.max_increase(fault_class) / self.failure_free_outer

    def detection_rate(self, fault_class: str) -> float:
        """Fraction of trials of this class in which the detector fired."""
        return (self.query().filter(fault_class=fault_class)
                .rate(lambda t: t.faults_detected > 0))

    def non_converged(self) -> list[TrialRecord]:
        """Trials that failed to converge within the outer-iteration budget."""
        return self.query().filter(converged=False).records()

    def summary(self) -> dict:
        """Aggregate statistics keyed by fault class (used by EXPERIMENTS.md).

        Besides the paper's convergence statistics, each class reports its
        reliability totals — ``errors`` (crashed/timed-out/quarantined
        trials), ``quarantined`` (the poison subset), and ``retries``
        (worker crashes survived before the records were produced) — so
        flaky infrastructure is visible instead of silently healed.
        """
        def per_class(q: TrialQuery) -> dict:
            worst = int(q.max("outer_iterations"))
            increase = max(worst - self.failure_free_outer, 0)
            errors = q.errors()
            return {
                "max_outer": worst,
                "max_increase": increase,
                "percent_increase": (100.0 * increase / self.failure_free_outer
                                     if self.failure_free_outer else 0.0),
                "detection_rate": q.rate(lambda t: t.faults_detected > 0),
                "trials": len(q),
                "errors": len(errors),
                "quarantined": errors.count(
                    lambda t: (t.error or "").startswith("poison")),
                "retries": q.retry_count(),
            }

        return {cls: per_class(q)
                for cls, q in self.query().group_by("fault_class").items()}

    def to_dict(self) -> dict:
        """JSON-ready dict (the common result schema, ``kind="campaign"``).

        Round-trips through :meth:`from_dict` — including the provenance
        stamps — so whole campaign artifacts can be saved next to the spec
        that produced them and still prove which spec that was.
        """
        out = {
            "kind": "campaign",
            "problem_name": self.problem_name,
            "mgs_position": self.mgs_position,
            "inner_iterations": self.inner_iterations,
            "detector_enabled": self.detector_enabled,
            "failure_free_outer": self.failure_free_outer,
            "failure_free_residual": self.failure_free_residual,
            "trials": [t.to_dict() for t in self.trials],
        }
        for key in ("repro_version", "seed", "spec_hash"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        """Rebuild a campaign result from :meth:`to_dict` output."""
        data = {k: v for k, v in data.items() if k != "kind"}
        trials = [TrialRecord.from_dict(t) for t in data.pop("trials", [])]
        return cls(trials=trials, **data)


@dataclass(frozen=True)
class CampaignPlan:
    """A campaign's frozen work list (see :meth:`FaultCampaign.plan`).

    Carries the failure-free baseline numbers, the resolved injection
    locations, and the canonical-order trial specs — exactly what the run
    store persists in a manifest, so an interrupted campaign can be resumed
    from the same plan without re-solving the baseline.
    """

    locations: tuple[int, ...]
    failure_free_outer: int
    failure_free_residual: float
    specs: list


def _merged_budget(solver_field: str, solver_value, campaign_field: str,
                   campaign_value, campaign_default, error_cls):
    """Merge a solver-spec budget with its campaign-level counterpart.

    The solver value wins when set; a campaign value that was *also* set
    (differs from the default) and disagrees is a configuration error rather
    than something to clobber silently.
    """
    if solver_value is None:
        return campaign_value
    if campaign_value != campaign_default and campaign_value != solver_value:
        raise error_cls(solver_field,
                        f"conflicts with {campaign_field}={campaign_value}; "
                        f"set only one of them")
    return solver_value


class FaultCampaign:
    """Sweep single-SDC injections over every inner-iteration location.

    Parameters
    ----------
    problem : TestProblem
        The linear system to solve (see :mod:`repro.gallery.problems`).
    inner_iterations : int
        Fixed inner GMRES iteration count per outer iteration (paper: 25).
    max_outer : int
        Outer-iteration budget; trials that need more are reported as
        non-converged at this count.
    outer_tol : float
        Outer relative residual tolerance.
    fault_classes : dict[str, FaultModel]
        The corruption models to sweep (default: the paper's three classes).
    mgs_position : {"first", "last"}
        Which Modified Gram–Schmidt coefficient to corrupt (Figures 3a/4a use
        "first", 3b/4b use "last").
    detector : Detector, registry spec, or None
        ``"bound"`` enables the paper's Hessenberg-bound detector (built from
        ``||A||_F``); ``None`` disables detection; any other registered
        detector spec (string or dict, see :mod:`repro.registry`) also works.
    detector_response : str
        Response policy when the detector fires (default ``"zero"``:
        filter the impossible value, as the paper advocates).
    inner_params, outer_params : optional
        Overrides for the nested-solver configuration.
    site : str
        Injection site (default ``"hessenberg"``); a comma-separated list
        (``"spmv,precond"``) or ``"*"`` targets several sites at once.
    fault_rate : int or None
        ``None`` (default) reproduces the paper's single-SDC-per-solve
        methodology.  An integer N switches every trial to a
        :class:`~repro.faults.schedule.FaultRateSchedule`: up to N faults
        per nested solve, fired at the trial's injection location of
        consecutive inner solves (cadence = ``inner_iterations``).
    fault_persistence : str or None
        Persistence of each scheduled fault (``"transient"`` — the default —
        ``"sticky"``, or ``"persistent"``), tracked per site.
    trial_timeout : float or None
        Soft per-trial wall-clock budget in seconds.  A trial that finishes
        over budget is quarantined as a ``status="error"`` record instead of
        being reported as a measurement (``None`` disables the check).
    kernels : str or None
        Sparse kernel tier for every trial's hot kernels (``"numpy"``/
        ``"scipy"``/``"numba"``/``"auto"``); ``None`` defers to the
        ``REPRO_KERNELS`` environment variable, else ``"numpy"``.  The
        problem's matrix is rebound to the tier *before* detectors and
        preconditioners are resolved, so their factors solve on it too.
    """

    def __init__(
        self,
        problem: TestProblem,
        *,
        inner_iterations: int | None = None,
        max_outer: int | None = None,
        outer_tol: float | None = None,
        fault_classes: dict[str, FaultModel] | str | None = None,
        mgs_position: str | None = None,
        detector: Detector | str | dict | None = None,
        detector_response: str | None = None,
        inner_params: GMRESParameters | None = None,
        outer_params: FGMRESParameters | None = None,
        site: str | None = None,
        fault_rate: int | None = None,
        fault_persistence: str | None = None,
        trial_timeout: float | None = None,
        kernels: str | None = None,
    ):
        from repro.sparse.kernels import effective_kernels

        # ``None`` sentinels defer to the CampaignSpec field defaults — the
        # one place the paper's 25/100/1e-8 configuration is written down.
        self.kernels = effective_kernels(kernels)
        if (hasattr(problem, "with_engine")
                and getattr(problem.A, "engine_name", self.kernels) != self.kernels):
            problem = problem.with_engine(self.kernels)
        self.problem = problem
        self.inner_iterations = int(inner_iterations if inner_iterations is not None
                                    else _DEFAULTS.inner_iterations)
        self.max_outer = int(max_outer if max_outer is not None else _DEFAULTS.max_outer)
        self.outer_tol = float(outer_tol if outer_tol is not None else _DEFAULTS.outer_tol)
        self.fault_classes = resolve_fault_classes(
            fault_classes if fault_classes is not None else dict(PAPER_FAULT_CLASSES))
        mgs_position = mgs_position if mgs_position is not None else _DEFAULTS.mgs_position
        if mgs_position not in ("first", "last"):
            raise ValueError(f"mgs_position must be 'first' or 'last', got {mgs_position!r}")
        self.mgs_position = mgs_position
        self.site = site if site is not None else _DEFAULTS.site
        if fault_rate is not None and int(fault_rate) < 1:
            raise ValueError(f"fault_rate must be positive, got {fault_rate}")
        self.fault_rate = int(fault_rate) if fault_rate is not None else None
        self.fault_persistence = str(fault_persistence if fault_persistence is not None
                                     else _DEFAULTS.fault_persistence)
        if trial_timeout is not None and float(trial_timeout) <= 0:
            raise ValueError(f"trial_timeout must be positive, got {trial_timeout}")
        self.trial_timeout = float(trial_timeout) if trial_timeout is not None else None
        self.detector_response = (detector_response if detector_response is not None
                                  else _DEFAULTS.detector_response)
        self.detector = resolve_detector(detector, A=problem.A)

        inner = inner_params or GMRESParameters(tol=0.0, maxiter=self.inner_iterations)
        inner = inner.replace(
            maxiter=self.inner_iterations,
            detector=self.detector,
            detector_response=self.detector_response,
        )
        if isinstance(inner.preconditioner, (str, dict)):
            inner = inner.replace(preconditioner=resolve_preconditioner(
                inner.preconditioner, A=problem.A))
        outer = outer_params or FGMRESParameters(tol=self.outer_tol, max_outer=self.max_outer)
        outer = outer.replace(tol=self.outer_tol, max_outer=self.max_outer)
        if isinstance(outer.detector, (str, dict)):
            outer = outer.replace(detector=resolve_detector(
                outer.detector, A=problem.A, bound_method=outer.bound_method))
        self.params = FTGMRESParameters(outer=outer, inner=inner)
        #: Provenance stamped onto every record this campaign produces.
        #: ``spec_hash`` stays ``None`` for keyword-constructed campaigns and
        #: is filled by :meth:`from_spec` (only a spec has a hashable form).
        self.provenance = {
            "repro_version": _repro_version(),
            "seed": getattr(problem, "seed", None),
            "spec_hash": None,
        }

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: CampaignSpec | dict, problem: TestProblem | None = None
                  ) -> "FaultCampaign":
        """Build a campaign from a declarative :class:`~repro.specs.CampaignSpec`.

        Parameters
        ----------
        spec : CampaignSpec or dict
            The campaign description.  Dicts are validated through
            :meth:`CampaignSpec.from_dict` first.
        problem : TestProblem, optional
            The system to sweep.  Exactly one of this argument and
            ``spec.problem`` (a gallery registry spec like ``"poisson:30"``)
            must be given.
        """
        from repro.specs import SpecError

        spec = CampaignSpec.coerce(spec)
        if (problem is None) == (spec.problem is None):
            raise ValueError(
                "exactly one of the problem argument and spec.problem must be "
                "given" if problem is not None else
                "no problem to sweep: pass a TestProblem or set spec.problem "
                "to a gallery spec (e.g. 'poisson:30')")
        if problem is None:
            problem = resolve_problem(spec.problem)
        inner_params = outer_params = None
        inner_iterations, max_outer = spec.inner_iterations, spec.max_outer
        detector, detector_response = spec.detector, spec.detector_response
        if spec.solver is not None:
            solver_params = spec.solver.to_ftgmres_parameters()
            inner_params, outer_params = solver_params.inner, solver_params.outer
            inner_spec = spec.solver.inner
            # The solver spec's explicit inner settings take effect (so e.g.
            # `--set solver.inner.maxiter=12` or an inner detector do what
            # they say); they may not contradict a campaign-level setting
            # that was also given — the campaign constructor would otherwise
            # clobber them silently.
            inner_iterations = _merged_budget(
                "solver.inner.maxiter",
                inner_spec.maxiter if inner_spec is not None else None,
                "inner_iterations", spec.inner_iterations,
                _DEFAULTS.inner_iterations, SpecError)
            max_outer = _merged_budget(
                "solver.max_outer", spec.solver.max_outer,
                "max_outer", spec.max_outer, _DEFAULTS.max_outer, SpecError)
            if inner_spec is not None and inner_spec.detector is not None:
                if detector is not None and detector != inner_spec.detector:
                    raise SpecError("solver.inner.detector",
                                    f"conflicts with detector={detector!r}; "
                                    f"set only one of them")
                detector = inner_spec.detector
                if inner_spec.detector_response is not None:
                    detector_response = inner_spec.detector_response
        campaign = cls(
            problem,
            inner_iterations=inner_iterations,
            max_outer=max_outer,
            outer_tol=spec.outer_tol,
            fault_classes=spec.fault_classes,
            mgs_position=spec.mgs_position,
            detector=detector,
            detector_response=detector_response,
            inner_params=inner_params,
            outer_params=outer_params,
            site=spec.site,
            fault_rate=spec.fault_rate,
            fault_persistence=spec.fault_persistence,
            trial_timeout=spec.exec.trial_timeout,
            kernels=spec.exec.kernels,
        )
        from repro.results.store import campaign_fingerprint

        campaign.provenance["spec_hash"] = campaign_fingerprint(spec, problem.name)
        return campaign

    def run_failure_free(self) -> NestedSolverResult:
        """Run the nested solver without any fault injection."""
        return ft_gmres(self.problem.A, self.problem.b, self.problem.x0, params=self.params)

    def _trial_schedule(self, aggregate_inner_iteration: int) -> InjectionSchedule:
        """The injection schedule of one campaign trial.

        Shared by the serial and the batched execution paths so both inject
        under exactly the same schedule.  Without a ``fault_rate`` this is
        the paper's single-SDC schedule anchored at the trial's aggregate
        location; with one, a :class:`FaultRateSchedule` fires at that
        location of consecutive inner solves until the budget is spent.
        """
        from repro.faults.schedule import FaultRateSchedule

        if self.fault_rate is not None:
            return FaultRateSchedule(
                site=self.site,
                mgs_position=self.mgs_position,
                persistence=self.fault_persistence,
                faults_per_solve=self.fault_rate,
                start=int(aggregate_inner_iteration),
                interval=max(self.inner_iterations, 1),
            )
        return InjectionSchedule(
            site=self.site,
            aggregate_inner_iteration=int(aggregate_inner_iteration),
            mgs_position=self.mgs_position,
            persistence=self.fault_persistence,
        )

    def _trial_injector(self, model: FaultModel,
                        aggregate_inner_iteration: int) -> FaultInjector:
        """The trial's injector, with *deterministic* per-trial randomness.

        Vector-site corruption (``spmv``/``precond``/``orth``/``basis``)
        picks the corrupted element from the injector's rng.  Seeding that
        rng from the campaign seed and the trial's sweep location makes
        vector-site campaigns trial-identical across the serial, batched,
        and sharded backends — and across reruns, which is what the store's
        resume contract requires.
        """
        seed = self.provenance.get("seed")
        entropy = (0 if seed is None else int(seed) & 0xFFFFFFFF,
                   int(aggregate_inner_iteration))
        return FaultInjector(model, self._trial_schedule(aggregate_inner_iteration),
                             rng=np.random.default_rng(entropy))

    def run_single(self, fault_class: str, model: FaultModel,
                   aggregate_inner_iteration: int) -> TrialRecord:
        """Run one faulted nested solve and summarize it as a TrialRecord.

        The trial's wall time is measured here — inside the shard worker, on
        the sharded backend — so ``TrialRecord.elapsed`` means the same thing
        on every backend.
        """
        injector = self._trial_injector(model, aggregate_inner_iteration)
        timer = Timer()
        with timer:
            result = ft_gmres(self.problem.A, self.problem.b, self.problem.x0,
                              params=self.params, injector=injector)
        return TrialRecord(
            fault_class=fault_class,
            fault_description=model.describe(),
            aggregate_inner_iteration=int(aggregate_inner_iteration),
            mgs_position=self.mgs_position,
            outer_iterations=result.outer_iterations,
            total_inner_iterations=result.total_inner_iterations,
            converged=result.converged,
            status=result.status.value,
            residual_norm=result.residual_norm,
            faults_injected=injector.injections_performed,
            faults_detected=result.faults_detected,
            detector_enabled=self.detector is not None,
            elapsed=timer.elapsed,
        )

    def run_spec(self, spec) -> TrialRecord:
        """Run the trial described by a :class:`~repro.exec.spec.TrialSpec`."""
        return self.run_single(spec.fault_class, self._model_for(spec.fault_class),
                               spec.aggregate_inner_iteration)

    def error_record(self, spec, message: str, *, elapsed: float = 0.0,
                     retries: int = 0) -> TrialRecord:
        """A ``status="error"`` record for a crashed or quarantined trial.

        The payload fields are sentinels (``-1`` iterations, NaN residual):
        an error record marks a casualty to be re-run, not a measurement —
        the run store's resume logic treats its index as missing.  The
        sharded supervisor builds its hard-timeout and poison records here
        too, with the worker crashes survived as ``retries``.
        """
        model = self.fault_classes.get(spec.fault_class)
        return TrialRecord(
            fault_class=spec.fault_class,
            fault_description=(model.describe() if model is not None
                               else spec.fault_class),
            aggregate_inner_iteration=int(spec.aggregate_inner_iteration),
            mgs_position=self.mgs_position,
            outer_iterations=-1,
            total_inner_iterations=-1,
            converged=False,
            status="error",
            residual_norm=float("nan"),
            faults_injected=0,
            faults_detected=0,
            detector_enabled=self.detector is not None,
            elapsed=float(elapsed),
            error=str(message),
            retries=int(retries),
        )

    def run_spec_safe(self, spec) -> TrialRecord:
        """Run one trial with crash isolation and the soft timeout.

        A trial whose solve raises — a ``raise``-response detector, a fault
        model that explodes, a kernel bug — becomes a ``status="error"``
        record instead of killing the whole campaign (and, on the sharded
        backend, every other trial sharing its worker).  A trial that
        finishes but blew the campaign's ``trial_timeout`` is quarantined
        the same way.  The execution backends all route through here, so
        error semantics are backend-independent.
        """
        timer = Timer()
        try:
            with timer:
                record = self.run_spec(spec)
        except Exception as exc:  # noqa: BLE001 - the whole point is isolation
            return self.error_record(
                spec, f"{type(exc).__name__}: {exc}", elapsed=timer.elapsed)
        if self.trial_timeout is not None and record.elapsed > self.trial_timeout:
            return dataclasses.replace(
                record,
                outer_iterations=-1,
                total_inner_iterations=-1,
                converged=False,
                status="error",
                residual_norm=float("nan"),
                error=(f"soft timeout: trial took {record.elapsed:.3f}s "
                       f"(budget {self.trial_timeout:.3f}s)"),
            )
        return record

    def _model_for(self, fault_class: str) -> FaultModel:
        try:
            return self.fault_classes[fault_class]
        except KeyError:
            raise KeyError(
                f"unknown fault class {fault_class!r}; "
                f"campaign has {sorted(self.fault_classes)}"
            ) from None

    # ------------------------------------------------------------------ #
    # trial-batched lockstep execution
    # ------------------------------------------------------------------ #
    def batched_unsupported_reason(self) -> str | None:
        """Why this campaign cannot run on the lockstep batched engine.

        ``None`` means the configuration is supported.  The supported space
        is the paper's experiment space (MGS inside and out, ``hessenberg``
        injection site, no detector or the Hessenberg-bound detector with a
        non-raising response); exotic configurations belong on the serial
        backend.
        """
        from repro.core.batched import batched_support_reason

        return batched_support_reason(self.params, self.site)

    def iter_specs_batched(self, specs, *, batch_size: int | None = None):
        """Stream ``(index, record)`` pairs from the lockstep batched engine.

        Trials advance ``batch_size`` at a time through shared block kernels
        (see :mod:`repro.core.batched`); each batch's records are yielded as
        the batch completes, which is what lets the run store checkpoint a
        batched campaign at trial granularity.  Trials that leave the
        lockstep common path — happy breakdown, early inner convergence, the
        outer breakdown trichotomy — are transparently rerun through the
        serial reference implementation, so the output is equivalent to
        :meth:`run_spec` on every spec: identical iteration counts, statuses
        and event streams, residual norms to ~1e-10.

        Per-trial wall time: lanes that stay in lockstep report their
        amortized share of the batch (batch wall time divided by its lane
        count — lockstep lanes have no individual wall clock by
        construction); peeled trials report their true serial time.
        """
        from repro.core.batched import BatchedTrialSetup, batched_ft_gmres

        reason = self.batched_unsupported_reason()
        if reason is not None:
            raise ValueError(
                f"campaign configuration not supported by the batched backend "
                f"({reason}); use backend='serial' (or 'sharded')")
        specs = list(specs)
        if batch_size is None:
            from repro.exec.executor import DEFAULT_BATCH_SIZE

            batch_size = DEFAULT_BATCH_SIZE
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        # Strided batch composition: batch i takes specs[i::num_batches], so
        # every batch spans the whole injection-location range instead of a
        # narrow consecutive window.  Lanes then fork off the shared
        # failure-free prefix spread across the sweep, which is what makes
        # the prefix sharing in the lockstep engine pay (results are
        # reassembled by spec.index, so composition is free).
        num_batches = -(-len(specs) // batch_size) if specs else 0
        for start in range(num_batches):
            chunk = specs[start::num_batches]
            setups = []
            for spec in chunk:
                model = self._model_for(spec.fault_class)
                injector = self._trial_injector(model, spec.aggregate_inner_iteration)
                setups.append(BatchedTrialSetup(
                    injector=injector,
                    hessenberg_target=injector.schedule.aggregate_inner_iteration,
                ))
            timer = Timer()
            try:
                with timer:
                    results = batched_ft_gmres(self.problem.A, self.problem.b,
                                               self.problem.x0, self.params, setups)
            except Exception:
                # A crash in the shared block kernels cannot be attributed to
                # one lane; peel the whole batch to the serial path, where
                # run_spec_safe isolates the actual casualty per trial.
                results = [None] * len(chunk)
            lane_elapsed = timer.elapsed / len(chunk)
            for spec, setup, result in zip(chunk, setups, results):
                if result is None:
                    # Off the lockstep common path: the serial reference
                    # engine is the fallback, so rare paths never rely on
                    # the batched reproduction of them.
                    record = self.run_spec_safe(spec)
                else:
                    model = self._model_for(spec.fault_class)
                    record = TrialRecord(
                        fault_class=spec.fault_class,
                        fault_description=model.describe(),
                        aggregate_inner_iteration=int(spec.aggregate_inner_iteration),
                        mgs_position=self.mgs_position,
                        outer_iterations=result.outer_iterations,
                        total_inner_iterations=result.total_inner_iterations,
                        converged=result.converged,
                        status=result.status.value,
                        residual_norm=result.residual_norm,
                        faults_injected=setup.injector.injections_performed,
                        faults_detected=result.faults_detected,
                        detector_enabled=self.detector is not None,
                        elapsed=lane_elapsed,
                    )
                yield spec.index, record

    # ------------------------------------------------------------------ #
    # execution-engine integration
    # ------------------------------------------------------------------ #
    def trial_specs(self, locations) -> list:
        """The campaign's work list in canonical (serial) order."""
        from repro.exec.spec import TrialSpec

        locations = list(locations)  # every fault class sweeps all locations
        return [
            TrialSpec(index=index, fault_class=fault_class,
                      aggregate_inner_iteration=int(loc))
            for index, (fault_class, loc) in enumerate(
                (cls, loc) for cls in self.fault_classes for loc in locations)
        ]

    # ------------------------------------------------------------------ #
    # planning and streaming execution
    # ------------------------------------------------------------------ #
    def plan(self, locations=None, stride: int = 1, *,
             baseline: tuple[int, float] | None = None) -> "CampaignPlan":
        """Freeze the campaign's work list: baseline + locations + specs.

        ``baseline`` short-circuits the failure-free reference solve with
        known ``(failure_free_outer, failure_free_residual)`` numbers — the
        run store uses this on resume, so resuming never re-solves anything.
        """
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        if baseline is None:
            reference = self.run_failure_free()
            baseline = (reference.outer_iterations, reference.residual_norm)
        failure_free_outer, failure_free_residual = baseline
        if locations is None:
            total_locations = max(failure_free_outer, 1) * self.inner_iterations
            locations = range(0, total_locations, stride)
        locations = tuple(int(loc) for loc in locations)
        return CampaignPlan(
            locations=locations,
            failure_free_outer=int(failure_free_outer),
            failure_free_residual=float(failure_free_residual),
            specs=self.trial_specs(locations),
        )

    def result_scaffold(self, plan: "CampaignPlan") -> CampaignResult:
        """An empty, provenance-stamped CampaignResult for a plan."""
        return CampaignResult(
            problem_name=self.problem.name,
            mgs_position=self.mgs_position,
            inner_iterations=self.inner_iterations,
            detector_enabled=self.detector is not None,
            failure_free_outer=plan.failure_free_outer,
            failure_free_residual=plan.failure_free_residual,
            **self.provenance,
        )

    def stamp(self, record: TrialRecord) -> TrialRecord:
        """The record with this campaign's provenance fields set."""
        return dataclasses.replace(record, **self.provenance)

    def run_plan(self, plan: "CampaignPlan", *, specs=None, progress=None,
                 sink=None, backend: str | None = None,
                 workers: int | None = None, batch_size: int | None = None,
                 executor=None,
                 on_record=None, completed=(), event_data: dict | None = None,
                 **executor_kwargs) -> CampaignResult:
        """Execute (the remainder of) a plan and assemble the result.

        The one implementation of the campaign lifecycle — event emission,
        progress accounting, canonical reassembly — shared by :meth:`run`
        and the run store's checkpoint/resume path in :mod:`repro.api`.

        Parameters
        ----------
        specs : sequence of TrialSpec, optional
            The trials to actually execute (default: all of ``plan.specs``;
            a resume passes only the missing ones).
        on_record : callable, optional
            ``on_record(index, record)`` invoked for each completed trial
            *before* any observer sees it — the store's persistence hook, so
            an interrupt raised by a sink never loses a completed trial.
        completed : sequence of (index, record)
            Already-finished trials (from a resumed store) counted as done.
        event_data : dict, optional
            Extra payload merged into the ``campaign_started`` and
            ``campaign_completed`` events (e.g. the store ``run_id``).
        """
        sink = ensure_sink(sink)
        result = self.result_scaffold(plan)
        total = len(plan.specs)
        pairs: list[tuple[int, TrialRecord]] = list(completed)
        extra = dict(event_data or {})
        if sink is not None:
            sink.emit(Event("campaign_started", where="campaign",
                            data={"problem": self.problem.name,
                                  "total_trials": total,
                                  "resumed_trials": len(pairs), **extra}))
            sink.emit(Event(
                "baseline_completed", where="campaign",
                data={"failure_free_outer": plan.failure_free_outer,
                      "failure_free_residual": plan.failure_free_residual}))
        todo = list(plan.specs) if specs is None else list(specs)
        if todo:
            for index, record in self.iter_records(
                    todo, executor=executor, backend=backend, workers=workers,
                    batch_size=batch_size, **executor_kwargs):
                if on_record is not None:
                    on_record(index, record)
                pairs.append((index, record))
                if progress is not None:
                    progress(len(pairs), total)
                if sink is not None:
                    sink.emit(Event("trial_completed", where="campaign",
                                    trial_index=index,
                                    data={"done": len(pairs), "total": total,
                                          "record": record.to_dict()}))
        pairs.sort(key=lambda pair: pair[0])
        result.trials.extend(record for _, record in pairs)
        if sink is not None:
            sink.emit(Event("campaign_completed", where="campaign",
                            data={"total_trials": total, **extra}))
        return result

    def iter_records(self, specs, *, executor=None, backend: str | None = None,
                     workers: int | None = None, batch_size: int | None = None,
                     **executor_kwargs):
        """Stream provenance-stamped ``(index, record)`` pairs as trials finish.

        Completion order (lazy over serial, per batch over batched, per
        durable shard append over sharded); the caller reassembles canonical
        order by index.
        This is the one execution path under :meth:`run`,
        :func:`repro.api.iter_trials`, and the run store's incremental
        checkpointing.
        """
        from repro.exec.executor import CampaignExecutor

        if executor is None:
            executor = CampaignExecutor(self, backend=backend, workers=workers,
                                        batch_size=batch_size, **executor_kwargs)
        for index, record in executor.iter_records(specs):
            yield index, self.stamp(record)

    def run(self, locations=None, stride: int = 1, progress=None, *,
            backend: str | None = None, workers: int | None = None,
            batch_size: int | None = None, executor=None, sink=None,
            **executor_kwargs) -> CampaignResult:
        """Run the full campaign.

        Parameters
        ----------
        locations : sequence of int, optional
            Aggregate inner-iteration indices to fault.  Defaults to every
            index reachable in the failure-free run
            (``failure_free_outer * inner_iterations``), exactly as in the
            paper.
        stride : int
            Keep every ``stride``-th default location (used by the fast
            benchmark configurations; ``stride=1`` reproduces the paper).
        progress : callable, optional
            ``progress(done, total)`` callback (a thin adapter over the
            event bus: equivalent to a ``sink`` observing only
            ``trial_completed`` events).
        backend : {"serial", "batched", "sharded"}, optional
            Execution backend; ``None`` auto-selects (see
            :func:`repro.exec.executor.resolve_backend`): ``"sharded"`` when
            the resolved worker count exceeds 1.  ``"batched"`` advances
            trials in lockstep through shared block kernels in this process
            — the right choice on single-CPU hosts.  ``"sharded"`` runs
            crash-supervised worker processes forked from this one (see
            :class:`repro.exec.supervisor.ShardedSupervisor`).
        workers : int, optional
            Worker count (default: the ``REPRO_WORKERS`` environment
            variable, then 1; ``0`` means one per CPU).
        batch_size : int, optional
            Trials advanced in lockstep per batch (batched backend only).
        executor : CampaignExecutor, optional
            A pre-built executor; overrides ``backend``/``workers``/
            ``batch_size``.
        sink : EventSink, callable, or registered sink spec, optional
            Receives campaign lifecycle events (``campaign_started``,
            ``baseline_completed``, ``trial_completed`` with the record
            payload, ``campaign_completed``) as the campaign runs.

        Returns
        -------
        CampaignResult
            Trials appear in the canonical (fault class, location) order
            regardless of backend.  For stateless detectors and
            deterministic fault models (the paper's configuration) a
            sharded run is trial-for-trial identical to a serial one;
            components that accumulate state across trials (random bit
            flips, :class:`NormGrowthDetector`) start each shard worker from
            this process's post-baseline state and then see only their
            shard's history, so sweep them with ``backend="serial"``.
        """
        from repro.registry import resolve_sink

        return self.run_plan(self.plan(locations=locations, stride=stride),
                             progress=progress, sink=resolve_sink(sink),
                             backend=backend, workers=workers,
                             batch_size=batch_size, executor=executor,
                             **executor_kwargs)


def sweep_injection_locations(
    problem: TestProblem,
    *,
    fault_classes: dict[str, FaultModel] | str | None = None,
    mgs_position: str | None = None,
    detector=None,
    inner_iterations: int | None = None,
    max_outer: int | None = None,
    outer_tol: float | None = None,
    stride: int | None = None,
    locations=None,
    backend: str | None = None,
    workers: int | None = None,
    batch_size: int | None = None,
    sink=None,
) -> CampaignResult:
    """Functional convenience wrapper around :class:`FaultCampaign`.

    Equivalent to constructing a campaign with the given options and calling
    :meth:`FaultCampaign.run` (including the parallel/batched-execution
    knobs).  Defaults (``None``) come from the :class:`~repro.specs.CampaignSpec`
    field defaults — the same single source :class:`FaultCampaign` uses — so
    the two entry points cannot drift apart.
    """
    campaign = FaultCampaign(
        problem,
        inner_iterations=inner_iterations,
        max_outer=max_outer,
        outer_tol=outer_tol,
        fault_classes=fault_classes,
        mgs_position=mgs_position,
        detector=detector,
    )
    return campaign.run(locations=locations,
                        stride=stride if stride is not None else _DEFAULTS.stride,
                        backend=backend, workers=workers,
                        batch_size=batch_size, sink=sink)
