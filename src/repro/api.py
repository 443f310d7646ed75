"""The config-first public API: ``solve`` and ``run_campaign``.

Two facades cover the library's whole execution surface:

* :func:`solve` — one linear solve, any registered solver family
  (``gmres``, ``fgmres``, ``ft_gmres``, ``cg``), configured by a
  :class:`~repro.specs.SolveSpec` (or an equivalent dict / keyword set);
* :func:`run_campaign` — a whole fault-injection campaign, configured by a
  :class:`~repro.specs.CampaignSpec`, scheduled over any execution backend.

Both consume *specs*: frozen, validated, JSON-round-trippable configuration
objects whose component fields (preconditioner, detector, fault models,
gallery problem, backend) resolve through :mod:`repro.registry`.  Both
return results sharing the common ``to_dict()``/``summary()`` schema
(:class:`~repro.core.status.SolverResult`,
:class:`~repro.core.status.NestedSolverResult`,
:class:`~repro.faults.campaign.TrialRecord`,
:class:`~repro.faults.campaign.CampaignResult`).

The facades are thin by design: they delegate to the same legacy entry
points (``gmres``/``fgmres``/``ft_gmres``/``FaultCampaign``) users have
always called, so a spec-driven solve is bit-identical to the equivalent
keyword call (asserted in the equivalence suite).

>>> from repro import api
>>> from repro.gallery.problems import poisson_problem
>>> p = poisson_problem(10)
>>> result = api.solve(p.A, p.b, {"method": "gmres", "tol": 1e-10,
...                               "preconditioner": "jacobi"})
>>> result.summary()["converged"]
True
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.core.status import NestedSolverResult, SolverResult
from repro.exec.executor import resolve_backend
from repro.faults.campaign import CampaignResult, FaultCampaign, TrialRecord
from repro.registry import ResolveContext, registry, resolve_problem, resolve_sink
from repro.results.events import ensure_sink
from repro.results.query import TrialQuery
from repro.results.store import RunManifest, RunStore, RunStoreError
from repro.specs import (CampaignSpec, ExecutionSpec, ServiceSpec, SolveSpec,
                         SpecError)

__all__ = [
    "solve",
    "run_campaign",
    "iter_trials",
    "serve",
    "SolveSpec",
    "ExecutionSpec",
    "CampaignSpec",
    "ServiceSpec",
    "SpecError",
    "SolverResult",
    "NestedSolverResult",
    "TrialRecord",
    "CampaignResult",
    "TrialQuery",
    "RunStore",
    "RunStoreError",
]


def solve(A: Any, b: Any, spec: Any = None, *, x0: Any = None,
          injector: Any = None, events: Any = None,
          **overrides: Any) -> SolverResult | NestedSolverResult:
    """Solve ``A x = b`` as described by a solve spec.

    Parameters
    ----------
    A : matrix or operator
        The system operator.
    b : array_like
        Right-hand side.
    spec : SolveSpec, dict, or str, optional
        The solve configuration.  A string is a solver method name
        (``"gmres"``, ``"ft_gmres"``, ...); a dict is validated through
        :meth:`SolveSpec.from_dict`; ``None`` uses the defaults.
    x0 : array_like, optional
        Initial guess.
    injector : FaultInjector, optional
        Fault injector (``gmres`` and the ``ft_gmres`` inner solves only).
    events : EventLog, optional
        Event sink shared with the caller.
    **overrides
        Individual :class:`SolveSpec` fields overriding ``spec``, e.g.
        ``solve(A, b, "ft_gmres", tol=1e-10, detector="bound")``.

    Returns
    -------
    SolverResult or NestedSolverResult
        ``ft_gmres`` returns the nested result; everything else the flat
        one.  Both expose the common ``summary()``/``to_dict()`` schema.
    """
    spec = SolveSpec.coerce(spec, **overrides)
    entry = registry.entry("solver", spec.method)
    return entry.factory(ResolveContext(A=A), A=A, b=b, x0=x0, spec=spec,
                         injector=injector, events=events)


def run_campaign(problem: Any = None, spec: Any = None, *,
                 progress: Callable[[int, int], None] | None = None,
                 sink: Any = None, store: Any = None,
                 run_id: str | None = None, resume: bool = False,
                 chaos: Any = None, **overrides: Any) -> CampaignResult:
    """Run a fault-injection campaign as described by a campaign spec.

    Parameters
    ----------
    problem : TestProblem, str, or dict, optional
        The system to sweep: a built problem, or a gallery registry spec
        (``"poisson:30"``, ``{"name": "circuit", "n_nodes": 800}``).  May be
        omitted when ``spec.problem`` carries the gallery spec instead —
        a campaign defined purely as a JSON file runs with
        ``run_campaign(spec=CampaignSpec.load(path))``.
    spec : CampaignSpec or dict, optional
        The campaign configuration (defaults: the paper's).
    progress : callable, optional
        ``progress(done, total)`` callback (thin adapter over the event bus).
    sink : EventSink, callable, or registered sink spec, optional
        Receives campaign lifecycle events as the campaign runs
        (``"jsonl:runs/"``, ``"console"``, a
        :class:`~repro.results.events.CollectingSink`, ...).
    store : RunStore or path, optional
        Persist the run: every completed trial is appended to
        ``<store>/<run_id>/trials.jsonl`` (flushed per trial), under a
        manifest carrying the full spec, its hash, the problem seed, and the
        repro version.  A crash at trial N loses at most the trial being
        written.  A run whose backend resolves to ``"sharded"`` (explicitly,
        through ``shards``, or through ``workers > 1`` / ``REPRO_WORKERS``)
        has each shard worker append to its own
        ``<store>/<run_id>/shard-<k>/trials.jsonl`` instead; the shards are
        merged into the flat layout once the run completes.
    run_id : str, optional
        Name of the stored run.  Defaults to
        ``"<problem name>-<fingerprint8>"`` — deterministic in (spec,
        problem), so a rerun of the same campaign finds its own store entry.
    resume : bool
        Continue an interrupted stored run: verifies the spec fingerprint,
        recovers a torn JSONL tail, re-runs only the missing trials, and
        returns the merged result — trial-identical to an uninterrupted run
        (the batched backend per its documented 1e-10 residual contract).
        A resumed run that is already complete returns immediately with
        zero new solves.  ``resume=True`` on a run that does not exist yet
        simply starts it.
    chaos : ChaosPolicy, optional
        Infrastructure fault injection for the supervised ``"sharded"``
        backend — test and CI instrumentation that kills/hangs shard
        workers and tears store appends (see :mod:`repro.faults.chaos`).
        Ignored by the single-process backends.

    Returns
    -------
    CampaignResult
        Trials in canonical order for every backend (common
        ``to_dict()``/``summary()`` schema), stamped with provenance
        (``repro_version``, ``seed``, ``spec_hash``).
    """
    spec = CampaignSpec.coerce(spec, **overrides)
    if problem is not None and not hasattr(problem, "A"):
        problem = resolve_problem(problem)
    campaign = FaultCampaign.from_spec(spec, problem=problem)
    # A sink built here from a registered spec is owned here and closed on
    # the way out; caller-supplied instances stay the caller's to close.
    owns_sink = isinstance(sink, (str, dict, tuple))
    sink = ensure_sink(resolve_sink(sink))
    try:
        if store is None:
            if resume or run_id is not None:
                raise RunStoreError("resume=/run_id= require store=")
            return campaign.run(
                locations=(list(spec.locations) if spec.locations is not None
                           else None),
                stride=spec.stride,
                progress=progress,
                sink=sink,
                chaos=chaos,
                **spec.exec.executor_kwargs(),
            )
        return _run_stored_campaign(campaign, spec, RunStore.coerce(store),
                                    run_id=run_id, resume=resume,
                                    progress=progress, sink=sink, chaos=chaos)
    finally:
        if owns_sink and sink is not None:
            sink.close()


def iter_trials(problem: Any = None, spec: Any = None,
                **overrides: Any) -> Iterator[TrialRecord]:
    """Stream a campaign's trial records as the backends complete them.

    A lazy generator over the serial backend (each record is yielded before
    the next trial starts); per completed batch over the batched backend
    and per durable shard append over the sharded backend (records arrive
    in completion order).  Each record is provenance-stamped.  Closing the
    generator early shuts the execution backend down cleanly (shard workers
    are killed; a storeless run's temporary shard stores are removed).

    Arguments are as for :func:`run_campaign` (minus the store/observer
    machinery — for persistent streaming, use ``run_campaign(store=...)``;
    for the full result object, use :func:`run_campaign`).

    Yields
    ------
    TrialRecord
    """
    spec = CampaignSpec.coerce(spec, **overrides)
    if problem is not None and not hasattr(problem, "A"):
        problem = resolve_problem(problem)
    campaign = FaultCampaign.from_spec(spec, problem=problem)
    plan = campaign.plan(
        locations=list(spec.locations) if spec.locations is not None else None,
        stride=spec.stride)
    exec_kwargs = spec.exec.executor_kwargs()
    for _, record in campaign.iter_records(plan.specs, **exec_kwargs):
        yield record


def serve(store: Any, spec: Any = None, **overrides: Any) -> int:
    """Run the campaign service daemon over a run store (blocking).

    The imperative facade of :mod:`repro.service`: accepts CampaignSpecs
    over HTTP/JSONL (``POST /jobs``), schedules up to ``max_jobs`` of them
    concurrently through :func:`run_campaign`'s store/resume path, and
    streams live events to subscribers.  ``spec`` is a
    :class:`~repro.specs.ServiceSpec` (or dict / keyword fields — ``host``,
    ``port``, ``max_jobs``, ``poll_interval``, ``drain_grace``).

    Blocks until stopped (SIGTERM/SIGINT drains running campaigns and
    re-queues them for the next daemon); returns the process exit status.
    Equivalent to the ``repro serve`` CLI subcommand.
    """
    from repro.service.server import ServiceDaemon

    return ServiceDaemon(RunStore.coerce(store),
                         ServiceSpec.coerce(spec, **overrides)).serve()


# ---------------------------------------------------------------------- #
# store-backed execution (checkpoint / resume)
# ---------------------------------------------------------------------- #
def _run_stored_campaign(campaign: FaultCampaign, spec: CampaignSpec,
                         store: RunStore, *, run_id: str | None, resume: bool,
                         progress: Callable[[int, int], None] | None,
                         sink: Any, chaos: Any = None) -> CampaignResult:
    """Execute a campaign with trial-granularity checkpointing in a store."""
    fingerprint = campaign.provenance["spec_hash"]
    if run_id is None:
        run_id = f"{campaign.problem.name}-{fingerprint[:8]}"

    completed: list[tuple[int, Any]] = []
    if resume and store.exists(run_id):
        manifest = store.manifest(run_id)
        if manifest.spec_hash != fingerprint:
            raise RunStoreError(
                f"run {run_id!r} was produced by a different campaign "
                f"(stored spec hash {manifest.spec_hash}, this campaign "
                f"{fingerprint}); choose another run_id")
        recovered = store.recover(run_id)  # also truncates torn tails
        # Error-supersede dedupe per index, then drop error records (worker
        # crash, timeout, poison): those indices count as *not done*, so the
        # resumed run re-executes exactly the casualties.  The re-run's
        # record supersedes the stored error record on read — in either
        # file order, since a resume may land the new record in a
        # lower-numbered shard than the stale error.
        completed = [(index, record)
                     for index, record in store._latest_records(run_id, recovered)
                     if getattr(record, "status", None) != "error"]
        plan = campaign.plan(
            locations=manifest.locations,
            baseline=(manifest.failure_free_outer,
                      manifest.failure_free_residual))
    else:
        if store.exists(run_id):
            raise RunStoreError(
                f"run {run_id!r} already exists in {store.root}; pass "
                f"resume=True to continue it or choose another run_id")
        plan = campaign.plan(
            locations=list(spec.locations) if spec.locations is not None else None,
            stride=spec.stride)
        manifest = RunManifest(
            run_id=run_id,
            spec=spec.replace(problem=None).to_dict(),
            spec_hash=fingerprint,
            problem_name=campaign.problem.name,
            repro_version=campaign.provenance["repro_version"],
            seed=campaign.provenance["seed"],
            mgs_position=campaign.mgs_position,
            inner_iterations=campaign.inner_iterations,
            detector_enabled=campaign.detector is not None,
            failure_free_outer=plan.failure_free_outer,
            failure_free_residual=plan.failure_free_residual,
            locations=list(plan.locations),
            fault_classes=list(campaign.fault_classes),
            total_trials=len(plan.specs),
            created_at=_utc_now(),
        )

    done_indices = {index for index, _ in completed}
    remaining = [s for s in plan.specs if s.index not in done_indices]

    backend = resolve_backend(spec.exec.backend, spec.exec.workers,
                              batch_size=spec.exec.batch_size,
                              shards=spec.exec.shards)
    if remaining and backend == "sharded":
        # Supervised execution: the shard workers persist their own records
        # durably (crash-survivably) into <run>/shard-<k>/ — a flat writer
        # here would double-store every trial.  The manifest still goes
        # down first so an interrupted run can identify itself on resume.
        store.write_manifest(manifest, resume=bool(completed) or resume)
        result = campaign.run_plan(
            plan, specs=remaining, progress=progress, sink=sink,
            completed=completed, event_data={"run_id": run_id},
            run_dir=store.run_path(run_id), chaos=chaos,
            on_supervisor_state=lambda state: store.update_manifest_extra(
                run_id, supervisor=state),
            **spec.exec.executor_kwargs())
    elif remaining:
        writer = store.create_run(manifest, resume=bool(completed) or resume)
        try:
            result = campaign.run_plan(
                plan, specs=remaining, progress=progress, sink=sink,
                # Persist first, observe second (run_plan's contract): an
                # interrupt raised by a sink never loses a completed trial.
                on_record=writer.append, completed=completed,
                event_data={"run_id": run_id}, chaos=chaos,
                **spec.exec.executor_kwargs())
        finally:
            writer.close()
    else:
        if not store.exists(run_id):
            # A zero-trial campaign still persists its manifest.
            store.create_run(manifest, resume=resume).close()
        result = campaign.run_plan(plan, specs=(), progress=progress,
                                   sink=sink, completed=completed,
                                   event_data={"run_id": run_id})
    store.finalize(run_id)
    # Compact shard directories into the flat layout now that the run is
    # complete (a no-op for unsharded runs); an interrupted run never gets
    # here, so its shard files stay put for resume.
    store.merge_shards(run_id)
    return result


def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
