"""The campaign execution engine.

A fault campaign is hundreds to thousands of *independent* nested FT-GMRES
solves — one per (fault class, injection location) pair.  This module
schedules them over three backends:

* ``"serial"``  — the plain loop (reference semantics, zero overhead);
* ``"batched"`` — the trial-batched lockstep engine (:mod:`repro.core.batched`):
  ``batch_size`` trials advance together through shared block kernels in
  this process, amortizing sparse index traffic and interpreter overhead
  across the batch.  It needs no extra CPUs.
* ``"sharded"`` — the one multi-process backend
  (:mod:`repro.exec.supervisor`): the trial range is partitioned into
  ``shards`` contiguous blocks, each run by a forked worker process that
  inherits the parent's built campaign and writes its own durable shard
  store; the supervisor watches heartbeats, SIGKILLs workers stuck past
  ``trial_timeout``, restarts crashed workers with bounded retries, and
  quarantines poison trials.

``backend=None`` resolves through :func:`resolve_backend`, the one
selection rule shared by the executor and the run store: an explicit
``batch_size`` selects ``"batched"``, an explicit ``shards`` or a worker
count above one (explicit or from ``REPRO_WORKERS``) selects ``"sharded"``,
anything else runs serially.

Design invariants:

* **Deterministic result ordering.**  Every spec carries its position in the
  canonical serial order and results are reassembled by that index, so a
  sharded campaign is trial-for-trial identical to a serial one regardless
  of completion order (asserted in the test suite).  The guarantee covers
  stateless detectors and deterministic fault models — the paper's
  configuration.  Components that accumulate state *across* trials (e.g.
  ``NormGrowthDetector``) start every shard worker from the parent's
  post-baseline state, like serial's first trial, and then see only their
  shard's history; sweep them serially.
* **Streaming completion.**  :meth:`CampaignExecutor.iter_records` yields
  ``(index, record)`` pairs as trials complete on every backend (lazily on
  serial, per completed batch on batched, per durable shard append on
  sharded) — the primitive under ``run()``, the ``iter_trials()`` facade,
  and the run store's incremental checkpointing.  ``progress(done, total)``
  callbacks fire per completed trial.
"""

from __future__ import annotations

import os

__all__ = ["BACKENDS", "BACKEND_KNOBS", "BackendKnobError", "DEFAULT_BATCH_SIZE",
           "CampaignExecutor", "resolve_workers", "resolve_backend",
           "validate_backend_knobs"]


class BackendKnobError(ValueError):
    """An inconsistent backend/knob combination (a configuration error).

    A distinct type so callers presenting configuration errors (the CLI, the
    spec layer) can catch it without also swallowing genuine ``ValueError``
    bugs raised from inside the numerical kernels.
    """

#: Recognized execution backends.
BACKENDS = ("serial", "batched", "sharded")

#: Which execution knobs each backend consumes.  Combinations outside this
#: table are rejected up front (see :func:`validate_backend_knobs`) instead
#: of being silently ignored.  Mirrored as metadata in the ``"backend"``
#: namespace of :mod:`repro.registry`.  ``workers`` sizes the sharded
#: worker fleet when ``shards`` is not given.
BACKEND_KNOBS = {
    "serial": frozenset(),
    "batched": frozenset({"batch_size"}),
    "sharded": frozenset({"workers", "shards", "max_retries",
                          "heartbeat_interval"}),
}

#: Default lockstep batch width for the ``"batched"`` backend: wide enough to
#: amortize interpreter dispatch across the batch, narrow enough that the
#: per-batch basis blocks stay cache/memory friendly at paper scale.
DEFAULT_BATCH_SIZE = 32


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value, ``REPRO_WORKERS``, or 1.

    ``workers=0`` (or ``REPRO_WORKERS=0``) means "one per CPU".
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        if env is None:
            return 1
        workers = int(env)
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def resolve_backend(backend: str | None = None, workers: int | None = None, *,
                    batch_size: int | None = None,
                    shards: int | None = None) -> str:
    """The one backend-selection rule (executor and run store alike).

    An explicit ``backend`` wins.  Otherwise an explicit ``batch_size``
    selects ``"batched"``; an explicit ``shards``, or a worker count above
    one, selects ``"sharded"``; anything else is ``"serial"``.  ``workers``
    may be ``None``, in which case it resolves through
    :func:`resolve_workers` (the ``REPRO_WORKERS`` environment default) —
    which is only a default and never vetoes an explicit ``batch_size``.
    """
    if backend is not None:
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        return backend
    if batch_size is not None:
        return "batched"
    if shards is not None or resolve_workers(workers) > 1:
        return "sharded"
    return "serial"


def validate_backend_knobs(backend: str | None, *, workers: int | None = None,
                           batch_size: int | None = None,
                           shards: int | None = None,
                           max_retries: int | None = None,
                           heartbeat_interval: float | None = None) -> None:
    """Reject knob/backend combinations that would be silently ignored.

    Only *explicitly supplied* knobs (non-``None``) are checked, so defaults
    and the ``REPRO_WORKERS`` environment variable never trip this.
    ``backend=None`` is always consistent except for ambiguous pairs — an
    explicit ``batch_size`` selects ``'batched'`` while ``shards`` or a
    parallel ``workers`` count selects ``'sharded'``, and ``shards`` with a
    parallel ``workers`` count names two fleet sizes (see
    :func:`resolve_backend`).
    Raises :class:`BackendKnobError` with the knob to drop or the backend to pick.
    """
    if backend is not None and backend not in BACKENDS:
        raise BackendKnobError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend is None:
        if batch_size is not None and workers is not None and workers > 1:
            raise BackendKnobError(
                f"batch_size={batch_size} and workers={workers} are mutually "
                f"exclusive without an explicit backend: batch_size selects the "
                f"single-process 'batched' engine; drop one knob or pass backend=")
        if shards is not None and batch_size is not None:
            raise BackendKnobError(
                f"shards={shards} and batch_size={batch_size} are mutually "
                f"exclusive without an explicit backend: shards selects the "
                f"'sharded' supervisor, batch_size selects the 'batched' "
                f"engine; drop one knob or pass backend=")
        if shards is not None and workers is not None and workers > 1:
            raise BackendKnobError(
                f"shards={shards} and workers={workers} are mutually exclusive "
                f"without an explicit backend: the sharded supervisor sizes "
                f"its worker fleet from shards; drop one knob or pass backend=")
        if shards is None:
            for name, value in (("max_retries", max_retries),
                                ("heartbeat_interval", heartbeat_interval)):
                if value is not None:
                    raise BackendKnobError(
                        f"{name}={value} only applies to the supervised backend "
                        f"('sharded'); set shards= or backend='sharded' to "
                        f"select it, or drop {name}.")
        return
    allowed = BACKEND_KNOBS[backend]
    if batch_size is not None and "batch_size" not in allowed:
        raise BackendKnobError(
            f"batch_size only applies to backend='batched' (it is the lockstep "
            f"batch width); backend={backend!r} would ignore batch_size="
            f"{batch_size}. Drop batch_size or use backend='batched'.")
    # workers=1 is the serial meaning of "no parallelism" and stays accepted
    # everywhere; only a parallel worker count on a single-process backend
    # errors.
    if workers is not None and workers != 1 and "workers" not in allowed:
        raise BackendKnobError(
            f"workers only applies to the multi-process backend ('sharded'); "
            f"backend={backend!r} would ignore workers={workers}. "
            f"Drop workers or use backend='sharded'.")
    for name, value in (("shards", shards), ("max_retries", max_retries),
                        ("heartbeat_interval", heartbeat_interval)):
        if value is not None and name not in allowed:
            raise BackendKnobError(
                f"{name} only applies to the supervised backend ('sharded'); "
                f"backend={backend!r} would ignore {name}={value}. "
                f"Drop {name} or use backend='sharded'.")


# ---------------------------------------------------------------------- #
# the executor
# ---------------------------------------------------------------------- #
class CampaignExecutor:
    """Schedules a campaign's independent trials over a chosen backend.

    Parameters
    ----------
    campaign : FaultCampaign
        The built campaign whose trials run.  Sharded workers are forked
        from this process and inherit it; nothing is rebuilt.
    backend : {"serial", "batched", "sharded"} or None
        ``None`` auto-selects through :func:`resolve_backend`.  The
        ``"batched"`` backend advances trials in lockstep through shared
        block kernels in this process (see :mod:`repro.core.batched`); the
        ``"sharded"`` backend runs crash-supervised worker processes (see
        :mod:`repro.exec.supervisor`).
    workers : int, optional
        Worker count; defaults to the ``REPRO_WORKERS`` environment variable
        and then 1.  ``0`` means one per CPU.  Above one it selects (and
        sizes) the ``"sharded"`` backend.
    batch_size : int, optional
        Lockstep batch width for the ``"batched"`` backend (default
        :data:`DEFAULT_BATCH_SIZE`); setting it with ``backend=None``
        selects that backend.
    shards : int, optional
        Worker-process count for the ``"sharded"`` supervisor; setting it
        with ``backend=None`` selects that backend (falls back to
        ``workers`` when not given).
    max_retries : int, optional
        Crashes a single trial may cause before the sharded supervisor
        quarantines it as a poison error record (default
        :data:`repro.exec.supervisor.DEFAULT_MAX_RETRIES`).
    heartbeat_interval : float, optional
        Seconds between supervisor liveness polls (default
        :data:`repro.exec.supervisor.DEFAULT_HEARTBEAT_INTERVAL`).
    run_dir : str, optional
        Run directory whose ``shard-<k>/`` subdirectories hold the durable
        shard stores (sharded backend; an ephemeral temp dir is used when
        omitted, e.g. for storeless campaigns).
    chaos : ChaosPolicy, optional
        Fault-injection policy for the supervisor's *own* infrastructure
        (see :mod:`repro.faults.chaos`) — test/CI instrumentation.
    on_supervisor_state : callable, optional
        ``on_supervisor_state(state_dict)`` invoked whenever the sharded
        supervisor's retry/quarantine bookkeeping changes (the run store
        persists it into the manifest).
    """

    def __init__(self, campaign, *, backend: str | None = None,
                 workers: int | None = None, batch_size: int | None = None,
                 shards: int | None = None, max_retries: int | None = None,
                 heartbeat_interval: float | None = None,
                 run_dir: str | None = None, chaos=None,
                 on_supervisor_state=None):
        if not hasattr(campaign, "run_spec_safe"):
            raise TypeError(
                f"campaign must be a FaultCampaign, got {type(campaign).__name__}")
        self.campaign = campaign
        if batch_size is not None and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if shards is not None and shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if max_retries is not None and max_retries <= 0:
            raise ValueError(f"max_retries must be positive, got {max_retries}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}")
        # Explicit knobs must be consistent with the (resolved) backend —
        # silently ignoring e.g. batch_size under backend="sharded" hides
        # configuration mistakes (checked before workers pick up the
        # REPRO_WORKERS environment default, which never trips this).
        validate_backend_knobs(backend, workers=workers, batch_size=batch_size,
                               shards=shards, max_retries=max_retries,
                               heartbeat_interval=heartbeat_interval)
        self.workers = resolve_workers(workers)
        self.backend = resolve_backend(backend, self.workers,
                                       batch_size=batch_size, shards=shards)
        if backend is None:
            # Re-check the explicit knobs against the auto-selected backend
            # (workers is exempt here: it either chose the backend or came
            # from the environment default).
            validate_backend_knobs(self.backend, batch_size=batch_size,
                                   shards=shards, max_retries=max_retries,
                                   heartbeat_interval=heartbeat_interval)
        self.batch_size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
        self.shards = shards if shards is not None else self.workers
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.run_dir = run_dir
        self.chaos = chaos
        self.on_supervisor_state = on_supervisor_state
        #: The live ShardedSupervisor while a supervised iteration runs
        #: (``request_drain()`` hook for graceful-shutdown callers).
        self.supervisor = None

    # ------------------------------------------------------------------ #
    def run(self, specs, progress=None) -> list:
        """Execute all trial specs; return records in canonical spec order.

        Parameters
        ----------
        specs : sequence of TrialSpec
            The work list.  ``spec.index`` values must be unique; they define
            the output order.
        progress : callable, optional
            ``progress(done, total)`` callback, fired per completed trial.

        Returns
        -------
        list of TrialRecord
            One record per spec, ordered by ``spec.index`` — identical to
            what a serial loop over the same specs would produce.
        """
        specs = list(specs)
        total = len(specs)
        records: list[tuple[int, object]] = []
        for index, record in self.iter_records(specs):
            records.append((index, record))
            if progress is not None:
                progress(len(records), total)
        records.sort(key=lambda pair: pair[0])
        return [record for _, record in records]

    def iter_records(self, specs):
        """Stream ``(index, record)`` pairs as trials complete.

        This is the executor's streaming primitive — :meth:`run`, the
        :func:`repro.api.iter_trials` facade, and the run store's
        incremental checkpointing are all built on it.  Records arrive in
        *completion* order: lazily one-by-one on the serial backend, per
        completed batch on the lockstep batched backend, per durable shard
        append on the sharded backend.  Consuming the generator partially
        is safe on every backend (shard workers are killed when the
        generator is closed), which is what makes mid-campaign interruption
        recoverable.
        """
        specs = list(specs)
        total = len(specs)
        if total == 0:
            return
        indices = [spec.index for spec in specs]
        if len(set(indices)) != total:
            raise ValueError("trial spec indices must be unique")

        if self.backend == "sharded":
            yield from self._iter_supervised(specs)
        elif self.backend == "batched":
            yield from self.campaign.iter_specs_batched(
                specs, batch_size=self.batch_size)
        else:
            for spec in specs:
                yield spec.index, self.campaign.run_spec_safe(spec)

    # ------------------------------------------------------------------ #
    def _iter_supervised(self, specs):
        from repro.exec.supervisor import ShardedSupervisor

        supervisor = ShardedSupervisor(
            self.campaign, shards=self.shards,
            max_retries=self.max_retries,
            heartbeat_interval=self.heartbeat_interval,
            run_dir=self.run_dir, chaos=self.chaos,
            on_state=self.on_supervisor_state)
        self.supervisor = supervisor
        try:
            yield from supervisor.iter_records(specs)
        finally:
            self.supervisor = None
