"""Durable job queue + bounded campaign scheduler for ``repro serve``.

Job records live *inside the run store* at ``<root>/_jobs/<job_id>.json``
(the ``_jobs`` name cannot collide with run ids, which must start with an
alphanumeric).  Every record rewrite is atomic (tmp + ``os.replace``) and
every read-modify-write cycle happens under the store's cross-process
advisory lock (:class:`repro.results.store.StoreLock`), so concurrent HTTP
submissions, the scheduler thread, and the worker processes all serialize
onto consistent records.

Job identity is content-addressed: :func:`job_fingerprint` hashes the
CampaignSpec with its execution knobs normalized away, so two clients
POSTing the same campaign race to *one* job (and one stored run —
``run_id = "job-<fingerprint>"``), while different problems or physics get
different jobs.

Lifecycle::

    queued -> running -> completed
                      -> failed          (worker raised)
                      -> cancelled       (DELETE /jobs/<id> drained it)
             -> queued                   (daemon drained/restarted: resume)

Each running job is one forked worker process executing the campaign
through the ordinary ``run_campaign(store=, resume=True)`` path — including
the sharded supervisor when the spec asks for it — so worker crashes and
daemon restarts resume exactly the missing trials, never re-solving
completed ones (the store raises on duplicate successful records, so this
property is *checked*, not assumed).
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable

from repro.results.store import RunStore, StoreLock
from repro.specs import CampaignSpec, ExecutionSpec, SpecError, spec_hash
from repro.utils.io import atomic_write_json

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobError",
    "JobRecord",
    "JobStore",
    "CampaignScheduler",
    "job_fingerprint",
    "register_fork_cleanup",
]

JOB_STATES = ("queued", "running", "completed", "failed", "cancelled")
TERMINAL_STATES = ("completed", "failed", "cancelled")

#: The store subdirectory holding job records and the daemon pidfile.
JOBS_DIR = "_jobs"
_JOB_FILE_RE = re.compile(r"^([0-9a-f]{16})\.json$")

# Drained-at-a-trial-boundary exit code, shared with the sharded supervisor.
from repro.exec.supervisor import EXIT_DRAINED, SupervisorDrained  # noqa: E402


class JobError(RuntimeError):
    """A job-store problem (unknown job, corrupt record, ...)."""


def _utc_now() -> str:
    import datetime

    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%S.%fZ")


def job_fingerprint(spec: CampaignSpec) -> str:
    """The content-addressed job id of a campaign submission.

    Execution knobs are normalized away (``exec`` reset to defaults) so
    resubmitting the same campaign with different worker counts dedupes to
    the same job, but — unlike the run store's ``campaign_fingerprint`` —
    the ``problem`` field stays *in* the hash: the service builds the
    problem from the spec, so ``poisson:8`` and ``poisson:30`` must be
    different jobs.  A spec without a problem cannot run service-side.
    """
    spec = CampaignSpec.coerce(spec)
    if spec.problem is None:
        raise SpecError("problem",
                        "a service job needs an explicit problem spec "
                        "(e.g. \"poisson:30\"); problem=None only works "
                        "in-process where the caller passes the object")
    if not isinstance(spec.problem, (str, dict)):
        raise SpecError("problem",
                        "a service job needs a JSON problem spec (string or "
                        f"dict), got a built {type(spec.problem).__name__}")
    normalized = spec.replace(exec=ExecutionSpec())
    return spec_hash({"service_job": normalized.to_dict()})


@dataclass
class JobRecord:
    """One durable job: the submitted spec plus its scheduling state."""

    job_id: str
    spec: dict
    run_id: str
    status: str = "queued"
    created_at: str = ""
    started_at: str | None = None
    finished_at: str | None = None
    error: str | None = None
    pid: int | None = None
    #: How many times this spec was POSTed (dedupe accounting).
    submissions: int = 1
    #: Set by DELETE; the scheduler drains the worker and marks ``cancelled``.
    cancel_requested: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise JobError(f"unknown job record field {unknown[0]!r}")
        return cls(**data)


class JobStore:
    """The durable job index of one run store (``<root>/_jobs/``)."""

    def __init__(self, store) -> None:
        self.store = RunStore.coerce(store)
        self.dir = os.path.join(self.store.root, JOBS_DIR)
        os.makedirs(self.dir, exist_ok=True)

    def lock(self) -> StoreLock:
        """The advisory submission/transition lock (short-lived; per-op)."""
        return StoreLock(self.dir, name=".jobs.lock")

    def path(self, job_id: str) -> str:
        return os.path.join(self.dir, f"{job_id}.json")

    def exists(self, job_id: str) -> bool:
        return os.path.isfile(self.path(job_id))

    def read(self, job_id: str) -> JobRecord:
        try:
            with open(self.path(job_id), "r", encoding="utf-8") as handle:
                return JobRecord.from_dict(json.load(handle))
        except FileNotFoundError:
            raise JobError(f"no job {job_id!r} in {self.dir}") from None
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise JobError(f"corrupt job record {job_id!r}: {exc}") from None

    def write(self, record: JobRecord) -> None:
        """Atomic record rewrite (tmp + replace; same contract as manifests)."""
        atomic_write_json(self.path(record.job_id), record.to_dict(), indent=2)

    def list(self) -> list[JobRecord]:
        """Every job record, FIFO by (created_at, job_id)."""
        records = []
        for name in os.listdir(self.dir):
            match = _JOB_FILE_RE.match(name)
            if not match:
                continue  # daemon.json, lock files, tmp files
            try:
                records.append(self.read(match.group(1)))
            except JobError:
                continue  # a record mid-replace; the next poll sees it
        return sorted(records, key=lambda r: (r.created_at, r.job_id))

    def submit(self, spec) -> tuple[JobRecord, bool]:
        """Submit a campaign; returns ``(record, created)``.

        Content-addressed and idempotent under the advisory lock: a job that
        already exists bumps its ``submissions`` counter instead of forking
        a second run; ``failed``/``cancelled`` jobs re-queue (retry
        semantics — the stored run resumes), ``queued``/``running``/
        ``completed`` jobs are returned as-is.
        """
        spec = CampaignSpec.coerce(spec)
        job_id = job_fingerprint(spec)
        with self.lock():
            if self.exists(job_id):
                record = self.read(job_id)
                record.submissions += 1
                if record.status in ("failed", "cancelled"):
                    record.status = "queued"
                    record.error = None
                    record.pid = None
                    record.started_at = None
                    record.finished_at = None
                    record.cancel_requested = False
                self.write(record)
                return record, False
            record = JobRecord(job_id=job_id, spec=spec.to_dict(),
                               run_id=f"job-{job_id}", created_at=_utc_now())
            self.write(record)
            return record, True

    def update(self, job_id: str, **changes) -> JobRecord:
        """Locked read-modify-write of one record (unknown fields raise)."""
        known = {f.name for f in dataclasses.fields(JobRecord)}
        unknown = sorted(set(changes) - known)
        if unknown:
            raise JobError(f"unknown job record field {unknown[0]!r}")
        with self.lock():
            record = self.read(job_id)
            for name, value in changes.items():
                setattr(record, name, value)
            self.write(record)
            return record

    def request_cancel(self, job_id: str) -> JobRecord:
        """Flag a job for cancellation (no-op on terminal jobs).

        Only the *scheduler* transitions state in response — the HTTP thread
        setting ``status`` directly could race the scheduler's own
        queued→running transition — so this just raises the flag; the next
        scheduler tick drains a running worker (SIGTERM at a trial boundary)
        or retires a queued job.
        """
        with self.lock():
            record = self.read(job_id)
            if not record.terminal and not record.cancel_requested:
                record.cancel_requested = True
                self.write(record)
            return record


# --------------------------------------------------------------------- #
# the forked campaign worker
# --------------------------------------------------------------------- #
class _JobDrained(Exception):
    """Internal: SIGTERM observed at a trial boundary; stop cleanly."""


#: Callables a freshly forked worker runs to close inherited daemon state
#: (most importantly the HTTP listening socket — an orphaned worker holding
#: it would block a restarted daemon from rebinding the port).
_FORK_CLEANUPS: list[Callable[[], None]] = []


def register_fork_cleanup(fn: Callable[[], None]) -> None:
    """Register daemon state for forked workers to close at startup."""
    _FORK_CLEANUPS.append(fn)


def _run_fork_cleanups() -> None:
    for fn in _FORK_CLEANUPS:
        try:
            fn()
        except Exception:
            pass
    _FORK_CLEANUPS.clear()


def _job_worker(store_root: str, job_id: str, run_id: str, spec_dict: dict) -> None:
    """Run one job's campaign to completion (the forked child's main).

    Exit codes: 0 = campaign complete; ``EXIT_DRAINED`` (96) = SIGTERM
    observed and drained at a trial boundary (every completed trial is
    persisted; resume re-runs exactly the rest); 1 = the campaign raised
    (the error text lands in the job record before exiting).

    SIGTERM handling is cooperative and loss-free: the handler only sets a
    flag, and a sink callback raises at the next ``trial_completed`` /
    ``baseline_completed`` event — which the campaign layer emits *after*
    persisting the record — so draining never loses a finished trial.  The
    sharded backend supersedes this with the supervisor's own drain (its
    ``SupervisorDrained`` maps to the same exit code).
    """
    from repro.api import run_campaign
    from repro.results.events import JsonlEventSink
    from repro.service.streams import run_events_path

    _run_fork_cleanups()
    drain = {"requested": False}

    def _on_term(signum, frame):
        drain["requested"] = True

    signal.signal(signal.SIGTERM, _on_term)

    store = RunStore(store_root)
    jobs = JobStore(store)
    try:
        spec = CampaignSpec.from_dict(spec_dict)
        events = JsonlEventSink(run_events_path(store, run_id))

        def _boundary(event):
            if drain["requested"] and event.kind in ("trial_completed",
                                                     "baseline_completed"):
                raise _JobDrained()

        try:
            run_campaign(spec=spec, store=store, run_id=run_id, resume=True,
                         sink=[events, _boundary])
        finally:
            events.close()
    except (_JobDrained, SupervisorDrained, KeyboardInterrupt):
        sys.exit(EXIT_DRAINED)
    except BaseException as exc:  # noqa: BLE001 - the record carries it
        try:
            jobs.update(job_id, error=f"{type(exc).__name__}: {exc}")
        except Exception:
            pass
        sys.exit(1)
    sys.exit(0)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def _terminate_pid(pid: int, grace: float) -> None:
    """SIGTERM a process, escalate to SIGKILL after ``grace`` seconds."""
    if not _pid_alive(pid):
        return
    try:
        os.kill(pid, signal.SIGTERM)
    except OSError:
        return
    deadline = time.monotonic() + grace
    while time.monotonic() < deadline:
        if not _pid_alive(pid):
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


# --------------------------------------------------------------------- #
# the scheduler
# --------------------------------------------------------------------- #
class CampaignScheduler:
    """Runs queued jobs as forked workers, at most ``max_jobs`` at a time.

    Single-threaded by design: the daemon calls :meth:`tick` from its main
    loop, and *only* the scheduler transitions job state (HTTP threads
    submit and raise flags).  Each tick reaps finished workers, polices
    cancel flags, and launches queued jobs FIFO.
    """

    def __init__(self, jobs: JobStore, *, max_jobs: int = 2,
                 drain_grace: float = 10.0,
                 on_update: Callable[[JobRecord], None] | None = None):
        import multiprocessing

        self.jobs = jobs
        self.max_jobs = int(max_jobs)
        self.drain_grace = float(drain_grace)
        self.on_update = on_update
        self._mp = multiprocessing.get_context("fork")
        self._running: dict[str, object] = {}
        self._signalled: set[str] = set()

    @property
    def running(self) -> int:
        return len(self._running)

    def _transition(self, job_id: str, **changes) -> JobRecord:
        record = self.jobs.update(job_id, **changes)
        if self.on_update is not None:
            self.on_update(record)
        return record

    # ------------------------------------------------------------------ #
    def recover(self) -> None:
        """Startup pass: retire orphans from a previous daemon, re-queue work.

        A SIGKILL-ed daemon leaves ``running`` records whose worker pids may
        still be alive (re-parented orphans).  Launching a second worker on
        the same run would put two writers on one store — so orphans are
        terminated (drain, then kill) *before* their jobs re-queue.  Queued
        jobs with a pending cancel flag retire immediately.
        """
        for record in self.jobs.list():
            if record.status == "running":
                if record.pid is not None:
                    _terminate_pid(record.pid, self.drain_grace)
                self._transition(record.job_id, status="queued", pid=None,
                                 started_at=None)
            elif record.status == "queued" and record.cancel_requested:
                self._transition(record.job_id, status="cancelled",
                                 cancel_requested=False,
                                 finished_at=_utc_now())

    def tick(self) -> None:
        """One scheduler round: reap, police cancels, launch."""
        self._reap()
        self._police_cancels()
        self._launch()

    # ------------------------------------------------------------------ #
    def _reap(self) -> None:
        for job_id, proc in list(self._running.items()):
            if proc.is_alive():
                continue
            proc.join()
            exitcode = proc.exitcode
            del self._running[job_id]
            self._signalled.discard(job_id)
            record = self.jobs.read(job_id)
            if exitcode == 0:
                # Completion wins even over a late cancel: the work is done.
                self._transition(job_id, status="completed", pid=None,
                                 cancel_requested=False,
                                 finished_at=_utc_now())
            elif record.cancel_requested:
                self._transition(job_id, status="cancelled", pid=None,
                                 cancel_requested=False,
                                 finished_at=_utc_now())
            elif exitcode in (EXIT_DRAINED, -signal.SIGTERM):
                # Drained from outside (not a cancel): resume on a later tick.
                self._transition(job_id, status="queued", pid=None,
                                 started_at=None)
            else:
                error = record.error or f"job worker exited with code {exitcode}"
                self._transition(job_id, status="failed", pid=None,
                                 error=error, finished_at=_utc_now())

    def _police_cancels(self) -> None:
        for record in self.jobs.list():
            if not record.cancel_requested:
                continue
            proc = self._running.get(record.job_id)
            if proc is not None:
                if record.job_id not in self._signalled and proc.is_alive():
                    proc.terminate()  # drains at the next trial boundary
                    self._signalled.add(record.job_id)
            elif record.status == "queued":
                self._transition(record.job_id, status="cancelled",
                                 cancel_requested=False,
                                 finished_at=_utc_now())

    def _launch(self) -> None:
        if len(self._running) >= self.max_jobs:
            return
        for record in self.jobs.list():
            if len(self._running) >= self.max_jobs:
                return
            if (record.status != "queued" or record.cancel_requested
                    or record.job_id in self._running):
                continue
            # Mark the job running (clearing any stale error) *before* the
            # worker starts: a worker that fails fast writes its own error
            # into the record, and a later transition would erase it.
            self._transition(record.job_id, status="running",
                             started_at=_utc_now(), error=None)
            proc = self._mp.Process(
                target=_job_worker,
                args=(self.jobs.store.root, record.job_id, record.run_id,
                      record.spec),
                name=f"repro-job-{record.job_id}",
                daemon=True,
            )
            proc.start()
            self._running[record.job_id] = proc
            self._transition(record.job_id, pid=proc.pid)

    # ------------------------------------------------------------------ #
    def drain(self) -> int:
        """Shutdown pass: drain every running worker, re-queue their jobs.

        SIGTERMs all workers (they stop at a trial boundary), waits up to
        ``drain_grace`` seconds, SIGKILLs stragglers, and marks every one
        ``queued`` again — a restarted daemon resumes them with zero
        re-solves of completed trials.  Returns how many jobs re-queued.
        """
        for proc in self._running.values():
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + self.drain_grace
        for proc in self._running.values():
            remaining = deadline - time.monotonic()
            proc.join(timeout=max(remaining, 0.0))
        drained = 0
        for job_id, proc in list(self._running.items()):
            if proc.is_alive():
                proc.kill()
                proc.join()
            del self._running[job_id]
            record = self.jobs.read(job_id)
            if record.cancel_requested:
                self._transition(job_id, status="cancelled", pid=None,
                                 cancel_requested=False,
                                 finished_at=_utc_now())
            else:
                self._transition(job_id, status="queued", pid=None,
                                 started_at=None)
            drained += 1
        self._signalled.clear()
        return drained
