"""One campaign through the public API, timed from outside.

Every timing here is taken around ``repro.api.run_campaign`` and
``RunStore.load_result`` or from the arrival times of the campaign's own
lifecycle events; nothing inside ``repro`` is instrumented.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter


class _SetupDone(Exception):
    """Raised by the probe sink to stop a campaign once its baseline is done."""


@dataclass
class CampaignRun:
    """One stored campaign: its records and the times its events arrived."""

    result: object          # CampaignResult returned by run_campaign
    loaded: object          # CampaignResult read back by RunStore.load_result
    manifest: object        # RunManifest of the stored run
    start: float
    baseline: float         # baseline_completed arrived
    first_record: float     # first trial_completed arrived
    returned: float         # run_campaign returned
    end: float              # load_result returned

    @property
    def trials(self) -> list:
        return self.result.trials

    @property
    def setup_s(self) -> float:
        return self.baseline - self.start

    @property
    def trial_phase_s(self) -> float:
        return self.returned - self.baseline

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def trials_per_s(self) -> float:
        return len(self.trials) / self.trial_phase_s

    def exec_metrics(self, workers: int) -> dict[str, float]:
        """Executor efficiency and overhead from record times and events."""
        busy = sum(t.elapsed for t in self.trials)
        supervisor = (self.manifest.extra or {}).get("supervisor") or {}
        return {
            "exec.efficiency": busy / (workers * self.trial_phase_s),
            "exec.overhead_s": self.trial_phase_s - busy / workers,
            "exec.first_record_s": self.first_record - self.baseline,
            "exec.retries": sum(int(n) for n in
                                supervisor.get("retries", {}).values()),
            "exec.quarantined": len(supervisor.get("quarantined", [])),
        }


def _fresh_store(work_dir: str) -> str:
    return tempfile.mkdtemp(prefix="store-", dir=work_dir)


def run_campaign(problem: dict, spec: dict, work_dir: str) -> CampaignRun:
    """Run one campaign into a fresh store and read it back."""
    from repro import api
    from repro.results.store import RunStore

    marks: dict[str, float] = {}

    def sink(event) -> None:
        marks.setdefault(event.kind, perf_counter())

    root = _fresh_store(work_dir)
    try:
        store = RunStore(root)
        start = perf_counter()
        result = api.run_campaign(problem, spec, store=store, sink=sink)
        returned = perf_counter()
        (run_id,) = store.run_ids()
        loaded = store.load_result(run_id, allow_partial=True)
        end = perf_counter()
        manifest = store.manifest(run_id)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    baseline = marks["baseline_completed"]
    return CampaignRun(result=result, loaded=loaded, manifest=manifest,
                       start=start, baseline=baseline,
                       first_record=marks.get("trial_completed", returned),
                       returned=returned, end=end)


def probe_setup(problem: dict, spec: dict, work_dir: str) -> float:
    """Seconds from the ``run_campaign`` call to ``baseline_completed``.

    The same call as :func:`run_campaign`, stopped by its own event sink as
    soon as the failure-free baseline is done, so set-up can be sampled many
    times in one run without paying for the trials.
    """
    from repro import api

    def sink(event) -> None:
        if event.kind == "baseline_completed":
            raise _SetupDone(perf_counter())

    root = _fresh_store(work_dir)
    try:
        start = perf_counter()
        try:
            api.run_campaign(problem, spec, store=root, sink=sink)
        except _SetupDone as done:
            return done.args[0] - start
        raise RuntimeError("campaign finished without a baseline_completed event")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def peak_rss_mb() -> float:
    """Peak resident set size of this process and its reaped children."""
    import resource

    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0
