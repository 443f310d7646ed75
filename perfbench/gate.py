"""The correctness gate every measured campaign passes through.

On any seed, three invariants hold for every trial:

1. the stored run reloads trial-identical to the returned result;
2. no trial is an ``status="error"`` record, and none is missing;
3. every converged trial meets ``outer_tol`` on its true relative residual.

For the workload's default seed the trials are also compared with the
committed reference under ``reference/``: the integer, status and flag
fields exactly, ``residual_norm`` within ``max(rtol * |ref|, atol)``.
A trial that breaks any of these counts as failed.
"""

from __future__ import annotations

import json
import math
import os

#: Per-trial fields compared exactly against the reference, in file order;
#: ``residual_norm`` follows them and is compared within a tolerance.
EXACT_FIELDS = ("fault_class", "aggregate_inner_iteration", "outer_iterations",
                "total_inner_iterations", "status", "converged",
                "faults_injected", "faults_detected")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def trial_row(record) -> list:
    return [getattr(record, f) for f in EXACT_FIELDS] + [record.residual_norm]


def load_reference(name: str) -> dict:
    with open(reference_path(name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_reference(name: str, seed: int, problem: dict, spec: dict,
                    trials) -> str:
    path = reference_path(name)
    payload = {"workload": name, "seed": seed, "problem": problem,
               "spec": spec, "fields": [*EXACT_FIELDS, "residual_norm"],
               "trials": [trial_row(t) for t in trials]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return path


def _close(value: float, expected: float, rtol: float, atol: float) -> bool:
    if math.isnan(expected) or math.isinf(expected):
        return repr(value) == repr(expected)
    return abs(value - expected) <= max(rtol * abs(expected), atol)


def check_trials(trials, *, total: int, loaded=None, b_norm: float,
                 outer_tol: float, reference: dict | None = None,
                 residual_rtol: float = 0.0,
                 residual_atol: float = 0.0) -> tuple[int, int, list[str]]:
    """Gate one campaign; return ``(failed, attempted, violation messages)``.

    ``total`` is the number of trials the campaign planned; trials it did
    not return count as failed, and so do trials the reference has beyond
    the plan.  ``loaded`` is the stored run read back
    (``None`` skips the round-trip check, e.g. for an in-memory replay).
    """
    bad: set[int] = set()
    problems: list[str] = []

    def fail(index: int, message: str) -> None:
        bad.add(index)
        if len(problems) < 20:
            problems.append(f"trial {index}: {message}")

    trials = list(trials)
    if reference is not None:
        # A campaign that plans fewer trials than the reference misses some.
        total = max(total, len(reference["trials"]))
    for index in range(len(trials), total):
        fail(index, "missing")
    for index in range(total, len(trials)):
        fail(index, "not in the plan or the reference")
    if loaded is not None:
        stored = list(loaded)
        for index, record in enumerate(trials):
            if index >= len(stored) or stored[index] != record:
                fail(index, "stored record differs from the returned one")
    for index, record in enumerate(trials):
        if record.status == "error":
            fail(index, f"error record: {record.error}")
        elif record.converged and not record.residual_norm <= outer_tol * b_norm:
            fail(index, f"converged with relative residual "
                        f"{record.residual_norm / b_norm:.3e} > {outer_tol:g}")
    if reference is not None:
        for index, (record, row) in enumerate(zip(trials, reference["trials"])):
            got = trial_row(record)
            if got[:-1] != row[:-1]:
                diff = {f: (g, e) for f, g, e in zip(EXACT_FIELDS, got, row)
                        if g != e}
                fail(index, f"differs from reference: {diff}")
            elif not _close(got[-1], row[-1], residual_rtol, residual_atol):
                fail(index, f"residual_norm {got[-1]!r} vs reference "
                            f"{row[-1]!r} (rtol {residual_rtol:g}, "
                            f"atol {residual_atol:g})")
    return len(bad), total, problems
