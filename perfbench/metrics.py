"""Metric definitions, the predictions they carry, and the per-layer readout.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (a test keeps
them in step).  Each per-layer metric also records which end-to-end metric
it should move and on which workload (``moves``), and where the prediction
is no change (``no_change``).  Later performance changes cite these entries
by metric name.
"""

from __future__ import annotations

import statistics

P30S, C400, P100, P30B = ("poisson30-serial", "circuit400-bound-sharded",
                          "poisson100-serial", "poisson30-batched")
ALL = (P30S, C400, P100, P30B)
SERIAL = (P30S, P100)

#: name -> (unit, better, bound, description).  Each timing is the median
#: over the run's samples (a run repeats its campaign 10-30 times), in
#: reference seconds: raw seconds scaled by the speed probe of ``probe.py``.
END_TO_END = {
    "trials_per_s": ("1/s", "higher", 0.24,
                     "trials per second of the trial phase, baseline_completed "
                     "to run_campaign's return"),
    "wall_s": ("s", "lower", 0.24,
               "run_campaign plus the load_result read-back"),
    "setup_s": ("s", "lower", 0.25,
                "run_campaign call to baseline_completed (problem build, "
                "campaign construction, failure-free solve): median of the "
                "run's set-up samples, spread over the run"),
    "peak_rss_mb": ("MB", "lower", 0.15,
                    "peak resident set size, max over the process and its "
                    "reaped children"),
}


def _layer(unit: str, better: str, layer: str, moves: str, on: tuple,
           no_change: tuple = ()) -> dict:
    return {"unit": unit, "better": better, "layer": layer,
            "moves": moves, "on": list(on), "no_change": list(no_change)}


_DET_OFF = tuple(w for w in ALL if w != C400)
_BATCH_OFF = tuple(w for w in ALL if w != P30B)

#: name -> definition; ``moves``/``on`` is the prediction, ``no_change`` the
#: workloads on which the metric should not move at all.
PER_LAYER = {
    "gallery.build_s": _layer("s", "lower", "gallery", "setup_s", (P100,)),
    "campaign.baseline_s": _layer("s", "lower", "faults.campaign", "setup_s",
                                  (P100, C400)),
    "campaign.trial_s.p50": _layer("s", "lower", "faults.campaign",
                                   "trials_per_s", SERIAL),
    "campaign.trial_s.p90": _layer("s", "lower", "faults.campaign",
                                   "trials_per_s", SERIAL),
    "campaign.trial_self_s": _layer("s", "lower", "faults.campaign",
                                    "trials_per_s", SERIAL + (C400,)),
    "core.inner_solves": _layer("count", "lower", "core.ftgmres",
                                "trials_per_s", SERIAL + (C400,)),
    "core.inner_solve_self_s": _layer("s", "lower", "core.gmres",
                                      "trials_per_s", SERIAL + (C400,)),
    "core.outer_iterations": _layer("count", "lower", "core.fgmres",
                                    "trials_per_s", ALL),
    "core.inner_iterations": _layer("count", "lower", "core.gmres",
                                    "trials_per_s", ALL),
    "core.arnoldi_steps": _layer("count", "lower", "core.arnoldi",
                                 "trials_per_s", (P30S, C400)),
    "core.arnoldi_self_s": _layer("s", "lower", "core.arnoldi",
                                  "trials_per_s", (P30S, C400)),
    "core.givens_calls": _layer("count", "lower", "core.hessenberg",
                                "trials_per_s", SERIAL + (C400,)),
    "core.givens_s": _layer("s", "lower", "core.hessenberg", "trials_per_s",
                            SERIAL + (C400,)),
    "core.lsq_calls": _layer("count", "lower", "core.hessenberg",
                             "trials_per_s", SERIAL + (C400,)),
    "core.lsq_s": _layer("s", "lower", "core.hessenberg", "trials_per_s",
                         SERIAL + (C400,)),
    "detectors.checks": _layer("count", "lower", "core.detectors",
                               "trials_per_s", (C400,), _DET_OFF),
    "detectors.check_s": _layer("s", "lower", "core.detectors",
                                "trials_per_s", (C400,), _DET_OFF),
    "detectors.flags": _layer("count", "higher", "core.detectors",
                              "trials_per_s", (C400,), _DET_OFF),
    "faults.hook_calls": _layer("count", "lower", "faults.injector",
                                "trials_per_s", (P30S, C400, P100)),
    "faults.hook_s": _layer("s", "lower", "faults.injector", "trials_per_s",
                            (P30S, C400, P100)),
    "faults.injections": _layer("count", "higher", "faults.injector",
                                "trials_per_s", (P30S, C400, P100)),
    "faults.fire_ratio": _layer("ratio", "higher", "faults.injector",
                                "trials_per_s", (P30S, C400, P100)),
    "sparse.spmv_calls": _layer("count", "lower", "sparse", "trials_per_s",
                                (P100, P30S)),
    "sparse.spmv_s": _layer("s", "lower", "sparse", "trials_per_s",
                            (P100, P30S)),
    "sparse.spmv_bytes_computed": _layer("bytes", "lower", "sparse",
                                         "trials_per_s", (P100, P30S)),
    "batched.lockstep_share": _layer("ratio", "lower", "core.batched",
                                     "trials_per_s", (P30B,), _BATCH_OFF),
    "batched.peeled": _layer("count", "lower", "core.batched", "trials_per_s",
                             (P30B,), _BATCH_OFF),
    "batched.lane_ratio": _layer("ratio", "higher", "core.batched",
                                 "trials_per_s", (P30B,), _BATCH_OFF),
    "store.appends": _layer("count", "lower", "results.store", "trials_per_s",
                            (P30B,)),
    "store.append_s": _layer("s", "lower", "results.store", "trials_per_s",
                             (P30B,)),
    "store.finalize_s": _layer("s", "lower", "results.store", "wall_s", (C400,)),
    "store.load_s": _layer("s", "lower", "results.store", "wall_s", (P30B,)),
    "exec.efficiency": _layer("ratio", "higher", "exec", "trials_per_s",
                              (C400,), SERIAL),
    "exec.overhead_s": _layer("s", "lower", "exec", "trials_per_s", (C400,),
                              SERIAL),
    "exec.first_record_s": _layer("s", "lower", "exec", "trials_per_s",
                                  (C400,), SERIAL),
    "exec.retries": _layer("count", "lower", "exec", "trials_per_s", (C400,),
                           SERIAL),
    "exec.quarantined": _layer("count", "lower", "exec", "trials_per_s",
                               (C400,), SERIAL),
    "trace.overhead_s": _layer("s", "lower", "benchmark", "wall_s", ()),
}

#: Per-layer metrics that are exact counts: they repeat exactly between two
#: traced runs of one input, so a difference is a change in work done.
#: (``exec.*`` come from the untraced run and are not replayed.)
EXACT_COUNTS = tuple(name for name, d in PER_LAYER.items()
                     if d["unit"] in ("count", "bytes")
                     and not name.startswith("exec."))


def quantiles(values) -> dict[str, float]:
    """Median and quartiles, as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer, run, backend: str) -> dict[str, float]:
    """Per-layer metrics of one traced campaign (``exec.*`` come separately).

    ``campaign.trial_s.*`` come from ``run_spec`` spans, which a batched
    campaign only makes for the trials it peels to the serial path.
    """
    s = tracer.stats
    trials = run.trials
    hooks = (s["faults.corrupt_scalar"], s["faults.corrupt_vector"])
    hook_calls = sum(h.calls for h in hooks)
    injections = sum(t.faults_injected for t in trials)
    batched = backend == "batched"
    lanes = s["batched.batched_ft_gmres"].counter
    return {
        "gallery.build_s": s["gallery.resolve_problem"].total_s,
        "campaign.baseline_s": s["campaign.run_failure_free"].total_s,
        "campaign.trial_s.p50": _percentile(s["campaign.run_spec"].durations, 50),
        "campaign.trial_s.p90": _percentile(s["campaign.run_spec"].durations, 90),
        "campaign.trial_self_s": s["campaign.run_spec"].self_s,
        "core.inner_solves": s["core.gmres"].calls,
        "core.inner_solve_self_s": s["core.gmres"].self_s,
        "core.outer_iterations": sum(t.outer_iterations for t in trials),
        "core.inner_iterations": sum(t.total_inner_iterations for t in trials),
        "core.arnoldi_steps": s["core.arnoldi_step"].calls,
        "core.arnoldi_self_s": s["core.arnoldi_step"].self_s,
        "core.givens_calls": s["core.add_column"].calls,
        "core.givens_s": s["core.add_column"].total_s,
        "core.lsq_calls": s["core.solve_y"].calls,
        "core.lsq_s": s["core.solve_y"].total_s,
        "detectors.checks": s["detectors.check_scalar"].calls,
        "detectors.check_s": tracer.layer_s["detectors"],
        "detectors.flags": sum(t.faults_detected for t in trials),
        "faults.hook_calls": hook_calls,
        "faults.hook_s": tracer.layer_s["faults"],
        "faults.injections": injections,
        "faults.fire_ratio": injections / hook_calls if hook_calls else 0.0,
        "sparse.spmv_calls": s["sparse.matvec"].calls,
        "sparse.spmv_s": s["sparse.matvec"].total_s,
        "sparse.spmv_bytes_computed": s["sparse.matvec"].counter,
        "batched.lockstep_share": (s["batched.batched_ft_gmres"].total_s
                                   / run.trial_phase_s),
        "batched.peeled": s["campaign.run_spec_safe"].calls if batched else 0,
        "batched.lane_ratio": lanes / len(trials) if trials else 0.0,
        "store.appends": s["store.append"].calls,
        "store.append_s": s["store.append"].total_s,
        "store.finalize_s": (s["store.finalize"].total_s
                             + s["store.merge_shards"].total_s),
        "store.load_s": s["store.load_result"].total_s,
    }
