"""Standing campaign benchmark: one command, four named workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload poisson30-serial --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped: each run
repeats the whole campaign while the time budget lasts, sampling set-up
between campaigns, and reports the medians; its steadiness report gives the
quartiles and spread of every metric over the run's samples.  Timings are
reported in reference seconds: each interval is scaled by the machine-speed
probe of ``probe.py`` taken around it, so host drift cancels; the raw
medians are printed too.
``--trace 1`` runs the campaign once untraced and then again with the layer
wrappers of ``tracer.py`` installed, and reports the per-layer metrics.
Every campaign passes the correctness gate of ``gate.py``; any violation
makes the command exit with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record —
provenance, the steadiness report, and for traced runs the spans — is
written to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

from gate import check_trials, load_reference, write_reference
from measure import peak_rss_mb, probe_setup, run_campaign
from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, layer_metrics, quantiles
from probe import REFERENCE_PROBE_S, SpeedProbe
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Set-up samples taken before the timed campaigns of an untraced run; each
#: campaign adds two more (a probe and its own set-up).
SETUP_PROBES = 5


def _source_digest() -> str:
    """SHA-256 over the library sources, so runs of one tree are matchable."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree (else ``None``)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(repro_env: dict, seed: int, workload, spec: dict,
               problem: dict) -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    from repro.specs import CampaignSpec

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "workload": workload.name,
        "problem": problem,
        "spec": CampaignSpec.coerce(spec).to_dict(),
        "repro_env": repro_env,
    }


def _steadiness(samples: dict) -> dict:
    report = {}
    for name, values in samples.items():
        q = quantiles(values)
        spread = (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0
        bound = END_TO_END[name][2]
        report[name] = {**q, "spread": spread, "bound": bound,
                        "resolved": spread <= bound}
    return report


class Context:
    """Per-workload inputs: specs, the gate's parameters, the work dir.

    ``stride`` thins the sweep (the benchmark's own tests use it); the
    committed reference only applies to the workload as defined.
    """

    def __init__(self, workload, seed: int, work_dir: str, *,
                 stride: int | None = None, reference: bool = True):
        import numpy as np
        from repro.registry import resolve_problem
        from repro.specs import CampaignSpec

        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.problem = workload.problem_spec(seed)
        self.spec = workload.campaign_spec(seed, stride=stride)
        self.replay_spec = workload.campaign_spec(seed, stride=stride,
                                                  serial_replay=True)
        self.outer_tol = CampaignSpec.coerce(self.spec).outer_tol
        self.b_norm = float(np.linalg.norm(resolve_problem(self.problem).b))
        use_reference = reference and stride is None and seed == DEFAULT_SEED
        self.reference = (load_reference(workload.reference_name)
                          if use_reference else None)
        self.failed = 0
        self.attempted = 0
        self.violations: list[str] = []

    def run(self, spec: dict | None = None):
        """One stored campaign, gated; returns the :class:`CampaignRun`."""
        run = run_campaign(self.problem, spec or self.spec, self.work_dir)
        failed, total, problems = check_trials(
            run.trials, total=run.manifest.total_trials,
            loaded=run.loaded.trials, b_norm=self.b_norm,
            outer_tol=self.outer_tol, reference=self.reference,
            residual_rtol=self.workload.residual_rtol,
            residual_atol=self.workload.residual_atol)
        self.note(failed, total, problems)
        return run

    def traced_run(self):
        """The replay campaign with the layer wrappers installed.

        Returns the run, its per-layer metrics, and the exact counts (the
        count metrics plus the call count of every span name).
        """
        with Tracer() as tracer:
            run = self.run(self.replay_spec)
        values = layer_metrics(tracer, run, self.replay_spec["exec"]["backend"])
        counts = ({k: values[k] for k in EXACT_COUNTS}, tracer.counts())
        return run, values, counts, tracer

    def note(self, failed: int, attempted: int, problems) -> None:
        self.failed += failed
        self.attempted += attempted
        self.violations.extend(problems)


def measure_end_to_end(ctx: Context, seconds: float) -> tuple[dict, dict]:
    """Median end-to-end metrics over the run, in reference seconds.

    Every measured interval is bracketed by the speed probe of ``probe.py``
    and scaled by its factor; the raw samples are kept beside the scaled
    ones.
    """
    probe_setup(ctx.problem, ctx.spec, ctx.work_dir)  # warm-up, discarded
    speed = SpeedProbe()
    begin = perf_counter()
    setups = []   # (raw seconds, scale)
    runs = []     # (CampaignRun, scale)
    for _ in range(SETUP_PROBES):
        setups.append((probe_setup(ctx.problem, ctx.spec, ctx.work_dir),
                       speed.scale()))
    while True:
        # One more set-up sample per campaign spreads them over the run.
        setups.append((probe_setup(ctx.problem, ctx.spec, ctx.work_dir),
                       speed.scale()))
        run = ctx.run()
        runs.append((run, speed.scale()))
        typical = sorted(r.wall_s for r, _ in runs)[len(runs) // 2]
        if perf_counter() - begin + typical > seconds:
            break
    setups += [(r.setup_s, scale) for r, scale in runs]
    raw = {
        "trials_per_s": [r.trials_per_s for r, _ in runs],
        "wall_s": [r.wall_s for r, _ in runs],
        "setup_s": [s for s, _ in setups],
    }
    samples = {
        "trials_per_s": [r.trials_per_s / scale for r, scale in runs],
        "wall_s": [r.wall_s * scale for r, scale in runs],
        "setup_s": [s * scale for s, scale in setups],
        "peak_rss_mb": [peak_rss_mb()],
    }
    report = _steadiness(samples)
    metrics = {name: {"value": report[name]["median"], "unit": END_TO_END[name][0]}
               for name in END_TO_END}
    return metrics, {"campaigns": len(runs), "steadiness": report,
                     "samples": samples, "raw_samples": raw,
                     "raw": {name: quantiles(v) for name, v in raw.items()},
                     "probe_s": quantiles(speed.samples),
                     "reference_probe_s": REFERENCE_PROBE_S}


def measure_layers(ctx: Context, seconds: float) -> tuple[dict, dict]:
    w = ctx.workload
    begin = perf_counter()
    untraced = ctx.run()
    exec_metrics = untraced.exec_metrics(w.execution.get("shards", 1))
    replay_untraced = ctx.run(ctx.replay_spec) if w.multiprocess else untraced

    traced = []
    while True:
        run, values, counts, tracer = ctx.traced_run()
        if run.trials != untraced.trials:
            ctx.note(1, 0, ["traced records differ from the untraced run"])
        if traced and counts != traced[0][2]:
            ctx.note(1, 0, ["per-layer counts differ between traced runs"])
        traced.append((run, values, counts))
        if perf_counter() - begin + run.wall_s > seconds:
            break

    metrics, report = {}, {}
    for name, definition in PER_LAYER.items():
        if name in EXACT_COUNTS:
            # Exact counts, equal across the traced campaigns (checked above).
            samples = [traced[0][1][name]]
        elif name.startswith("exec."):
            samples = [exec_metrics[name]]
        elif name == "trace.overhead_s":
            samples = [r.wall_s - replay_untraced.wall_s for r, _, _ in traced]
        else:
            samples = [v[name] for _, v, _ in traced]
        q = quantiles(samples)
        report[name] = q
        metrics[name] = {"value": q["median"], "unit": definition["unit"]}
    detail = {"traced_campaigns": len(traced), "steadiness": report,
              "span_calls": traced[0][2][1], "predictions": PER_LAYER,
              "spans": tracer.span_rows()}
    return metrics, detail


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 work_dir: str, repro_env: dict) -> dict:
    ctx = Context(workload, seed, work_dir)
    measure = measure_layers if trace else measure_end_to_end
    metrics, detail = measure(ctx, seconds)
    record = {
        "provenance": provenance(repro_env, seed, workload, ctx.spec, ctx.problem),
        "trace": int(trace),
        "seconds": seconds,
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "violations": ctx.violations,
        "metrics": metrics,
        **detail,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{workload.name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    record["path"] = os.path.relpath(path, ROOT)
    return record


def print_report(record: dict) -> None:
    p = record["provenance"]
    print(f"== {p['workload']}  seed={p['seed']}  trace={record['trace']}  "
          f"({record['path']})")
    print(f"  commit={p['commit']} source={p['source_sha256'][:12]} "
          f"python={p['python']} numpy={p['numpy']} scipy={p['scipy']} "
          f"nproc={p['nproc']} repro_env={p['repro_env']}")
    for metric, q in record["steadiness"].items():
        unit = record["metrics"][metric]["unit"]
        line = (f"  {metric:28s} {q['median']:14.6g} {unit:6s} "
                f"q1={q['q1']:.6g} q3={q['q3']:.6g} n={q['n']}")
        if "spread" in q:
            line += (f" spread={q['spread']:.3f} bound={q['bound']:.2f} "
                     f"{'resolved' if q['resolved'] else 'UNRESOLVED'}")
        print(line)
    if "raw" in record:
        raw = "  ".join(f"{name}={q['median']:.6g}"
                        for name, q in record["raw"].items())
        probe = record["probe_s"]
        print(f"  {'raw (unscaled) medians':28s} {raw}")
        print(f"  {'speed probe':28s} {probe['median']:14.6g} s      "
              f"q1={probe['q1']:.6g} q3={probe['q3']:.6g} n={probe['n']} "
              f"reference={record['reference_probe_s']:.6g}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'fail_frac':28s} {failed / max(attempted, 1):14.6g} ratio  "
          f"({failed} of {attempted} trials failed the gate)")
    for message in record["violations"]:
        print(f"  VIOLATION {message}")


def write_references(workloads, work_dir: str) -> None:
    for w in workloads:
        if w.reference_name != w.name:
            continue
        ctx = Context(w, DEFAULT_SEED, work_dir, reference=False)
        run = ctx.run()
        if ctx.failed:
            raise SystemExit(f"{w.name}: refusing to write a reference that "
                             f"fails the invariants: {ctx.violations}")
        print(write_reference(w.name, DEFAULT_SEED, ctx.problem, ctx.spec,
                              run.trials))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the committed default-seed references")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no library sources at {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    # Recorded, then removed: REPRO_WORKERS/REPRO_KERNELS would otherwise
    # override the backend, worker count and kernel tier each spec pins.
    repro_env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in repro_env:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        selected = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        selected = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)} or 'all'")

    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        if args.write_reference:
            write_references(selected, work_dir)
            return 0
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace),
                                work_dir, repro_env) for w in selected]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        import multiprocessing

        for child in multiprocessing.active_children():
            child.join()

    for record in records:
        print_report(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['provenance']['workload']}/{name}": value
                   for r in records for name, value in r["metrics"].items()}
    summary = {"correct": all(r["correct"] for r in records),
               "attempted": sum(r["attempted"] for r in records),
               "failed": sum(r["failed"] for r in records),
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
