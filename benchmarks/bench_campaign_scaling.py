"""Benchmark ``scaling``: parallel campaign execution vs the serial baseline.

Runs the Figure-3(a) sweep (Poisson, SDC on the first MGS coefficient) once
serially and once per configured worker count through the sharded backend of
:class:`repro.exec.CampaignExecutor`, asserting that the parallel result is
trial-for-trial identical to the serial one and recording the wall-time
speedup in ``benchmark.extra_info`` so the BENCH_*.json trajectory captures
the scaling behaviour of the machine that ran it.

Note: speedups are bounded by the CPUs actually available (``cpu_count`` is
recorded alongside); on a single-core runner the parallel configurations
measure dispatch overhead, not speedup.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.figure34 import run_fault_sweep


def _sweep(problem, stride, *, backend="serial", workers=1):
    return run_fault_sweep(
        problem,
        mgs_position="first",
        detector=None,
        inner_iterations=25,
        max_outer=100,
        outer_tol=1e-8,
        stride=stride,
        backend=backend,
        workers=workers,
    )


@pytest.fixture(scope="module")
def serial_reference(poisson_bench_problem, stride):
    """The serial sweep, run once: (campaign result, wall seconds)."""
    start = time.perf_counter()
    campaign = _sweep(poisson_bench_problem, stride)
    elapsed = time.perf_counter() - start
    return campaign, elapsed


def test_campaign_scaling_serial(benchmark, serial_reference, poisson_bench_problem,
                                 scale, stride):
    """Record the serial baseline as its own benchmark entry."""
    reference, elapsed = serial_reference
    campaign = benchmark.pedantic(lambda: _sweep(poisson_bench_problem, stride),
                                  rounds=1, iterations=1)
    assert campaign.trials == reference.trials  # serial runs are deterministic
    benchmark.extra_info["serial_seconds"] = round(elapsed, 4)
    benchmark.extra_info["trials"] = len(campaign.trials)
    benchmark.extra_info["scale"] = scale
    benchmark.extra_info["stride"] = stride
    print(f"\nserial sweep: {len(campaign.trials)} trials in {elapsed:.2f}s")


@pytest.mark.parametrize("workers", [2, 4])
def test_campaign_scaling_sharded_workers(benchmark, poisson_bench_problem, stride,
                                          scale, serial_reference, workers):
    serial_campaign, serial_seconds = serial_reference

    parallel_campaign = benchmark.pedantic(
        lambda: _sweep(poisson_bench_problem, stride, backend="sharded",
                       workers=workers),
        rounds=1, iterations=1)

    # The engine's core guarantee: byte-for-byte the same experiment output.
    assert parallel_campaign.trials == serial_campaign.trials
    assert parallel_campaign.failure_free_outer == serial_campaign.failure_free_outer

    parallel_seconds = benchmark.stats.stats.mean
    speedup = serial_seconds / parallel_seconds if parallel_seconds > 0 else float("inf")
    cpus = os.cpu_count() or 1
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["cpu_count"] = cpus
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["parallel_seconds"] = round(parallel_seconds, 4)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 3)
    benchmark.extra_info["trials"] = len(parallel_campaign.trials)
    print(f"\n{workers} sharded workers ({cpus} CPUs): {parallel_seconds:.2f}s "
          f"vs serial {serial_seconds:.2f}s -> speedup {speedup:.2f}x")

    # Wall-time scaling is only a hard requirement when explicitly requested
    # (REPRO_ENFORCE_SCALING=1) on a machine with enough dedicated cores:
    # shared CI runners and sub-second tiny-scale sweeps measure dispatch
    # overhead and noisy-neighbor load, not the engine.  The speedup is
    # always recorded above either way.
    if os.environ.get("REPRO_ENFORCE_SCALING") == "1" and cpus >= workers >= 4:
        assert speedup >= 2.5, (
            f"expected >= 2.5x with {workers} workers on {cpus} CPUs, got {speedup:.2f}x")
