"""Outside-in tracing of the campaign layers.

The tracer wraps public functions and methods of ``repro`` modules from
here, for the duration of one traced run, and restores the originals on the
way out; nothing inside ``src/repro`` knows it is being traced.  Every
wrapped call is one span.  Self time is computed online: a span's duration
minus the part covered by its wrapped children (single-threaded, so children
never overlap).

Spans of the coarse layers (problem build, baseline, trials, inner solves,
lockstep batches, store operations) are kept in memory with their parent and
trial ids and written out when the benchmark ends; the hot leaf spans
(Arnoldi steps, spmv, injector and detector hooks, Givens, least squares)
are only aggregated, because a circuit campaign makes about two million of
them.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Per-span durations, kept for the names whose percentiles are reported.
    durations: list | None = None
    #: A name-specific counter (computed bytes for spmv, lockstep lanes for
    #: the batched engine).
    counter: int = 0


def _spmv_bytes(args, result) -> int:
    """Bytes a CSR matvec reads and writes, computed from array sizes."""
    matrix, x = args[0], args[1]
    return (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            + x.nbytes + result.nbytes)


def _lockstep_lanes(args, result) -> int:
    """Lanes a lockstep batch finished itself (``None`` lanes were peeled)."""
    return sum(r is not None for r in result)


class Tracer:
    """Installs span-recording wrappers around the campaign layers.

    Use as a context manager; the wrappers exist only inside the ``with``
    block.  ``stats`` aggregates every span name; ``layer_s`` is the time
    covered by each layer's outermost spans (the span-name prefix up to the
    first dot), so a layer calling itself is not counted twice; ``spans``
    lists the coarse spans as ``(id, parent_id, trial_id, name, start, end)``.
    """

    #: (span name, owner, attribute, kept as a span, counter function).
    #: ``owner`` is a class path ("module:Class") or a module path whose
    #: function is replaced everywhere ``repro`` bound it by name.
    TARGETS = (
        ("api.run_campaign", "repro.api", "run_campaign", True, None),
        ("gallery.resolve_problem", "repro.registry", "resolve_problem", True, None),
        ("campaign.run_failure_free", "repro.faults.campaign:FaultCampaign",
         "run_failure_free", True, None),
        ("campaign.run_spec_safe", "repro.faults.campaign:FaultCampaign",
         "run_spec_safe", True, None),
        ("campaign.run_spec", "repro.faults.campaign:FaultCampaign",
         "run_spec", True, None),
        # Only the inner solves: ``gmres`` as ft_gmres sees it.
        ("core.gmres", "repro.core.ftgmres", "gmres", True, None),
        ("batched.batched_ft_gmres", "repro.core.batched", "batched_ft_gmres",
         True, _lockstep_lanes),
        ("core.arnoldi_step", "repro.core.arnoldi", "arnoldi_step", False, None),
        ("core.add_column", "repro.core.hessenberg:HessenbergMatrix",
         "add_column", False, None),
        ("core.solve_y", "repro.core.hessenberg:HessenbergMatrix",
         "solve_y", False, None),
        # The detection hook the Arnoldi step calls for every coefficient of
        # a hooked (faulted) solve, with or without a detector attached.
        ("detectors.screen_scalar", "repro.core.arnoldi:ArnoldiContext",
         "screen_scalar", False, None),
        ("detectors.check_scalar", "repro.core.detectors:HessenbergBoundDetector",
         "check_scalar", False, None),
        ("detectors.check_vector", "repro.core.detectors:Detector",
         "check_vector", False, None),
        ("faults.corrupt_scalar", "repro.faults.injector:FaultInjector",
         "corrupt_scalar", False, None),
        ("faults.corrupt_vector", "repro.faults.injector:FaultInjector",
         "corrupt_vector", False, None),
        ("sparse.matvec", "repro.sparse.csr:CSRMatrix", "matvec", False,
         _spmv_bytes),
        ("store.append", "repro.results.store:RunWriter", "append", True, None),
        ("store.finalize", "repro.results.store:RunStore", "finalize", True, None),
        ("store.merge_shards", "repro.results.store:RunStore", "merge_shards",
         True, None),
        ("store.load_result", "repro.results.store:RunStore", "load_result",
         True, None),
    )

    #: Span names whose per-span durations are kept for percentiles.
    DISTRIBUTIONS = frozenset({"campaign.run_spec"})

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {
            name: SpanStats(durations=[] if name in self.DISTRIBUTIONS else None)
            for name, *_ in self.TARGETS}
        self.spans: list[tuple] = []
        self.layer_s: dict[str, float] = {}
        self._layer_depth: dict[str, int] = {}
        # Open frames: [span id, trial id, child seconds].
        self._stack: list[list] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, name: str, fn, keep: bool, counter):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        is_trial = name == "campaign.run_spec"
        layer = name.split(".", 1)[0]
        depth, layer_s = self._layer_depth, self.layer_s
        depth.setdefault(layer, 0)
        layer_s.setdefault(layer, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            span_id = self._next_id
            trial_id = span_id if is_trial else (parent[1] if parent else None)
            frame = [span_id, trial_id, 0.0]
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                duration = end - start
                if not depth[layer]:
                    layer_s[layer] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if stats.durations is not None:
                    stats.durations.append(duration)
                if keep:
                    spans.append((span_id, parent[0] if parent else None,
                                  trial_id, name, start, end))
            if counter is not None:
                stats.counter += counter(args, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        import importlib

        for name, owner, attr, keep, counter in self.TARGETS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, keep, counter))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, keep, counter)
            if module_name == "repro.core.ftgmres":
                # Inner solves only: other callers of gmres stay unwrapped.
                self._patch(module, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)
                              if not isinstance(owner, type)
                              else owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def counts(self) -> dict[str, int]:
        """Call count per span name (exactly repeatable for one input)."""
        return {name: s.calls for name, s in self.stats.items()}

    def span_rows(self) -> list[dict]:
        """The kept spans as JSON-ready rows (times relative to the first)."""
        origin = min((s[4] for s in self.spans), default=0.0)
        return [{"id": i, "parent": p, "trial": t, "name": n,
                 "start_s": round(a - origin, 9), "end_s": round(b - origin, 9)}
                for i, p, t, n, a, b in self.spans]
