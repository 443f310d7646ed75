"""FT-GMRES: the paper's fault-tolerant inner–outer (nested) solver.

The outer iteration is Flexible GMRES executed reliably; the inner solves
are plain GMRES executed *unreliably* inside a sandbox (Section IV): they may
experience silent data corruption, and they only promise to return something
in finite time.  The outer iteration "rolls forward" through whatever the
inner solves return and drives convergence with reliably computed residuals.

The experiment harness injects exactly one SDC event per nested solve into
one Hessenberg coefficient of one inner solve, which is how Figures 3 and 4
of the paper are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.detectors import HessenbergBoundDetector
from repro.core.fgmres import FGMRESParameters, fgmres
from repro.core.gmres import GMRESParameters, gmres
from repro.core.status import NestedSolverResult, SolverResult, SolverStatus
from repro.sparse.linear_operator import aslinearoperator
from repro.utils.events import EventLog

__all__ = ["FTGMRESParameters", "FailureFreePrefix", "ft_gmres"]


@dataclass
class FTGMRESParameters:
    """Configuration of the nested FT-GMRES solver.

    Attributes
    ----------
    outer : FGMRESParameters
        Options for the reliable outer FGMRES iteration.
    inner : GMRESParameters
        Options for the unreliable inner GMRES solves.  The paper runs every
        inner solve for a fixed 25 iterations regardless of progress, which
        corresponds to ``tol=0.0, maxiter=25`` (the default here).
    """

    outer: FGMRESParameters = field(default_factory=lambda: FGMRESParameters(tol=1e-8,
                                                                             max_outer=100))
    inner: GMRESParameters = field(default_factory=lambda: GMRESParameters(tol=0.0, maxiter=25))

    @property
    def inner_iterations(self) -> int:
        """The per-inner-solve iteration budget."""
        return self.inner.maxiter if self.inner.maxiter is not None else 25


class FailureFreePrefix:
    """The failure-free inner solves of one nested-solve configuration.

    Under the sandbox model the outer FGMRES phase is reliable, and an inner
    solve whose injector cannot fire anywhere in its iteration window is a
    pure function of its right-hand side ``q_j``.  A fault campaign's trials
    therefore repeat the failure-free run, inner solve for inner solve, up
    to the outer iteration that holds their fault.  This record keeps those
    solves, keyed by outer iteration ``j``: each entry is the failure-free
    ``q_j`` and an independent copy of the inner solve's result.
    :func:`ft_gmres` (``prefix=``) fills it and takes an entry instead of
    recomputing it only when the live ``q_j`` is bitwise equal to the
    stored one, so a reused entry is exactly what the solve would return.

    A record belongs to one operator and inner configuration, bound on
    first use; passing it with another raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[np.ndarray, SolverResult]] = {}
        self._owner: tuple | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def bind(self, A, inner: GMRESParameters) -> None:
        """Tie the record to the operator and inner configuration it describes.

        Later calls must pass the same operator, preconditioner and detector
        objects and equal plain settings.
        """
        owner = (A, *vars(inner).values())
        if self._owner is None:
            self._owner = owner
        elif not all(a is b or (isinstance(a, (int, float, str)) and a == b)
                     for a, b in zip(self._owner, owner)):
            raise ValueError("this FailureFreePrefix records the inner solves of "
                             "another operator or inner configuration")

    def lookup(self, outer_iteration: int, q_j: np.ndarray) -> SolverResult | None:
        """A copy of the stored solve at ``outer_iteration``, or None.

        The stored right-hand side must equal ``q_j`` bit for bit (an
        ``array_equal`` would also accept ``-0.0`` for ``0.0``).
        """
        entry = self._entries.get(outer_iteration)
        if entry is None:
            return None
        rhs, result = entry
        live = np.ascontiguousarray(q_j, dtype=np.float64)
        if live.shape != rhs.shape or not np.array_equal(live.view(np.uint64),
                                                         rhs.view(np.uint64)):
            return None
        return result.clone()

    def record(self, outer_iteration: int, q_j: np.ndarray, result: SolverResult) -> None:
        """Store the solve at ``outer_iteration`` unless one is already kept."""
        if outer_iteration not in self._entries:
            self._entries[outer_iteration] = (
                np.array(q_j, dtype=np.float64, copy=True), result.clone())


def _prefix_eligible(op, inner: GMRESParameters, profile, own_sandbox: bool) -> bool:
    """Whether an inert inner solve is a pure function of its right-hand side.

    A stateful detector (say ``NormGrowthDetector``, whose running maximum
    carries across solves), a kernel profile (which must see every solve),
    a caller's sandbox, and the black-box fault wrappers of
    :mod:`repro.faults.targets` (which bring their own injectors) all rule
    the record out.
    """
    detector = inner.detector
    return (profile is None and not own_sandbox
            and (detector is None or isinstance(detector, HessenbergBoundDetector))
            and getattr(op, "matvec_in_context", None) is None
            and getattr(inner.preconditioner, "apply_in_context", None) is None)


def _inert(injector, offset: int, budget: int) -> bool:
    """No site can fire at any aggregate iteration in ``[offset, offset + budget)``.

    An injector without ``may_fire_at`` is never inert.  Asked inside the
    sandbox, since an injector is only armed there.
    """
    if injector is None:
        return True
    may_fire_at = getattr(injector, "may_fire_at", None)
    if may_fire_at is None:
        return False
    return not any(may_fire_at(a) for a in range(offset, offset + budget))


def ft_gmres(
    A,
    b,
    x0=None,
    *,
    params: FTGMRESParameters | None = None,
    outer_tol: float | None = None,
    max_outer: int | None = None,
    inner_iterations: int | None = None,
    injector=None,
    sandbox=None,
    events: EventLog | None = None,
    profile=None,
    prefix: FailureFreePrefix | None = None,
) -> NestedSolverResult:
    """Solve ``A x = b`` with the fault-tolerant nested FT-GMRES iteration.

    Parameters
    ----------
    A : matrix or operator
        System operator (used by both the inner and the outer iteration).
    b : array_like
        Right-hand side.
    x0 : array_like, optional
        Initial guess for the outer iteration.
    params : FTGMRESParameters, optional
        Full configuration.  The convenience keywords below override the
        corresponding fields when given.
    outer_tol : float, optional
        Outer relative convergence tolerance.
    max_outer : int, optional
        Maximum number of outer iterations.
    inner_iterations : int, optional
        Fixed iteration count of every inner GMRES solve (paper: 25).
    injector : FaultInjector, optional
        Fault injector passed to the *inner* solves only — the outer
        iteration always runs reliably, which is the sandbox model.
    sandbox : Sandbox, optional
        Explicit sandbox marking the unreliable region.  When omitted but an
        injector is supplied, a fresh sandbox is created; the injector is
        activated only while an inner solve is running inside it.
    events : EventLog, EventSink, or callable, optional
        Merged event destination for the whole nested solve (any
        :class:`~repro.results.events.EventSink` streams the events: outer
        events as they happen, each inner solve's events when it completes).
    profile : KernelProfile, optional
        Accumulate per-phase kernel time (spmv/precond/orth/lsq) of every
        *inner* solve into this :class:`~repro.utils.profile.KernelProfile`.
        ``None`` (default) performs no timing; profiled runs are bit-identical
        to unprofiled ones (see :func:`repro.core.gmres.gmres`).
    prefix : FailureFreePrefix, optional
        Record of failure-free inner solves to take instead of recomputing
        them.  An inner solve reuses the entry of its outer iteration only
        when the injector is ``None`` or its ``may_fire_at`` rules out every
        aggregate iteration of the solve's window, and the stored ``q_j``
        is bitwise equal to the live one; it records itself while every
        inner solve so far in this call was such an inert solve.  The
        record is ignored altogether (every solve computed) when the inner
        detector is neither ``None`` nor a ``HessenbergBoundDetector``, when
        ``profile`` or ``sandbox`` is given, or when ``A`` or the inner
        preconditioner is a :mod:`repro.faults.targets` wrapper.  Results
        are identical with and without it.

    Returns
    -------
    NestedSolverResult
    """
    params = params or FTGMRESParameters()
    if outer_tol is not None:
        params = FTGMRESParameters(outer=params.outer.replace(tol=outer_tol), inner=params.inner)
    if max_outer is not None:
        params = FTGMRESParameters(outer=params.outer.replace(max_outer=max_outer),
                                   inner=params.inner)
    if inner_iterations is not None:
        params = FTGMRESParameters(outer=params.outer,
                                   inner=params.inner.replace(maxiter=inner_iterations))

    op = aslinearoperator(A)
    if prefix is not None:
        if _prefix_eligible(op, params.inner, profile, own_sandbox=sandbox is not None):
            prefix.bind(A, params.inner)
        else:
            prefix = None

    if sandbox is None and injector is not None:
        from repro.faults.sandbox import Sandbox

        sandbox = Sandbox(name="ft-gmres-inner")
    if sandbox is not None and injector is not None and hasattr(injector, "attach_sandbox"):
        injector.attach_sandbox(sandbox)

    events = EventLog.ensure(events)
    inner_budget = params.inner_iterations
    inner_results: list[SolverResult] = []

    inner_kwargs = params.inner.as_kwargs()
    inner_kwargs["tol"] = params.inner.tol
    inner_kwargs["maxiter"] = inner_budget
    # The paper's inner solves never restart: one Arnoldi cycle of
    # `inner_iterations` steps per invocation.
    inner_kwargs["restart"] = inner_budget

    # Whether every inner solve so far was inert: only such a run's solves
    # are the failure-free ones the prefix record keeps.
    failure_free_so_far = True

    def solve(q_j: np.ndarray, outer_iteration: int) -> SolverResult:
        nonlocal failure_free_so_far
        offset = outer_iteration * inner_budget
        inert = prefix is not None and _inert(injector, offset, inner_budget)
        if inert:
            reused = prefix.lookup(outer_iteration, q_j)
            if reused is not None:
                return reused
        result = gmres(
            A,
            q_j,
            injector=injector,
            events=EventLog(),
            profile=profile,
            outer_iteration=outer_iteration,
            inner_solve_index=outer_iteration,
            iteration_offset=offset,
            **inner_kwargs,
        )
        failure_free_so_far = failure_free_so_far and inert
        if failure_free_so_far:
            prefix.record(outer_iteration, q_j, result)
        return result

    def inner_solver(q_j: np.ndarray, outer_iteration: int) -> np.ndarray:
        """One unreliable inner solve: approximately solve ``A z = q_j``."""
        if sandbox is not None:
            with sandbox:
                result = solve(q_j, outer_iteration)
        else:
            result = solve(q_j, outer_iteration)
        inner_results.append(result)
        events.extend(result.events)
        return result.x

    outer = params.outer
    outer_result = fgmres(
        A,
        b,
        inner_solver=inner_solver,
        x0=x0,
        tol=outer.tol,
        max_outer=outer.max_outer,
        orthogonalization=outer.orthogonalization,
        lsq_policy=outer.lsq_policy,
        lsq_tol=outer.lsq_tol,
        rank_tol=outer.rank_tol,
        detector=outer.detector,
        detector_response=outer.detector_response,
        bound_method=outer.bound_method,
        # The nested solver's injector goes to the *inner* solves only; the
        # outer iteration is the reliable phase.  An injector attached to the
        # outer parameters themselves is an explicit opt-in to corrupt the
        # (normally reliable) outer iteration.
        injector=getattr(outer, "injector", None),
        events=events,
    )

    total_inner = sum(r.iterations for r in inner_results)
    return NestedSolverResult(
        x=outer_result.x,
        status=outer_result.status,
        outer_iterations=outer_result.iterations,
        total_inner_iterations=total_inner,
        residual_norm=outer_result.residual_norm,
        history=outer_result.history,
        inner_results=inner_results,
        events=events,
        profile=profile,
    )
