"""The upper Hessenberg matrix produced by the Arnoldi process.

GMRES builds ``H`` one column per iteration; :class:`HessenbergMatrix` stores
the growing matrix, maintains the incremental Givens-rotation QR
factorization that Saad and Schultz use to solve the projected least-squares
problem in O(k) extra work per iteration, and exposes the structural and
rank queries the paper relies on:

* the tridiagonal-vs-Hessenberg structure check behind Figure 2,
* the rank(-deficiency) test behind FGMRES's trichotomy (Section VI-C),
* the per-entry bound check used by the SDC detector.
"""

from __future__ import annotations

import numpy as np

from repro.core.least_squares import (
    IncrementalGivensQR,
    LeastSquaresPolicy,
    givens_rotation,
)

__all__ = ["HessenbergMatrix"]


class HessenbergMatrix:
    """A growing ``(k+1) x k`` upper Hessenberg matrix with incremental QR.

    Parameters
    ----------
    max_columns : int
        Maximum number of Arnoldi steps (restart length); storage is
        allocated once up front to avoid repeated reallocation in the solver
        hot loop.
    beta : float
        Norm of the initial residual; the projected least-squares right-hand
        side is ``beta * e_1``.
    """

    def __init__(self, max_columns: int, beta: float = 0.0):
        if max_columns <= 0:
            raise ValueError(f"max_columns must be positive, got {max_columns}")
        m = int(max_columns)
        self.max_columns = m
        self._H = np.zeros((m + 1, m), dtype=np.float64)
        # Incremental QR state lives in the least-squares layer: rotations
        # are reused across iterations, never recomputed.
        self._qr = IncrementalGivensQR(m, beta)
        self.beta = float(beta)

    # ------------------------------------------------------------------ #
    # column insertion and incremental QR
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """Number of completed columns."""
        return self._qr.k

    def add_column(self, column: np.ndarray, givens_hook=None) -> float:
        """Append the ``k``-th Arnoldi column and update the QR factorization.

        Parameters
        ----------
        column : array_like
            The ``k+2`` values ``h_{1,k+1}, ..., h_{k+2,k+1}`` (i.e. the
            orthogonalization coefficients plus the subdiagonal norm) of the
            new column, where ``k`` is the current number of columns.
        givens_hook : callable, optional
            The ``"givens"`` injection site, forwarded to
            :meth:`IncrementalGivensQR.add_column` (``hook(c, s) -> (c, s)``
            on the new rotation).  ``None`` performs the identical
            floating-point operations with no hook overhead.

        Returns
        -------
        float
            The updated least-squares residual norm ``|g_{k+1}|`` — GMRES's
            monotone residual estimate.
        """
        j = self.k
        if j >= self.max_columns:
            raise RuntimeError("HessenbergMatrix is full; increase max_columns")
        if not (type(column) is np.ndarray and column.ndim == 1
                and column.dtype == np.float64):
            column = np.asarray(column, dtype=np.float64).ravel()
        if column.shape[0] != j + 2:
            raise ValueError(
                f"column {j} must have {j + 2} entries, got {column.shape[0]}"
            )
        self._H[: j + 2, j] = column
        return self._qr.add_column(column, givens_hook=givens_hook)

    #: Retained for backwards compatibility; the canonical implementation is
    #: :func:`repro.core.least_squares.givens_rotation`.
    _givens = staticmethod(givens_rotation)

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #
    @property
    def H(self) -> np.ndarray:
        """The current ``(k+1) x k`` Hessenberg matrix (a copy-free view)."""
        return self._H[: self.k + 1, : self.k]

    @property
    def R(self) -> np.ndarray:
        """Upper-triangular factor of the QR factorization, shape ``k x k``."""
        return self._qr.R

    @property
    def g(self) -> np.ndarray:
        """The rotated right-hand side ``Q^T (beta e1)``, length ``k+1``."""
        return self._qr.g

    def solve_y(self, policy=LeastSquaresPolicy.STANDARD, tol: float | None = None
                ) -> tuple[np.ndarray, dict]:
        """Solve for the update coefficients from the maintained factorization.

        The STANDARD policy back-substitutes the incrementally maintained
        triangular system (no re-factorization, Inf/NaN propagation intact);
        the rank-revealing policies are handed the full Hessenberg matrix, as
        the solvers did before (see :func:`solve_projected_lsq`).
        """
        policy = LeastSquaresPolicy.coerce(policy)
        H = self.H if policy is not LeastSquaresPolicy.STANDARD else None
        return self._qr.solve(policy=policy, tol=tol, H=H, beta=self.beta)

    @property
    def square(self) -> np.ndarray:
        """The leading ``k x k`` square block ``H(1:k, 1:k)``."""
        return self._H[: self.k, : self.k]

    def entry(self, i: int, j: int) -> float:
        """``H[i, j]`` with bounds checking (0-based)."""
        if not (0 <= i <= self.k and 0 <= j < self.k):
            raise IndexError(f"entry ({i}, {j}) outside current {self.k + 1}x{self.k} Hessenberg")
        return float(self._H[i, j])

    def least_squares_residual(self) -> float:
        """Current GMRES residual estimate ``|g_{k+1}|``."""
        return self._qr.residual_estimate()

    # ------------------------------------------------------------------ #
    # analysis used by the paper
    # ------------------------------------------------------------------ #
    def max_abs_entry(self) -> float:
        """Largest magnitude among all stored Hessenberg entries."""
        if self.k == 0:
            return 0.0
        return float(np.abs(self.H).max())

    def violates_bound(self, bound: float) -> bool:
        """True if any stored entry exceeds the theoretical bound."""
        return self.max_abs_entry() > float(bound)

    def bandwidth(self, tol: float = 1e-10) -> int:
        """Number of nonzero superdiagonals (0 means tridiagonal or lower).

        For an SPD input matrix the Arnoldi Hessenberg matrix is tridiagonal
        (one superdiagonal); for a general nonsymmetric matrix it is full
        upper Hessenberg.  This is the quantity visualized in Figure 2.
        """
        H = self.H
        if self.k == 0:
            return 0
        scale = max(np.abs(H).max(), 1.0)
        band = 0
        for j in range(self.k):
            rows = np.flatnonzero(np.abs(H[: j + 2, j]) > tol * scale)
            if rows.size:
                band = max(band, j - int(rows.min()))
        return band

    def is_tridiagonal(self, tol: float = 1e-10) -> bool:
        """True if the stored Hessenberg matrix is numerically tridiagonal."""
        return self.bandwidth(tol=tol) <= 1

    def smallest_singular_value(self) -> float:
        """Smallest singular value of the square block ``H(1:k, 1:k)``."""
        if self.k == 0:
            return 0.0
        s = np.linalg.svd(self.square, compute_uv=False)
        return float(s[-1])

    def numerical_rank(self, tol: float | None = None) -> int:
        """Numerical rank of ``H(1:k, 1:k)``.

        Parameters
        ----------
        tol : float, optional
            Singular values below ``tol * sigma_max`` count as zero.  The
            default is ``k * eps``, matching ``numpy.linalg.matrix_rank``.
        """
        if self.k == 0:
            return 0
        square = self.square
        if not np.all(np.isfinite(square)):
            finite = np.nan_to_num(square, nan=0.0, posinf=0.0, neginf=0.0)
            square = finite
        s = np.linalg.svd(square, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        if tol is None:
            tol = self.k * np.finfo(np.float64).eps
        return int(np.count_nonzero(s > tol * s[0]))

    def is_rank_deficient(self, tol: float | None = None) -> bool:
        """True if ``H(1:k, 1:k)`` is numerically rank deficient.

        This is the third branch of FGMRES's trichotomy.  (We use a small
        dense SVD rather than an updatable rank-revealing ULV decomposition;
        the paper notes Stewart's O(k^2) update as the production choice, but
        k is at most the restart length so the O(k^3) SVD is negligible next
        to the SpMV and orthogonalization costs.)
        """
        return self.numerical_rank(tol=tol) < self.k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HessenbergMatrix(k={self.k}, max_columns={self.max_columns})"
