"""A fixed machine-speed probe, so host drift cancels out of the timings.

On a shared VM the same code runs up to half again as slow for tens of
seconds to minutes at a time, with the process still on the CPU (its CPU
time grows with the wall time), so the slowdown is the host's, not the
scheduler's.  Runs of the same code then disagree by more than any useful
bound: in one noisy hour, the medians of five 30-second runs of each
workload spread by 0.19 to 0.46 of their median.

The probe is a fixed piece of work that does not touch ``repro``: modified
Gram-Schmidt of a vector against 25 basis vectors, one small NumPy call per
step like Arnoldi's MGS loop, at 900 rows (interpreter-bound) and at 10,000
rows (cache-bound), and CSR SpMV of a 10,000-row 5-point Laplacian through
``np.add.reduceat`` (kernel-bound), in about the proportions of the Poisson
campaigns.  It is timed before and after every measured interval; an
interval's time is scaled by ``REFERENCE_PROBE_S / probe_s``, where
``probe_s`` is the mean of the two probes around it.  A timing then reads as seconds on a machine where the
probe takes ``REFERENCE_PROBE_S``: a change to the program moves it in full,
a slower host barely moves it.  Raw timings are kept next to the scaled ones
in every result file.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Probe time on the 2-vCPU VM the bounds were set on (median of 100 probes).
REFERENCE_PROBE_S = 0.062

_GRID = 100          # Laplacian grid side: 10,000 rows
#: (basis vectors, vector length, repetitions) of each MGS part.
_MGS = ((25, 900, 300), (25, _GRID * _GRID, 12))
_SPMV_REPS = 80


def _laplacian(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays of the 5-point Laplacian on an ``n`` x ``n`` grid."""
    rows, cols = np.divmod(np.arange(n * n), n)
    entries = [(np.arange(n * n), np.arange(n * n), np.full(n * n, 4.0))]
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        r, c = rows + dr, cols + dc
        keep = (r >= 0) & (r < n) & (c >= 0) & (c < n)
        index = np.flatnonzero(keep)
        entries.append((index, r[keep] * n + c[keep], np.full(index.size, -1.0)))
    row = np.concatenate([e[0] for e in entries])
    col = np.concatenate([e[1] for e in entries])
    val = np.concatenate([e[2] for e in entries])
    order = np.lexsort((col, row))
    indptr = np.searchsorted(row[order], np.arange(n * n + 1))
    return indptr, col[order], val[order]


class SpeedProbe:
    """Times the fixed probe work; :meth:`scale` turns raw seconds into
    reference seconds for the interval between two probes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20140519)
        self._mgs = []
        for k, n, reps in _MGS:
            basis = rng.standard_normal((k, n))
            basis /= np.linalg.norm(basis, axis=1)[:, None]
            self._mgs.append((basis, rng.standard_normal(n), reps))
        self._indptr, self._indices, self._data = _laplacian(_GRID)
        self._x0 = rng.standard_normal(_GRID * _GRID)
        self.samples: list[float] = []
        self.seconds()  # warm-up, kept out of the samples
        self.samples.clear()
        self._last = self.seconds()

    def seconds(self) -> float:
        """Run the probe once; its wall time in seconds."""
        start = perf_counter()
        for basis, v0, reps in self._mgs:
            for _ in range(reps):
                v = v0.copy()
                for q in basis:
                    v -= float(q @ v) * q
        x = self._x0
        for _ in range(_SPMV_REPS):
            y = np.add.reduceat(self._data * x[self._indices], self._indptr[:-1])
            x = y / np.linalg.norm(y)
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """Factor from raw to reference seconds for the interval just ended.

        Probes once more; the interval is bracketed by this probe and the
        previous one, so consecutive intervals share a probe.
        """
        now = self.seconds()
        factor = REFERENCE_PROBE_S / ((self._last + now) / 2)
        self._last = now
        return factor
