"""Bit-identity oracles for the lean inner step.

The fault-free Arnoldi step, the Givens QR update and the base detector's
vector check are written for the fewest interpreter round-trips per value.
Each rewrite claims to perform the identical floating-point operations in
the identical order as the plain NumPy formulation it replaced.  This module
freezes those plain formulations and compares raw bytes against the live
code on inputs built to stress IEEE-754 corners: signed zeros, subnormals,
entries scaled by 1e150 (the paper's "large" fault class, whose squares
overflow), infinities, NaNs and exact happy breakdowns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arnoldi import HAPPY_BREAKDOWN_TOL, ArnoldiContext, arnoldi_step
from repro.core.detectors import DetectionResult, Detector
from repro.core.least_squares import IncrementalGivensQR, givens_rotation
from repro.sparse.linear_operator import aslinearoperator

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SUBNORMAL = 2.2250738585072014e-308 / 7.0
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, SUBNORMAL, -SUBNORMAL, 1e150, -1e150,
           np.inf, -np.inf, np.nan]


# --------------------------------------------------------------------------- #
# frozen reference formulations
# --------------------------------------------------------------------------- #
def _reference_fast_step(v_in, basis, j, orthogonalization, workspace):
    """The fault-free step as plain NumPy: tuple-indexed columns, keyword
    ``out`` buffers, ``np.linalg.norm`` and a copy-then-store basis update."""
    v = np.asarray(v_in, dtype=np.float64)
    h_col = np.zeros(j + 2, dtype=np.float64)
    Q = basis[:, : j + 1]
    w = v.copy()
    if orthogonalization == "mgs":
        scratch = workspace if workspace is not None else np.empty_like(w)
        for i in range(j + 1):
            q_i = Q[:, i]
            h = np.dot(q_i, w)
            h_col[i] = h
            np.multiply(q_i, h, out=scratch)
            np.subtract(w, scratch, out=w)
    else:
        passes = 2 if orthogonalization == "cgs2" else 1
        for _ in range(passes):
            coeffs = Q.T @ w
            w = w - Q @ coeffs
            h_col[: j + 1] += coeffs
    norm_v = float(np.linalg.norm(w))
    h_col[j + 1] = norm_v
    v = w
    scale = max(np.abs(h_col[: j + 1]).max() if j + 1 > 0 else 0.0, 1.0)
    if not np.isfinite(norm_v) or norm_v <= HAPPY_BREAKDOWN_TOL * scale:
        if np.isfinite(norm_v):
            return h_col, None, True
        q_next = np.full_like(v, np.nan)
        basis[:, j + 1] = q_next
        return h_col, q_next, False
    q_next = v / norm_v
    basis[:, j + 1] = q_next
    return h_col, q_next, False


def _reference_givens_rotation(a, b):
    if b == 0.0:
        return 1.0, 0.0
    if a == 0.0:
        return 0.0, 1.0
    if not (np.isfinite(a) and np.isfinite(b)):
        return float("nan"), float("nan")
    if abs(b) > abs(a):
        t = a / b
        s = 1.0 / np.sqrt(1.0 + t * t)
        return s * t, s
    t = b / a
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, c * t


class _ReferenceGivensQR:
    """``IncrementalGivensQR.add_column`` with per-entry ``float()`` copies."""

    def __init__(self, m, beta):
        self.k = 0
        self.R = np.zeros((m + 1, m))
        self.g = np.zeros(m + 1)
        self.g[0] = float(beta)
        self.cs = [0.0] * m
        self.sn = [0.0] * m

    def add_column(self, column, givens_hook=None):
        j = self.k
        cs, sn = self.cs, self.sn
        r = [float(v) for v in column]
        for i in range(j):
            c, s = cs[i], sn[i]
            r_i, r_i1 = r[i], r[i + 1]
            r[i] = c * r_i + s * r_i1
            r[i + 1] = -s * r_i + c * r_i1
        c, s = _reference_givens_rotation(r[j], r[j + 1])
        if givens_hook is not None:
            c, s = givens_hook(float(c), float(s))
            c, s = float(c), float(s)
        cs[j], sn[j] = c, s
        r[j] = c * r[j] + s * r[j + 1]
        r[j + 1] = 0.0
        self.R[: j + 2, j] = r
        g_j = float(self.g[j])
        self.g[j] = c * g_j
        self.g[j + 1] = -s * g_j
        self.k = j + 1
        return abs(float(self.g[j + 1]))


def _reference_vector_norm(vec):
    return float(np.linalg.norm(np.asarray(vec, dtype=np.float64)))


def _bytes(values) -> bytes:
    """The raw IEEE-754 bytes, with every NaN mapped to one canonical NaN.

    Which operand's NaN an operation propagates (and so the result's sign
    bit) is left to the implementation by IEEE-754, and CPython itself
    changes it: its specialized float multiply, installed after a few
    executions of a line, returns the other operand's NaN than the generic
    one does.  NaN sign and payload are therefore no part of the contract;
    every other bit is.
    """
    values = np.array(values, dtype=np.float64)
    values[np.isnan(values)] = np.nan
    return values.tobytes()


# --------------------------------------------------------------------------- #
# input strategies
# --------------------------------------------------------------------------- #
_entries = st.one_of(
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL),
)
_scales = st.sampled_from([1.0, 1e150, 1e-300, -1.0])


@st.composite
def _vectors(draw, n):
    """Mostly ordinary entries, with IEEE-754 corner values sprinkled in."""
    base = np.asarray(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    for index, value in draw(st.lists(st.tuples(st.integers(0, n - 1), _entries),
                                      max_size=3)):
        base[index] = value
    return base * draw(_scales)


@st.composite
def _step_inputs(draw):
    n = draw(st.integers(1, 12))
    j = draw(st.integers(0, 5))
    order = draw(st.sampled_from("FC"))
    basis = np.zeros((n, j + 2), order=order)
    if n > j and draw(st.booleans()):
        # An orthonormal basis from a QR factorization, as the solver sees it.
        raw = np.asarray(draw(st.lists(st.floats(-1.0, 1.0), min_size=n * (j + 1),
                                       max_size=n * (j + 1)))).reshape(n, j + 1)
        basis[:, : j + 1] = np.linalg.qr(raw + np.eye(n, j + 1))[0]
    else:
        for col in range(j + 1):
            basis[:, col] = draw(_vectors(n))
    kind = draw(st.sampled_from(["random", "breakdown"]))
    if kind == "breakdown":
        # A combination of unit coordinate columns: orthogonalization
        # cancels it exactly, so the step ends in a happy breakdown.
        basis[:, : j + 1] = np.eye(n, j + 1)
        v = np.zeros(n)
        for col in range(min(j + 1, n)):
            v[col] = draw(st.sampled_from([1.0, -3.0, 0.5, 0.0]))
    else:
        v = draw(_vectors(n))
    basis[:, j + 1] = draw(st.sampled_from([0.0, 7.0]))
    orthogonalization = draw(st.sampled_from(["mgs", "cgs", "cgs2"]))
    workspace = np.full(n, 3.0) if draw(st.booleans()) else None
    return v, basis, j, orthogonalization, workspace


# --------------------------------------------------------------------------- #
# the fault-free Arnoldi step
# --------------------------------------------------------------------------- #
class TestFastStepOracle:
    @settings(max_examples=400, deadline=None)
    @given(inputs=_step_inputs())
    def test_matches_reference_bytes(self, inputs):
        v, basis, j, orthogonalization, workspace = inputs
        n = basis.shape[0]
        op = aslinearoperator(np.eye(n))
        ref_basis = basis.copy(order="K")
        ref_ws = None if workspace is None else workspace.copy()
        with np.errstate(all="ignore"):
            ref = _reference_fast_step(v, ref_basis, j, orthogonalization, ref_ws)
            ctx = ArnoldiContext()
            got = arnoldi_step(op, basis, j, ctx, orthogonalization=orthogonalization,
                               apply_operator=lambda q: v, workspace=workspace)
        assert _bytes(got[0]) == _bytes(ref[0]), "h_col"
        assert got[2] == ref[2], "breakdown flag"
        if ref[1] is None:
            assert got[1] is None
        else:
            assert _bytes(got[1]) == _bytes(ref[1]), "q_next"
        assert _bytes(basis) == _bytes(ref_basis), "basis (new column included)"
        assert ctx.current_may_inject is False

    @pytest.mark.parametrize("orthogonalization", ["mgs", "cgs", "cgs2"])
    def test_exact_happy_breakdown(self, orthogonalization):
        n, j = 6, 2
        basis = np.zeros((n, j + 2), order="F")
        basis[:, : j + 1] = np.eye(n, j + 1)
        v = np.array([2.0, -1.0, 0.5, 0.0, 0.0, 0.0])
        h_col, q_next, breakdown = arnoldi_step(
            aslinearoperator(np.eye(n)), basis, j, ArnoldiContext(),
            orthogonalization=orthogonalization, apply_operator=lambda q: v)
        assert breakdown and q_next is None
        assert h_col.tolist() == [2.0, -1.0, 0.5, 0.0]


# --------------------------------------------------------------------------- #
# Givens rotations and the incremental QR update
# --------------------------------------------------------------------------- #
_scalars = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from(SPECIAL))


class TestGivensOracle:
    @settings(max_examples=500, deadline=None)
    @given(a=_scalars, b=_scalars)
    def test_rotation_matches_reference_bytes(self, a, b):
        assert _bytes(givens_rotation(a, b)) == _bytes(_reference_givens_rotation(a, b))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.integers(1, 7),
           beta=st.sampled_from([1.0, 0.0, 1e150, 3.5, SUBNORMAL]),
           hooked=st.booleans(), as_list=st.booleans())
    def test_add_column_matches_reference_bytes(self, data, m, beta, hooked, as_list):
        hook = (lambda c, s: (c, s)) if hooked else None
        qr, ref = IncrementalGivensQR(m, beta), _ReferenceGivensQR(m, beta)
        with np.errstate(all="ignore"):
            for k in range(m):
                column = data.draw(_vectors(k + 2))
                if as_list:
                    column = column.tolist()
                got = qr.add_column(column, givens_hook=hook)
                want = ref.add_column(column, givens_hook=hook)
                assert _bytes(got) == _bytes(want), "residual estimate"
        assert _bytes(qr._R) == _bytes(ref.R)
        assert _bytes(qr._g) == _bytes(ref.g)
        assert _bytes(qr._cs) == _bytes(ref.cs)
        assert _bytes(qr._sn) == _bytes(ref.sn)


# --------------------------------------------------------------------------- #
# the base detector's vector check
# --------------------------------------------------------------------------- #
class _NormRecorder(Detector):
    """Hands back the norm ``Detector.check_vector`` computed."""

    def check_scalar(self, value, site=""):
        return DetectionResult(False, value=value)


class TestCheckVectorOracle:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40),
           layout=st.sampled_from(["contiguous", "strided", "reversed", "2d",
                                   "list", "float32"]))
    def test_norm_matches_reference_bytes(self, data, n, layout):
        vec = data.draw(_vectors(2 * n)) if n else np.zeros(0)
        if layout == "strided":
            vec = vec[::2]
        elif layout == "reversed":
            vec = vec[::-1]
        elif layout == "2d":
            vec = vec.reshape(-1, 2) if vec.size % 2 == 0 else vec.reshape(1, -1)
        elif layout == "list":
            vec = vec.tolist()
        elif layout == "float32":
            vec = vec.astype(np.float32)
        with np.errstate(all="ignore"):
            got = _NormRecorder().check_vector(vec).value
            want = _reference_vector_norm(vec)
        assert _bytes(got) == _bytes(want)
