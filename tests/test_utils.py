"""Unit tests for repro.utils (validation, RNG, timer, events, io)."""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.utils.events import EventLog, SolverEvent
from repro.utils.io import atomic_write_json, atomic_write_text
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timer import Timer
from repro.utils.validation import (
    as_dense_vector,
    check_matching_shapes,
    check_square,
    require_nonnegative,
    require_positive_int,
)


class TestAsDenseVector:
    def test_list_to_vector(self):
        v = as_dense_vector([1, 2, 3])
        assert v.dtype == np.float64
        assert v.shape == (3,)

    def test_column_vector_flattened(self):
        v = as_dense_vector(np.ones((4, 1)))
        assert v.shape == (4,)

    def test_row_vector_flattened(self):
        v = as_dense_vector(np.ones((1, 5)))
        assert v.shape == (5,)

    def test_length_enforced(self):
        with pytest.raises(ValueError, match="length"):
            as_dense_vector([1.0, 2.0], n=3)

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_dense_vector(np.ones((2, 3)))

    def test_contiguous_output(self):
        base = np.arange(20, dtype=np.float64)[::2]
        v = as_dense_vector(base)
        assert v.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(v, base)


class TestShapeChecks:
    def test_check_square_ok(self):
        assert check_square((5, 5)) == 5

    def test_check_square_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            check_square((5, 4))

    def test_check_square_rejects_1d(self):
        with pytest.raises(ValueError):
            check_square((5,))

    def test_check_matching_shapes(self):
        check_matching_shapes((4, 4), np.zeros(4))
        with pytest.raises(ValueError, match="rows"):
            check_matching_shapes((4, 4), np.zeros(3))


class TestScalarValidators:
    def test_positive_int(self):
        assert require_positive_int(3, "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(ValueError):
            require_positive_int(bad, "x")

    def test_nonnegative(self):
        assert require_nonnegative(0.0, "x") == 0.0
        assert require_nonnegative(1.5, "x") == 1.5

    @pytest.mark.parametrize("bad", [-1e-9, float("nan"), float("inf")])
    def test_nonnegative_rejects(self, bad):
        with pytest.raises(ValueError):
            require_nonnegative(bad, "x")


class TestRng:
    def test_as_generator_from_seed_is_deterministic(self):
        a = as_generator(42).standard_normal(5)
        b = as_generator(42).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_spawn_generators_independent(self):
        children = spawn_generators(0, 3)
        assert len(children) == 3
        draws = [g.standard_normal(4) for g in children]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_generators_negative_count(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.001)
        with t:
            time.sleep(0.001)
        assert t.calls == 2
        assert t.elapsed > 0.0
        assert t.mean > 0.0

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.calls == 0
        assert t.elapsed == 0.0
        assert t.mean == 0.0


class TestEventLog:
    def test_record_and_query(self):
        log = EventLog()
        log.record("fault_injected", where="hessenberg", inner_iteration=3, original=1.0)
        log.record("fault_detected", where="hessenberg", inner_iteration=3)
        log.record("fault_injected", where="spmv")
        assert len(log) == 3
        assert log.count("fault_injected") == 2
        assert log.has("fault_detected")
        assert not log.has("happy_breakdown")
        assert all(isinstance(e, SolverEvent) for e in log)

    def test_of_kind_filters(self):
        log = EventLog()
        log.record("a")
        log.record("b")
        log.record("a", where="x")
        kinds = log.of_kind("a")
        assert len(kinds) == 2
        assert kinds[1].where == "x"

    def test_extend_merges(self):
        log1, log2 = EventLog(), EventLog()
        log1.record("a")
        log2.record("b")
        log1.extend(log2)
        assert len(log1) == 2
        assert log1.has("b")

    def test_event_payload(self):
        log = EventLog()
        e = log.record("fault_injected", original=2.0, corrupted=3.0)
        assert e.data["original"] == 2.0
        assert e.data["corrupted"] == 3.0

    def test_clear(self):
        log = EventLog()
        log.record("a")
        log.clear()
        assert len(log) == 0

    def test_getitem(self):
        log = EventLog()
        log.record("first")
        log.record("second")
        assert log[0].kind == "first"
        assert log[-1].kind == "second"


class TestAtomicWrite:
    def test_threads_of_one_process_never_collide(self, tmp_path):
        """Writers in one process used to share a PID-keyed temporary, so one
        thread's replace consumed another's half-written file."""
        target = tmp_path / "record.json"
        errors = []

        def writer(tid):
            try:
                for i in range(2000):
                    atomic_write_json(target, {"thread": tid, "i": i})
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert json.loads(target.read_text())["i"] == 1999
        assert os.listdir(tmp_path) == ["record.json"]

    def test_failed_write_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "record.txt"
        atomic_write_text(target, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "\ud800")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["record.txt"]

    def test_permissions_follow_the_umask(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        target = tmp_path / "record.txt"
        atomic_write_text(target, "x")
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask
