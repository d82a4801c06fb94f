"""Tests for repro.utils (rng, timing, validation, parallel)."""

import math
import operator
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.utils import (
    Timer,
    as_rng,
    ensure_array,
    ensure_float_array,
    ensure_positive,
    parallel_map,
    spawn_rngs,
    throughput_mb_s,
    value_range,
)
from repro.utils.parallel import WorkerProcess
from repro.utils.rng import derive_seed
from repro.utils.validation import absolute_error_bound, ensure_dims


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        assert as_rng(42).integers(0, 100, 5).tolist() == as_rng(42).integers(0, 100, 5).tolist()

    def test_as_rng_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_as_rng_seedsequence(self):
        ss = np.random.SeedSequence(5)
        assert isinstance(as_rng(ss), np.random.Generator)

    def test_spawn_rngs_count(self):
        assert len(spawn_rngs(0, 4)) == 4

    def test_spawn_rngs_independent_streams(self):
        a, b = spawn_rngs(0, 2)
        assert a.integers(0, 1000, 10).tolist() != b.integers(0, 1000, 10).tolist()

    def test_spawn_rngs_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_from_generator(self):
        gens = spawn_rngs(np.random.default_rng(3), 3)
        assert len(gens) == 3

    def test_derive_seed_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_derive_seed_label_sensitive(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")


class TestTimer:
    def test_context_manager_measures_time(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_start_stop(self):
        t = Timer()
        t.start()
        elapsed = t.stop()
        assert elapsed >= 0.0

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_throughput(self):
        assert throughput_mb_s(2_000_000, 2.0) == pytest.approx(1.0)

    def test_throughput_zero_time_is_inf(self):
        assert throughput_mb_s(100, 0.0) == float("inf")


class TestValidation:
    def test_ensure_array_rejects_empty(self):
        with pytest.raises(ValueError):
            ensure_array([])

    def test_ensure_float_array_casts_ints(self):
        out = ensure_float_array([1, 2, 3])
        assert np.issubdtype(out.dtype, np.floating)

    def test_ensure_float_array_rejects_nan(self):
        with pytest.raises(ValueError):
            ensure_float_array([1.0, np.nan])

    def test_ensure_float_array_rejects_inf(self):
        with pytest.raises(ValueError):
            ensure_float_array([1.0, np.inf])

    def test_ensure_float_array_contiguous(self):
        arr = np.arange(12.0).reshape(3, 4)[:, ::2]
        assert ensure_float_array(arr).flags["C_CONTIGUOUS"]

    def test_ensure_positive(self):
        assert ensure_positive(1.5) == 1.5
        with pytest.raises(ValueError):
            ensure_positive(0.0)
        with pytest.raises(ValueError):
            ensure_positive(-1.0)

    def test_ensure_dims(self):
        ensure_dims(2, (1, 2, 3))
        with pytest.raises(ValueError):
            ensure_dims(4, (1, 2, 3))

    def test_value_range(self):
        assert value_range(np.array([1.0, 3.0, -2.0])) == 5.0

    def test_value_range_empty_raises(self):
        with pytest.raises(ValueError):
            value_range(np.array([]))

    def test_absolute_error_bound(self):
        data = np.array([0.0, 10.0])
        assert absolute_error_bound(data, 1e-2) == pytest.approx(0.1)

    def test_absolute_error_bound_constant_field(self):
        data = np.full(10, 3.0)
        assert absolute_error_bound(data, 1e-2) == pytest.approx(1e-2)


class TestParallelMap:
    def test_serial_map_preserves_order(self):
        assert parallel_map(lambda x: x * 2, [1, 2, 3]) == [2, 4, 6]

    def test_workers_one_is_serial(self):
        assert parallel_map(lambda x: x + 1, [1, 2], workers=1) == [2, 3]

    def test_empty_input(self):
        assert parallel_map(lambda x: x, []) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(lambda x: -x, [5], workers=8) == [-5]


class _Unrebuildable(Exception):
    """Pickles, but its two-argument ``__init__`` cannot rebuild it."""

    def __init__(self, a, b):
        super().__init__(f"{a}-{b}")


def _raise_unrebuildable(_):
    raise _Unrebuildable("x", "y")


@pytest.fixture(scope="module")
def worker():
    w = WorkerProcess("test-worker")
    w.start()
    yield w
    w.close()


class TestWorkerProcess:
    def test_call_returns_the_result(self, worker):
        assert worker.call(math.sqrt, 6.25) == 2.5
        assert list(worker.imap(abs, [-1, 2, -3])) == [1, 2, 3]

    def test_exception_keeps_type_and_message(self, worker):
        with pytest.raises(ValueError) as exc:
            worker.call(int, "not a number")
        with pytest.raises(ValueError) as here:
            int("not a number")
        assert str(exc.value) == str(here.value)
        assert worker.call(math.sqrt, 4.0) == 2.0  # still serving

    def test_exception_that_cannot_cross_is_a_runtime_error(self, worker):
        with pytest.raises(RuntimeError, match="_Unrebuildable: x-y"):
            worker.call(_raise_unrebuildable, None)

    def test_dead_worker_raises_oserror_until_restarted(self, worker):
        old = worker.pid
        os.kill(old, signal.SIGKILL)
        with pytest.raises(OSError, match="died"):
            worker.call(math.sqrt, 1.0)
        with pytest.raises(OSError, match="not running"):
            worker.call(math.sqrt, 1.0)
        worker.start()
        assert worker.pid not in (None, old)
        assert worker.call(math.sqrt, 9.0) == 3.0

    def test_threads_share_it_without_crossed_replies(self, worker):
        """Each caller gets its own job's result: a reply read by the wrong
        thread (an unlocked send/receive pair) breaks the equality."""
        wrong, interval = [], sys.getswitchinterval()

        def caller(base):
            for i in range(base, base + 25):
                if worker.call(operator.neg, i) != -i:
                    wrong.append(i)

        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(1000 * t,))
                       for t in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not wrong

    def test_start_is_a_no_op_while_alive(self, worker):
        pid = worker.pid
        worker.start()
        assert worker.pid == pid

    def test_close_stops_the_process(self):
        w = WorkerProcess("test-close")
        w.start()
        pid = w.pid
        assert w.call(math.sqrt, 1.0) == 1.0
        w.close()
        assert w.pid is None
        with pytest.raises(OSError, match="not running"):
            w.call(math.sqrt, 1.0)
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # exited and reaped
