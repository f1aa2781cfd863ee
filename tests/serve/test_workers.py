"""WorkerPool supervision: crash isolation, timeouts, recycling, caps."""

from __future__ import annotations

import time

import pytest

from repro.cexec.limited import (
    CappedStdout,
    OutputLimitExceeded,
    run_limited,
)
from repro.serve.workers import WorkerPool
from repro.service.stats import Counters

OK_PROG = """
int main() {
    Matrix float <1> v = init(Matrix float <1>, 4);
    v[0] = 1.0; v[1] = 2.0; v[2] = 3.0; v[3] = 4.0;
    float s = with ([0] <= [i] < [4]) fold(+, 0.0, v[i]);
    printFloat(s);
    return 0;
}
"""

LOOP_PROG = """
int main() {
    int i = 0;
    while (1 == 1) { i = i + 1; if (i > 1000000) i = 0; }
    return 0;
}
"""

TRAP_PROG = """
int main() {
    Matrix float <1> v = init(Matrix float <1>, 2);
    printFloat(v[5]);
    return 0;
}
"""

PRINT_BOMB = """
int main() {
    int i = 0;
    while (i < 100000) { printInt(i); i = i + 1; }
    return 0;
}
"""


def ok_job():
    return {"type": "run", "source": OK_PROG, "extensions": ["matrix"]}


@pytest.fixture(scope="module")
def pool():
    counters = Counters()
    p = WorkerPool(2, counters=counters, default_timeout_s=15.0,
                   output_cap=4096)
    yield p
    p.close()


class TestHappyPath:
    def test_runs_and_returns_stdout(self, pool):
        r = pool.submit_raw(ok_job())
        assert r["ok"] and r["kind"] == "ok"
        assert r["stdout"] == ["10"]
        assert r["returncode"] == 0

    def test_repeat_requests_reuse_workers(self, pool):
        pids = set()
        for _ in range(4):
            r = pool.submit_raw({"type": "_ping"})
            pids.add(r["pid"])
        assert len(pids) <= 2  # both jobs landed on the 2 live workers


class TestCrashIsolation:
    def test_crash_reported_and_pool_recovers(self, pool):
        before = pool.counters.snapshot().serve_worker_restarts
        r = pool.submit_raw({"type": "_crash"})
        assert not r["ok"] and r["kind"] == "worker_lost"
        r2 = pool.submit_raw(ok_job())
        assert r2["ok"], r2
        assert pool.alive_workers == 2
        assert pool.counters.snapshot().serve_worker_restarts == before + 1

    def test_trap_is_a_result_not_a_crash(self, pool):
        r = pool.submit_raw(
            {"type": "run", "source": TRAP_PROG, "extensions": ["matrix"]})
        assert not r["ok"] and r["kind"] == "trap"
        assert "out of bounds" in r["error"]
        assert r["returncode"] == 2
        assert pool.alive_workers == 2

    def test_compile_error_is_a_result(self, pool):
        r = pool.submit_raw(
            {"type": "run", "source": "int main() { return x; }",
             "extensions": ["matrix"]})
        assert not r["ok"] and r["kind"] == "compile_error"
        assert any("undeclared" in e for e in r["errors"])


class TestTimeouts:
    def test_infinite_loop_times_out(self, pool):
        before = pool.counters.snapshot().serve_timeouts
        t0 = time.monotonic()
        r = pool.submit_raw(
            {"type": "run", "source": LOOP_PROG, "extensions": ["matrix"]},
            timeout_s=1.0)
        elapsed = time.monotonic() - t0
        assert not r["ok"] and r["kind"] == "timeout"
        assert elapsed < 8.0  # in-process alarm or the 1.5x hard kill
        assert pool.counters.snapshot().serve_timeouts == before + 1

    def test_pool_serves_after_timeout(self, pool):
        r = pool.submit_raw(ok_job())
        assert r["ok"], r
        assert pool.alive_workers == 2


class TestOutputCap:
    def test_print_bomb_is_capped(self, pool):
        r = pool.submit_raw(
            {"type": "run", "source": PRINT_BOMB, "extensions": ["matrix"]},
            timeout_s=20.0)
        assert not r["ok"] and r["kind"] == "output_limit"
        assert r["truncated"]
        # The worker kept what was printed before the cap tripped.
        assert 0 < len(r["stdout"]) < 100000

    def test_capped_stdout_unit(self):
        sink = CappedStdout(10)
        sink.append("12345")
        with pytest.raises(OutputLimitExceeded):
            sink.append("123456")
        assert list(sink) == ["12345"]


class TestRecycling:
    def test_worker_retired_after_max_requests(self):
        counters = Counters()
        p = WorkerPool(1, counters=counters, max_requests_per_worker=3,
                       default_timeout_s=15.0)
        try:
            pids = []
            for _ in range(6):
                r = p.submit_raw({"type": "_ping"})
                pids.append(r["pid"])
            # 3 requests per interpreter, then a fresh one.
            assert len(set(pids)) >= 2
            assert pids[0] == pids[1] == pids[2]
            assert pids[3] == pids[4] == pids[5]
            assert pids[0] != pids[3]
            assert counters.snapshot().serve_worker_restarts >= 1
        finally:
            p.close()


class TestClose:
    def test_close_is_idempotent_and_kills_all(self):
        p = WorkerPool(2, default_timeout_s=15.0)
        assert p.alive_workers == 2
        p.close()
        p.close()
        assert p.alive_workers == 0
        r = p.submit_raw(ok_job())
        assert r["kind"] == "shutdown"


class TestRunLimitedInProcess:
    """The entry the workers call, exercised without a process hop."""

    def test_ok(self, tmp_path):
        r = run_limited(OK_PROG, ["matrix"], workdir=tmp_path)
        assert r["ok"] and r["stdout"] == ["10"]
        assert r["stats"]["allocs"] >= 1

    def test_outputs_roundtrip(self, tmp_path):
        prog = """
int main() {
    Matrix float <1> v = init(Matrix float <1>, 3);
    v = with ([0] <= [i] < [3]) genarray([3], 2.0 * i);
    writeMatrix("out.data", v);
    return 0;
}
"""
        r = run_limited(prog, ["matrix"], output_names=["out.data"],
                        workdir=tmp_path)
        assert r["ok"]
        assert r["outputs"]["out.data"] == [0.0, 2.0, 4.0]

    def test_inputs_materialized(self, tmp_path):
        prog = """
int main() {
    Matrix float <1> v = readMatrix("in.data");
    printFloat(with ([0] <= [i] < [3]) fold(+, 0.0, v[i]));
    return 0;
}
"""
        r = run_limited(prog, ["matrix"], inputs={"in.data": [1.0, 2.0, 3.0]},
                        workdir=tmp_path)
        assert r["ok"] and r["stdout"] == ["6"]

    def test_no_tempdir_left(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert run_limited(OK_PROG, ["matrix"])["ok"]
        r = run_limited(TRAP_PROG, ["matrix"])
        assert r["kind"] == "trap"
        assert not list(tmp_path.glob("repro-*"))

    def test_timeout_main_thread(self, tmp_path):
        t0 = time.monotonic()
        r = run_limited(LOOP_PROG, ["matrix"], timeout_s=0.5,
                        workdir=tmp_path)
        assert not r["ok"] and r["kind"] == "timeout"
        assert time.monotonic() - t0 < 5.0
