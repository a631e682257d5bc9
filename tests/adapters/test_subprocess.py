"""The fault-isolation harness: crash detection, watchdog, replay.

These tests spawn real child processes; they are the proof that the
crash oracle works for *live* targets — a worker death is detected,
reported, and recovered from without taking the campaign down.
"""

import functools
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.adapters import subprocess_adapter
from repro.adapters.base import DBMSConnection
from repro.adapters.faults import FaultPlan, FaultyFactory
from repro.adapters.minidb_adapter import MiniDBConnection
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.adapters.subprocess_adapter import (
    SubprocessConfig,
    SubprocessConnection,
)
from repro.core.error_oracle import SQLITE3_DOCUMENTED_QUIRKS
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBCrash, DBError, DBTimeout, HarnessError
from repro.minidb.bugs import BugRegistry
from repro.telemetry import Telemetry, names

SRC = Path(__file__).resolve().parents[2] / "src"

FAST = SubprocessConfig(statement_timeout=5.0, backoff_base=0.01)


def isolated(plan=None, config=FAST):
    factory = (SQLite3Connection if plan is None
               else FaultyFactory(SQLite3Connection, plan))
    return SubprocessConnection(factory, config)


class TestProtocol:
    def test_satisfies_connection_protocol(self):
        conn = isolated()
        try:
            assert isinstance(conn, DBMSConnection)
            assert conn.dialect == "sqlite"
        finally:
            conn.close()

    def test_value_fidelity_across_the_pipe(self):
        conn = isolated()
        try:
            row = conn.execute(
                "SELECT 1, 1.5, 'héllo', X'00ff', NULL")[0]
            assert [v.v for v in row] == [1, 1.5, "héllo",
                                          b"\x00\xff", None]
        finally:
            conn.close()

    def test_state_persists_across_statements(self):
        conn = isolated()
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (41)")
            conn.execute("UPDATE t SET a = a + 1")
            assert conn.execute("SELECT a FROM t")[0][0].v == 42
        finally:
            conn.close()

    def test_db_errors_cross_the_pipe_typed(self):
        conn = isolated()
        try:
            with pytest.raises(DBError) as exc:
                conn.execute("SELECT * FROM missing")
            assert "missing" in exc.value.message
            assert not isinstance(exc.value, DBTimeout)
        finally:
            conn.close()

    def test_failed_statements_not_replayed(self):
        conn = isolated(FaultPlan(crash_at=(3,)))
        try:
            conn.execute("CREATE TABLE t(a UNIQUE)")
            conn.execute("INSERT INTO t VALUES (1)")
            with pytest.raises(DBError):
                conn.execute("INSERT INTO t VALUES (1)")  # constraint
            with pytest.raises(DBCrash):
                conn.execute("INSERT INTO t VALUES (2)")
            # Restore replays only the two successes.
            assert [r[0].v for r in conn.execute("SELECT a FROM t")] \
                == [1]
        finally:
            conn.close()

    def test_close_is_idempotent(self):
        conn = isolated()
        conn.close()
        conn.close()


class TestCrashRecovery:
    def test_crash_restart_replay_roundtrip(self):
        conn = isolated(FaultPlan(crash_at=(3,)))
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (1)")
            conn.execute("INSERT INTO t VALUES (2)")
            first_pid = conn.worker_pid
            with pytest.raises(DBCrash) as exc:
                conn.execute("INSERT INTO t VALUES (3)")
            assert "injected segfault" in str(exc.value)
            rows = conn.execute("SELECT a FROM t ORDER BY a")
            assert [r[0].v for r in rows] == [1, 2]
            assert conn.worker_pid != first_pid
        finally:
            conn.close()

    def test_crash_fault_does_not_refire_after_restart(self):
        # The fault offset advances past the crashed statement, so a
        # deterministic crash_at cannot wedge the connection in a loop.
        conn = isolated(FaultPlan(crash_at=(1,)))
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBCrash):
                conn.execute("INSERT INTO t VALUES (1)")
            for i in range(5):
                conn.execute(f"INSERT INTO t VALUES ({i})")
            assert len(conn.execute("SELECT * FROM t")) == 5
        finally:
            conn.close()

    def test_real_process_death_is_a_crash(self):
        # Kill the worker out from under the harness — the next
        # statement must surface DBCrash, not hang or raise oddly.
        conn = isolated()
        try:
            conn.execute("CREATE TABLE t(a)")
            os.kill(conn.worker_pid, signal.SIGKILL)
            with pytest.raises(DBCrash) as exc:
                conn.execute("INSERT INTO t VALUES (1)")
            assert "SIGKILL" in str(exc.value) or "died" in str(exc.value)
            conn.execute("INSERT INTO t VALUES (1)")  # recovered
            recovered_pid = conn.worker_pid
        finally:
            conn.close()
        # The recovered worker is parked and serves the next connection,
        # which starts from an empty database.
        again = isolated()
        try:
            assert again.worker_pid == recovered_pid
            with pytest.raises(DBError):
                again.execute("SELECT * FROM t")
        finally:
            again.close()


class TestWatchdog:
    def test_timeout_fires_on_hung_statement(self):
        plan = FaultPlan(hang_at=(1,), hang_seconds=60)
        conn = isolated(plan, SubprocessConfig(statement_timeout=0.3,
                                               backoff_base=0.01))
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBTimeout) as exc:
                conn.execute("INSERT INTO t VALUES (1)")
            assert "watchdog" in exc.value.message
        finally:
            conn.close()

    def test_state_survives_a_timeout(self):
        plan = FaultPlan(hang_at=(2,), hang_seconds=60)
        conn = isolated(plan, SubprocessConfig(statement_timeout=0.3,
                                               backoff_base=0.01))
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (7)")
            with pytest.raises(DBTimeout):
                conn.execute("INSERT INTO t VALUES (8)")
            # The hung statement was dropped; prior state was replayed.
            assert [r[0].v for r in conn.execute("SELECT a FROM t")] \
                == [7]
        finally:
            conn.close()


class UnbuildableTarget:
    """A factory whose target can never come up (fails in the child)."""

    def __call__(self):  # pragma: no cover - runs in the worker child
        raise RuntimeError("cannot build target")


class TestRetryBudget:
    def test_budget_exhaustion_raises_harness_error(self):
        # Every spawn attempt fails at the handshake, so restore burns
        # through its retry budget and gives up loudly.
        with pytest.raises(HarnessError):
            SubprocessConnection(
                UnbuildableTarget(),
                SubprocessConfig(statement_timeout=1.0, max_restarts=2,
                                 backoff_base=0.0))


class TestRunnerIntegration:
    """Acceptance: a fault plan that crashes the target mid-campaign
    yields a crash-oracle BugReport and the campaign completes the
    remaining databases — no process death, no lost results."""

    def test_crash_and_hang_mid_campaign(self):
        plan = FaultPlan(crash_at=(12,), hang_at=(25,), hang_seconds=60)
        harness = SubprocessConfig(statement_timeout=0.4,
                                   backoff_base=0.01)

        def factory():
            return SubprocessConnection(
                FaultyFactory(SQLite3Connection, plan), harness)

        runner = PQSRunner(
            factory,
            RunnerConfig(dialect="sqlite", seed=3,
                         documented_quirks=SQLITE3_DOCUMENTED_QUIRKS))
        stats = runner.run(3)
        assert stats.databases == 3, "campaign must complete every db"
        crashes = [r for r in stats.reports
                   if r.oracle.value == "segfault"]
        # The per-round schedule injects one crash and one hang per
        # database round.
        assert len(crashes) == 3
        assert stats.timeouts == 3
        for report in crashes:
            assert "injected segfault" in report.message
            assert report.test_case.statements

    def test_clean_subprocess_run_matches_in_process(self):
        config = RunnerConfig(dialect="sqlite", seed=55,
                              documented_quirks=SQLITE3_DOCUMENTED_QUIRKS)
        in_process = PQSRunner(SQLite3Connection, config).run(2)

        def factory():
            return SubprocessConnection(SQLite3Connection, FAST)

        config2 = RunnerConfig(dialect="sqlite", seed=55,
                               documented_quirks=SQLITE3_DOCUMENTED_QUIRKS)
        isolated_stats = PQSRunner(factory, config2).run(2)
        assert in_process.statements == isolated_stats.statements
        assert in_process.queries == isolated_stats.queries
        assert len(in_process.reports) == len(isolated_stats.reports) == 0


class ToolBugTarget(SQLite3Connection):
    """Fails with a non-DBError (a tool bug, so a ``fatal`` reply) on
    one marker statement."""

    def execute(self, sql):
        if sql == "SELECT 'tool bug'":
            raise RuntimeError("tool bug")
        return super().execute(sql)


class UnclosableTarget(SQLite3Connection):
    """A target whose close() fails, so the worker cannot ack reset."""

    def close(self):
        raise RuntimeError("cannot close target")


def reaped(pid):
    """True once *pid* is no child of ours left to wait for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestWorkerReuse:
    """close() parks a healthy worker and the next connection takes it;
    a worker any fault touched is reaped and never parked."""

    @pytest.mark.parametrize("target", [
        SQLite3Connection, functools.partial(MiniDBConnection, "sqlite")],
        ids=["sqlite3", "minidb"])
    def test_next_connection_gets_the_same_worker_and_an_empty_schema(
            self, target):
        first = SubprocessConnection(target, FAST)
        try:
            first.execute("CREATE TABLE t(a)")
            first.execute("INSERT INTO t VALUES (1)")
            pid = first.worker_pid
        finally:
            first.close()
        second = SubprocessConnection(target, FAST)
        try:
            assert second.worker_pid == pid
            if target is SQLite3Connection:
                assert second.execute("SELECT * FROM sqlite_master") == []
            with pytest.raises(DBError):
                second.execute("SELECT * FROM t")
            second.execute("CREATE TABLE t(a)")
            assert second.execute("SELECT * FROM t") == []
        finally:
            second.close()

    def test_crashed_worker_is_reaped_not_parked(self, idle_workers):
        conn = isolated(FaultPlan(crash_at=(1,)))
        pid = conn.worker_pid
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBCrash):
                conn.execute("INSERT INTO t VALUES (1)")
            assert reaped(pid) and idle_workers == []
        finally:
            conn.close()
        assert pid not in [p.pid for p in idle_workers]

    def test_timed_out_worker_is_reaped_not_parked(self, idle_workers):
        conn = isolated(FaultPlan(hang_at=(0,), hang_seconds=60),
                        SubprocessConfig(statement_timeout=0.3,
                                         backoff_base=0.01))
        pid = conn.worker_pid
        with pytest.raises(DBTimeout):
            conn.execute("CREATE TABLE t(a)")
        conn.close()
        assert reaped(pid) and idle_workers == []

    def test_fatal_worker_is_reaped_not_parked(self, idle_workers):
        conn = SubprocessConnection(ToolBugTarget, FAST)
        pid = conn.worker_pid
        with pytest.raises(HarnessError):
            conn.execute("SELECT 'tool bug'")
        conn.close()
        assert reaped(pid) and idle_workers == []

    def test_failed_reset_is_reaped_not_parked(self, idle_workers):
        conn = SubprocessConnection(UnclosableTarget, FAST)
        pid = conn.worker_pid
        conn.execute("CREATE TABLE t(a)")
        conn.close()
        assert reaped(pid) and idle_workers == []

    def test_parked_worker_killed_while_idle_is_replaced_unseen(
            self, idle_workers):
        isolated().close()
        (parked,) = idle_workers
        parked.kill()
        parked.wait()
        telemetry = Telemetry()
        # The fault plan proves the new target counts from offset 0.
        conn = SubprocessConnection(
            FaultyFactory(SQLite3Connection, FaultPlan(crash_at=(0,))),
            FAST, telemetry=telemetry)
        try:
            assert conn.worker_pid not in (None, parked.pid)
            assert telemetry.registry.value(names.WORKER_RESTARTS) == 0
            assert telemetry.registry.value(names.WORKER_REUSES) == 0
            with pytest.raises(DBCrash):
                conn.execute("CREATE TABLE t(a)")
        finally:
            conn.close()

    def test_200_minidb_rounds_match_in_process_on_one_worker(self):
        # Every sqlite defect on, crash defects included: a round whose
        # target crashed hands the next round the restarted worker, and
        # no other round changes worker.
        target = functools.partial(MiniDBConnection, "sqlite",
                                   bugs=BugRegistry.all_for("sqlite"))
        pids = []

        def factory():
            conn = SubprocessConnection(target, FAST)
            pids.append(conn.worker_pid)
            return conn

        in_process = rounds(target, 200)
        isolated_rounds = rounds(factory, 200)
        assert isolated_rounds == in_process
        crashed = [any(oracle == "segfault" for oracle, _ in reports)
                   for _, _, reports in in_process]
        assert any(crashed)
        changed = [a != b for a, b in zip(pids, pids[1:])]
        assert changed == crashed[:-1]

    def test_seeded_fault_chaos_matches_in_process(self, idle_workers):
        # Per-round seeded crash/error/drop-row schedules, and the
        # parked worker SIGKILLed before some rounds: the isolated run,
        # reusing workers, must equal the in-process one round for round.
        plans = [FaultPlan(seed=i, crash_rate=0.03, error_rate=0.03,
                           drop_row_rate=0.02, horizon=200)
                 for i in range(30)]
        in_process_plans = iter(plans)
        isolated_plans = iter(enumerate(plans))
        killed = []

        def in_process():
            return FaultyFactory(SQLite3Connection,
                                 next(in_process_plans))()

        def isolated_factory():
            index, plan = next(isolated_plans)
            if index % 7 == 3 and idle_workers:
                idle_workers[-1].kill()
                idle_workers[-1].wait()
                killed.append(index)
            return SubprocessConnection(
                FaultyFactory(SQLite3Connection, plan), FAST)

        expected = rounds(in_process, len(plans), SQLITE3_DOCUMENTED_QUIRKS)
        assert any(oracle == "segfault" for _, _, reports in expected
                   for oracle, _ in reports)
        assert rounds(isolated_factory, len(plans),
                      SQLITE3_DOCUMENTED_QUIRKS) == expected
        assert killed

    def test_threads_never_share_a_worker(self, idle_workers):
        # More threads than cores race to take and park workers; a lost
        # update on the idle list would hand one worker to two
        # connections at once, or park more workers than were open.
        threads, cycles = 3, 5
        in_use, lock, errors = set(), threading.Lock(), []

        def churn():
            try:
                for _ in range(cycles):
                    conn = isolated()
                    with lock:
                        assert conn.worker_pid not in in_use
                        in_use.add(conn.worker_pid)
                    conn.execute("CREATE TABLE t(a)")
                    with lock:
                        in_use.discard(conn.worker_pid)
                    conn.close()
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=churn)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        pids = [proc.pid for proc in idle_workers]
        assert 1 <= len(pids) <= threads and len(set(pids)) == len(pids)
        assert all(proc.poll() is None for proc in idle_workers)


def rounds(factory, count, quirks=()):
    """Per-round (statements, queries, findings) of a seeded runner."""
    runner = PQSRunner(factory, RunnerConfig(
        dialect="sqlite", seed=17, pivots_per_database=2,
        queries_per_pivot=3, documented_quirks=quirks))
    out = []
    for _ in range(count):
        round_ = runner.run_database_round()
        out.append((round_.statements, round_.queries,
                    [(r.oracle.value, r.message) for r in round_.reports]))
    return out


def run_child(script, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)],
                            stdout=subprocess.PIPE, text=True, env=env,
                            **kwargs)


class TestNoWorkerOutlivesItsProcess:
    def test_exit_reaps_parked_workers(self):
        child = run_child("""
            import atexit, os

            pids = []

            def check():  # registered first, so it runs last
                for pid in pids:
                    try:
                        os.waitpid(pid, os.WNOHANG)
                    except ChildProcessError:
                        continue
                    print("unreaped", pid, flush=True)
                    os._exit(3)

            atexit.register(check)
            from repro.adapters.sqlite3_adapter import SQLite3Connection
            from repro.adapters.subprocess_adapter import (
                SubprocessConnection)

            conn = SubprocessConnection(SQLite3Connection)
            pids.append(conn.worker_pid)
            conn.close()
            print("parked", pids[0], flush=True)
            """)
        out, _ = child.communicate(timeout=60)
        assert child.returncode == 0, out
        assert out.startswith("parked ")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_leaves_the_parents_workers_alone(
            self, idle_workers):
        isolated().close()
        (parked,) = idle_workers
        child = os.fork()
        if child == 0:
            try:  # what the child's exit would do, without pytest's
                subprocess_adapter._close_all_workers()
            finally:
                os._exit(0)
        os.waitpid(child, 0)
        conn = isolated()
        try:
            assert conn.worker_pid == parked.pid
        finally:
            conn.close()

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="needs /proc")
    def test_parked_worker_exits_when_its_parent_is_killed(self):
        child = run_child("""
            import time
            from repro.adapters.sqlite3_adapter import SQLite3Connection
            from repro.adapters.subprocess_adapter import (
                SubprocessConnection)

            conn = SubprocessConnection(SQLite3Connection)
            pid = conn.worker_pid
            conn.close()
            print(pid, flush=True)
            time.sleep(60)
            """)
        try:
            worker = int(child.stdout.readline())
        finally:
            child.send_signal(signal.SIGKILL)
            child.wait()
            child.stdout.close()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                stat = Path(f"/proc/{worker}/stat").read_text()
            except FileNotFoundError:
                return
            if stat.rsplit(")", 1)[1].split()[0] == "Z":
                return
            time.sleep(0.05)
        pytest.fail(f"worker {worker} outlived its parent: {stat}")
