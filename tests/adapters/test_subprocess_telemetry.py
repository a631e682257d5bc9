"""Fault-isolation harness instrumentation: restarts, kills, replay."""

import pytest

from repro.adapters.faults import FaultPlan, FaultyFactory
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.adapters.subprocess_adapter import (
    SubprocessConfig,
    SubprocessConnection,
)
from repro.errors import DBCrash, DBTimeout
from repro.telemetry import Telemetry, names

FAST = SubprocessConfig(statement_timeout=5.0, backoff_base=0.01)


def isolated(telemetry, plan=None, config=FAST):
    factory = (SQLite3Connection if plan is None
               else FaultyFactory(SQLite3Connection, plan))
    return SubprocessConnection(factory, config, telemetry=telemetry)


class TestHarnessMetrics:
    def test_clean_run_counts_roundtrips_only(self):
        telemetry = Telemetry()
        conn = isolated(telemetry)
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (1)")
            conn.execute("SELECT * FROM t")
        finally:
            conn.close()
        registry = telemetry.registry
        assert registry.histogram(names.ROUNDTRIP_SECONDS).count == 3
        assert registry.value(names.WORKER_RESTARTS) == 0
        assert registry.value(names.WATCHDOG_KILLS) == 0

    def test_crash_recovery_counts_restart_and_replay(self):
        telemetry = Telemetry()
        conn = isolated(telemetry, FaultPlan(crash_at=(2,)))
        try:
            conn.execute("CREATE TABLE t(a)")
            conn.execute("INSERT INTO t VALUES (1)")
            with pytest.raises(DBCrash):
                conn.execute("INSERT INTO t VALUES (2)")
            # Restore replays the two successful statements.
            assert conn.execute("SELECT COUNT(*) FROM t")[0][0].v == 1
        finally:
            conn.close()
        registry = telemetry.registry
        assert registry.value(names.WORKER_RESTARTS) == 1
        replay = registry.histogram(names.REPLAY_STATEMENTS,
                                    buckets=names.COUNT_BUCKETS)
        assert replay.count == 1
        assert replay.sum == 2  # two statements replayed

    def test_watchdog_kill_counted(self):
        telemetry = Telemetry()
        config = SubprocessConfig(statement_timeout=0.3,
                                  backoff_base=0.01)
        conn = isolated(telemetry, FaultPlan(hang_at=(1,)),
                        config=config)
        try:
            conn.execute("CREATE TABLE t(a)")
            with pytest.raises(DBTimeout):
                conn.execute("INSERT INTO t VALUES (1)")
        finally:
            conn.close()
        assert telemetry.registry.value(names.WATCHDOG_KILLS) == 1

    def test_spawn_timed_and_reuse_counted(self, idle_workers):
        telemetry = Telemetry()
        for _ in range(3):
            isolated(telemetry).close()
        registry = telemetry.registry
        assert registry.histogram(names.WORKER_SPAWN_SECONDS).count == 1
        assert registry.value(names.WORKER_REUSES) == 2
        assert registry.value(names.WORKER_RESTARTS) == 0

    def test_restart_after_crash_spawns_a_new_worker(self, idle_workers):
        telemetry = Telemetry()
        conn = isolated(telemetry, FaultPlan(crash_at=(0,)))
        try:
            with pytest.raises(DBCrash):
                conn.execute("CREATE TABLE t(a)")
            conn.execute("CREATE TABLE t(a)")
        finally:
            conn.close()
        registry = telemetry.registry
        assert registry.value(names.WORKER_RESTARTS) == 1
        assert registry.histogram(names.WORKER_SPAWN_SECONDS).count == 2
        assert registry.value(names.WORKER_REUSES) == 0

    def test_disabled_mode_records_nothing(self):
        conn = isolated(None, FaultPlan(crash_at=(0,)))
        try:
            with pytest.raises(DBCrash):
                conn.execute("CREATE TABLE t(a)")
            conn.execute("CREATE TABLE t(a)")
        finally:
            conn.close()
        assert conn.telemetry.registry.snapshot() == {}
