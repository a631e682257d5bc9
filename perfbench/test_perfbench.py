"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They prove that tracing changes no outcome, that the timing proxy is
transparent to adapters with and without the optional hooks, that a
seed reproduces the same work in separate processes, and that the
command keeps its output contract.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import (  # noqa: E402
    ROUND, LayerPatches, TimedConnection, Tracer)

from repro.adapters.base import execute_batch  # noqa: E402
from repro.adapters.minidb_adapter import MiniDBConnection  # noqa: E402
from repro.adapters.sqlite3_adapter import SQLite3Connection  # noqa: E402


def _command(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("target", [MiniDBConnection, SQLite3Connection])
def test_proxy_exposes_only_the_hooks_the_target_has(target):
    inner = target()
    proxy = TimedConnection(inner, Tracer())
    for hook in ("execute_many", "query_plan", "with_plan",
                 "index_candidates"):
        assert hasattr(proxy, hook) == hasattr(inner, hook), hook
    assert proxy.dialect == inner.dialect
    outcomes = execute_batch(proxy, ["CREATE TABLE t0(c0)",
                                     "INSERT INTO t0 VALUES (1)",
                                     "SELECT * FROM nowhere",
                                     "SELECT * FROM t0"])
    assert [kind for kind, _ in outcomes] == ["ok", "ok", "error"]
    proxy.close()


def test_proxy_times_and_counts_a_native_batch():
    class Batching:
        dialect = "sqlite"

        def execute_many(self, sqls):
            return [("ok", [])] * (len(sqls) - 1) + [("error", None)]

    tracer = Tracer()
    outcomes = execute_batch(TimedConnection(Batching(), tracer),
                             ["a", "b", "c"])
    assert len(outcomes) == 3
    assert tracer.calls["adapters.execute_many"] == 1
    assert tracer.counts["execute_many.statements"] == 3
    assert tracer.counts["ok"] == 2


def test_patches_are_removed_after_the_traced_section():
    from repro.minidb import engine

    before = engine.parse_statement
    callbacks = list(gc.callbacks)
    with LayerPatches(Tracer()).installed():
        assert engine.parse_statement is not before
        assert len(gc.callbacks) == len(callbacks) + 1
    assert engine.parse_statement is before
    assert gc.callbacks == callbacks


def test_collector_pauses_count_only_inside_traced_spans():
    tracer = Tracer()
    with LayerPatches(tracer).installed():
        gc.collect()
        assert tracer.counts["gc.gen2"] == 0 and tracer.gc_s == 0.0
        tracer.call(ROUND, gc.collect)
    assert tracer.counts["gc.gen2"] == 1
    assert 0.0 < tracer.gc_s <= tracer.total_s[ROUND]


@pytest.mark.parametrize("name, rounds", [("minidb-hunt", 6),
                                          ("sqlite3-hunt", 6),
                                          ("isolated-hunt", 2)])
def test_traced_hunt_rounds_match_untraced(name, rounds):
    hunt = workloads.WORKLOADS[name]
    tracer = Tracer()
    patches = LayerPatches(tracer)
    queries = 0
    for index in range(rounds):
        dialect = hunt.dialects[index % len(hunt.dialects)]
        plain = workloads._round(hunt.runner(dialect), dialect, 3, index)
        traced_runner = hunt.runner(dialect)
        workloads.trace_runner(traced_runner, tracer)
        with patches.installed():
            traced = workloads._round(traced_runner, dialect, 3, index,
                                      tracer)
        assert not plain.failed
        assert traced.outcome() == plain.outcome()
        queries += plain.queries
    assert queries > 0
    assert tracer.calls["core.round"] == rounds
    assert tracer.calls["core.synthesize"] > 0


def test_traced_campaign_matches_untraced():
    campaign = workloads.WORKLOADS["defect-campaign"]
    tracer = Tracer()
    plain = campaign.unit(5, 1)
    with LayerPatches(tracer).installed():
        traced = campaign.unit(5, 1, tracer)
    assert not plain.error
    assert traced.outcome() == plain.outcome()
    assert tracer.calls["campaigns.run"] == 1
    assert tracer.calls["campaigns.replay"] > 0


def test_attribution_check_flags_a_wrong_defect_or_oracle():
    from repro.core.reports import Oracle
    from repro.minidb.bugs import BugRegistry, bugs_for_dialect

    unit = workloads.WORKLOADS["defect-campaign"].unit(5, 1)
    assert unit.kept and not unit.error
    assert workloads.attribution_failures([unit]) == []
    report = unit.kept[0]
    statements = report.test_case.statements
    clean = workloads.final_outcome(unit.dialect, BugRegistry(), statements)
    innocent = [bug.bug_id for bug in bugs_for_dialect(unit.dialect)
                if workloads.final_outcome(unit.dialect,
                                           BugRegistry({bug.bug_id}),
                                           statements) == clean]
    assert innocent
    primary, oracle = report.attributed_bugs, report.oracle
    report.attributed_bugs = [innocent[0]]
    assert len(workloads.attribution_failures([unit])) == 1
    report.attributed_bugs = primary
    report.oracle = next(o for o in (Oracle.CONTAINMENT, Oracle.ERROR)
                         if o is not oracle)
    assert len(workloads.attribution_failures([unit])) == 1


def test_a_seed_gives_the_same_rounds_in_separate_processes():
    script = ("import json, workloads\n"
              "hunt = workloads.WORKLOADS['minidb-hunt']\n"
              "print(json.dumps([workloads._round(hunt.runner(d), d, 11, i)"
              ".outcome() for i, d in enumerate(hunt.dialects)]))\n")
    env_path = f"{HERE}:{ROOT / 'src'}"
    outputs = [subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=env_path, PYTHONHASHSEED=hashseed),
        check=True, timeout=120).stdout for hashseed in ("1", "2")]
    assert outputs[0] == outputs[1]


def test_detection_counts_an_undetected_defect_as_the_whole_hunt():
    from repro.minidb.bugs import BUG_CATALOG

    rounds = [workloads.Round(0, "sqlite", queries=10, seconds=1.0),
              workloads.Round(1, "sqlite", queries=30, seconds=2.0,
                              detected=("sqlite-rtrim-compare",))]
    queries, seconds = run.detection(rounds)
    n = len(BUG_CATALOG)
    assert queries == pytest.approx((40 * (n - 1) + 40) / n)
    rounds[1].queries, rounds[1].detected = 30, ()
    rounds[0].detected = ("sqlite-rtrim-compare",)
    assert run.detection(rounds)[0] == pytest.approx((40 * (n - 1) + 10)
                                                     / n)
    assert seconds == pytest.approx(3.0)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"),
                                            ("1", "per_layer")])
def test_command_prints_the_declared_metrics(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _command("--workload", "sqlite3-hunt", "--seed", "2",
                    "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared[section]}
    units = {m["name"]: m["unit"] for m in declared[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "minidb-hunt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
