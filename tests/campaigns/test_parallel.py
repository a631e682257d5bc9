"""Parallel campaign tests (paper §3.4: thread per database).

The fleet is a supervised work-stealing queue: any worker can run any
round (rounds derive campaign-global seeds), so these tests assert on
scheduling-independent properties — totals, merged triage, and journal
recovery — plus the supervision semantics (worker death keeps the
survivors' results; total fleet death surfaces the real exception).
"""

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.executor import RoundExecutor
from repro.campaigns.journal import round_seed
from repro.campaigns.supervisor import SupervisorConfig


def run_fleet(threads, databases_per_thread, max_worker_restarts=2,
              restart_backoff=0.05, **config):
    """A campaign of *threads* workers, *databases_per_thread* rounds
    each (the ``hunt --threads`` convention)."""
    return Campaign(CampaignConfig(
        threads=threads, databases=threads * databases_per_thread,
        supervisor=SupervisorConfig(
            max_worker_restarts=max_worker_restarts,
            restart_backoff=restart_backoff),
        **config)).run()


class TestParallelCampaign:
    def test_merges_thread_results(self):
        result = run_fleet(dialect="sqlite", seed=42,
                           threads=3,
                           databases_per_thread=25)
        assert len(result.per_thread_rounds) == 3
        assert sum(result.per_thread_rounds) == 75
        assert result.stats.databases == 75
        assert result.detected_bug_ids, "threads found nothing"
        for report in result.reports:
            assert report.attributed_bugs

    def test_max_reports_per_bug_global(self):
        result = run_fleet(dialect="sqlite", seed=42,
                           threads=3,
                           databases_per_thread=25,
                           max_reports_per_bug=1)
        primaries = [r.attributed_bugs[0] for r in result.reports]
        assert len(primaries) == len(set(primaries))

    def test_duplicate_triage_across_threads(self):
        result = run_fleet(dialect="sqlite", seed=42,
                           threads=3,
                           databases_per_thread=25)
        by_bug = {}
        for report in result.reports:
            by_bug.setdefault(report.attributed_bugs[0],
                              []).append(report)
        for reports in by_bug.values():
            assert all(r.triage == "duplicate" for r in reports[1:])

    def test_rounds_use_campaign_global_seeds(self):
        result = run_fleet(dialect="sqlite", seed=0,
                           threads=2,
                           databases_per_thread=3,
                           reduce=False)
        assert result.stats.statements > 0
        assert result.stats.queries > 0
        # Every report's seed must be one of the campaign's round
        # seeds, never a per-worker derived stream.
        expected = {round_seed(0, i) for i in range(6)}
        for report in result.stats.reports:
            assert report.seed in expected

    def test_thread_count_does_not_change_results(self):
        def run(threads, per_thread):
            return run_fleet(
                dialect="sqlite", seed=13, threads=threads,
                databases_per_thread=per_thread, reduce=False)

        a = run(2, 6)
        b = run(3, 4)
        assert a.stats.statements == b.stats.statements
        assert a.stats.queries == b.stats.queries
        assert [r.seed for r in a.reports] == \
            [r.seed for r in b.reports], \
            "round seeds are campaign-global, so the same 12 rounds " \
            "must produce the same findings under any thread count"


class TestGracefulDegradation:
    CONFIG = dict(dialect="sqlite", seed=42, threads=3,
                  databases_per_thread=10, reduce=False,
                  max_worker_restarts=0)

    @staticmethod
    def _kill_worker_rounds(monkeypatch, doomed, every_attempt=False):
        """Make run_round raise for chosen round indexes — the worker
        thread dies (non-HarnessError escapes the executor loop).  By
        default only the *first* attempt of each doomed round kills, so
        the requeued round succeeds under whoever steals it."""
        original = RoundExecutor.run_round
        import threading

        lock = threading.Lock()
        killed = set()

        def flaky(self, index):
            with lock:
                first = index not in killed
                killed.add(index)
            if index in doomed and (first or every_attempt):
                raise RuntimeError(f"worker lost its target on "
                                   f"round {index}")
            return original(self, index)

        monkeypatch.setattr(RoundExecutor, "run_round", flaky)

    def test_one_dead_worker_keeps_other_results(self, monkeypatch):
        # Round 0 kills the worker that first leases it; with restarts
        # off that slot is retired, the lease is stolen, and a survivor
        # completes the round — nothing is lost.
        self._kill_worker_rounds(monkeypatch, {0})
        result = run_fleet(**self.CONFIG)
        assert result.stats.databases == 30, \
            "a dead worker's leased round must be requeued, not lost"
        assert len(result.worker_errors) == 1
        assert "RuntimeError" in result.worker_errors[0]
        assert "run_round" in result.worker_errors[0], \
            "worker errors must carry the full traceback"
        assert len(result.supervision.failures) == 1

    def test_all_workers_dead_raises(self, monkeypatch):
        self._kill_worker_rounds(monkeypatch, set(range(30)),
                                 every_attempt=True)
        with pytest.raises(RuntimeError):
            run_fleet(**self.CONFIG)

    def test_restart_budget_recovers_worker_deaths(self, monkeypatch):
        # Three lethal first attempts, one restart per slot: the fleet
        # loses incarnations but completes every round.
        self._kill_worker_rounds(monkeypatch, {0, 1, 2})
        config = dict(self.CONFIG)
        config.update(max_worker_restarts=1, restart_backoff=0.0)
        result = run_fleet(**config)
        assert result.stats.databases == 30
        assert result.supervision.restarts >= 1
        assert len(result.worker_errors) == 3

    def test_no_failures_reports_none(self):
        result = run_fleet(dialect="sqlite", seed=42,
                           threads=2,
                           databases_per_thread=5,
                           reduce=False)
        assert result.worker_errors == []
        assert result.supervision.restarts == 0


class TestParallelJournal:
    def test_single_shared_journal_written(self, tmp_path):
        path = tmp_path / "hunt.jsonl"
        run_fleet(dialect="sqlite", seed=9, threads=2,
                  databases_per_thread=4, reduce=False,
                  journal=str(path))
        assert path.exists()
        import json

        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        indexes = sorted(line["index"] for line in lines[1:])
        assert indexes == list(range(8))

    def test_parallel_resume_matches_uninterrupted(self, tmp_path):
        def run(journal, resume=False, threads=2):
            return run_fleet(
                dialect="sqlite", seed=9, threads=threads,
                databases_per_thread=12 // threads, reduce=False,
                journal=str(journal), resume=resume)

        full = run(tmp_path / "full.jsonl")
        # Interrupt: keep the header plus the first 5 journaled rounds.
        run(tmp_path / "cut.jsonl")
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(
            cut.read_text().splitlines()[:6]) + "\n")
        # Resume under a different thread count: rounds are
        # campaign-global, so the shard shape must not matter.
        resumed = run(cut, resume=True, threads=3)
        assert resumed.stats.databases == full.stats.databases
        assert resumed.stats.statements == full.stats.statements
        assert len(resumed.reports) == len(full.reports)

    def test_resume_runs_only_missing_rounds(self, tmp_path):
        path = tmp_path / "hunt.jsonl"

        def run(resume=False):
            return run_fleet(
                dialect="sqlite", seed=9, threads=2,
                databases_per_thread=3, reduce=False,
                journal=str(path), resume=resume)

        run()
        executed = []
        original = RoundExecutor.run_round

        def spy(self, index):
            executed.append(index)
            return original(self, index)

        RoundExecutor.run_round = spy
        try:
            result = run(resume=True)
        finally:
            RoundExecutor.run_round = original
        assert executed == [], "complete journal must re-run nothing"
        assert result.stats.databases == 6
        assert result.per_thread_rounds == [0, 0], \
            "preloaded rounds belong to no worker slot"
