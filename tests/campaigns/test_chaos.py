"""Chaos acceptance: a fault-ridden campaign must equal an undisturbed one.

The strongest property the supervision layer can claim: with workers
being killed, rounds failing transiently, and journal bytes corrupted —
all from a seeded schedule — the campaign still completes, and its
merged reports, statistics, and plan coverage are **bit-identical** to a
run with chaos disabled.  Rounds derive campaign-global seeds, the
queue requeues everything that was interrupted, and the merge happens
in round-index order, so no fault can leave a fingerprint on the
results.
"""

import dataclasses

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.chaos import ChaosKill, ChaosPolicy
from repro.campaigns.supervisor import SupervisorConfig

BASE = dict(dialect="sqlite", seed=5, threads=3, databases=12,
            reduce=False)


def run(journal=None, chaos=None, resume=False, max_worker_restarts=2,
        **overrides):
    config = dict(BASE, journal=journal, chaos=chaos, resume=resume,
                  supervisor=SupervisorConfig(
                      max_worker_restarts=max_worker_restarts))
    config.update(overrides)
    return Campaign(CampaignConfig(**config)).run()


def comparable(stats):
    """Everything but wall clock must be reproducible."""
    data = dataclasses.asdict(stats)
    data.pop("seconds")
    for report in data["reports"]:
        report.pop("seconds", None)
    return data


class TestChaosDeterminism:
    def test_chaos_run_is_bit_identical_to_undisturbed(self, tmp_path):
        undisturbed = run()
        chaos = ChaosPolicy(seed=11, kill_probability=0.5, max_kills=3,
                            transient_percent=30, transient_failures=1,
                            corrupt_probability=0.5, max_corruptions=2)
        disturbed = run(journal=str(tmp_path / "chaos.jsonl"),
                        chaos=chaos, max_worker_restarts=3)
        assert chaos.events.kills > 0, "the schedule must actually kill"
        assert chaos.events.transients > 0
        assert comparable(disturbed.stats) == \
            comparable(undisturbed.stats)
        assert [r.seed for r in disturbed.reports] == \
            [r.seed for r in undisturbed.reports]
        assert disturbed.quarantined == [], \
            "transients below the threshold never quarantine"

    def test_chaos_with_guidance_coverage_matches(self, tmp_path):
        undisturbed = run(plan_coverage=str(tmp_path / "a.json"))
        chaos = ChaosPolicy(seed=3, kill_probability=0.4, max_kills=2,
                            transient_percent=25, transient_failures=1)
        disturbed = run(journal=str(tmp_path / "chaos.jsonl"),
                        chaos=chaos, max_worker_restarts=3,
                        plan_coverage=str(tmp_path / "b.json"))
        assert undisturbed.plan_coverage is not None
        assert sorted(undisturbed.plan_coverage.fingerprints()) == \
            sorted(disturbed.plan_coverage.fingerprints())

    def test_same_chaos_seed_same_schedule(self):
        events = []
        for _ in range(2):
            chaos = ChaosPolicy(seed=17, kill_probability=0.5,
                                max_kills=2, transient_percent=40)
            kills = 0
            for step in range(20):
                try:
                    chaos.on_lease(0, step)
                except ChaosKill:
                    kills += 1
            transients = [i for i in range(50)
                          if chaos._is_transient(i)]
            events.append((kills, tuple(transients)))
        assert events[0] == events[1]


class TestQuarantine:
    def test_poison_rounds_quarantined_never_abort(self, tmp_path):
        chaos = ChaosPolicy(seed=1, kill_probability=0.0,
                            transient_percent=0,
                            corrupt_probability=0.0,
                            poison_rounds=frozenset({2, 7}))
        result = run(journal=str(tmp_path / "q.jsonl"), chaos=chaos,
                     quarantine_threshold=2)
        assert [q.index for q in result.quarantined] == [2, 7]
        assert result.stats.quarantined_rounds == 2
        assert result.stats.databases == 10, \
            "the other rounds complete despite the poison"
        reports = result.harness_reports()
        assert len(reports) == 2
        assert "quarantined after 2 attempt(s)" in reports[0]

    def test_quarantine_journaled_and_resumable(self, tmp_path):
        journal = str(tmp_path / "q.jsonl")
        chaos = ChaosPolicy(seed=1, kill_probability=0.0,
                            transient_percent=0,
                            corrupt_probability=0.0,
                            poison_rounds=frozenset({2}))
        first = run(journal=journal, chaos=chaos,
                    quarantine_threshold=2)
        # Resume without chaos: the quarantine record is honored, the
        # round is not retried, and nothing else re-runs.
        resumed = run(journal=journal, resume=True,
                      quarantine_threshold=2)
        assert [q.index for q in resumed.quarantined] == [2]
        assert resumed.stats.databases == first.stats.databases
        assert comparable(resumed.stats) == comparable(first.stats)


class TestCorruptionRecovery:
    def test_corrupted_journal_resumes_to_identical_results(
            self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        undisturbed = run()
        chaos = ChaosPolicy(seed=23, kill_probability=0.0,
                            transient_percent=0,
                            corrupt_probability=1.0, max_corruptions=3)
        run(journal=journal, chaos=chaos)
        assert chaos.events.corruptions > 0
        # Resume from the damaged journal: corrupt lines are skipped
        # and counted, only those rounds re-run, results identical.
        resumed = run(journal=journal, resume=True)
        # Two corruption events may land on the same line, so the
        # recovered count is bounded by — not equal to — the events.
        assert 1 <= resumed.recovery.corrupt_lines <= \
            chaos.events.corruptions
        assert comparable(resumed.stats) == \
            comparable(undisturbed.stats)


class TestObservedChaos:
    def test_fully_observed_chaos_run_is_bit_identical(self, tmp_path):
        """The acceptance bar for --serve: a chaos campaign with the
        event log, observatory, and live HTTP status server all
        attached produces results bit-identical to an undisturbed,
        unobserved run — observation must not perturb the hunt."""
        from repro.observe import EventLog, Observatory, StatusServer

        undisturbed = run()
        chaos = ChaosPolicy(seed=11, kill_probability=0.5, max_kills=3,
                            transient_percent=30, transient_failures=1,
                            corrupt_probability=0.5, max_corruptions=2)
        events = EventLog("sqlite-s5")
        observatory = Observatory(
            campaign="sqlite-s5", dialect="sqlite", seed=BASE["seed"],
            total_rounds=BASE["databases"],
            events=events)
        with StatusServer(observatory, port=0):
            observed = run(journal=str(tmp_path / "obs.jsonl"),
                           chaos=chaos, max_worker_restarts=3,
                           observe=observatory)
        assert chaos.events.kills > 0
        assert comparable(observed.stats) == \
            comparable(undisturbed.stats)
        assert [r.seed for r in observed.reports] == \
            [r.seed for r in undisturbed.reports]
        assert len(events) > 0, "the narrative was recorded"

    def test_observed_single_thread_journal_is_byte_identical(
            self, tmp_path):
        """Strongest form, schedule-noise free: one worker, same seed —
        the journal bytes with full observability on must equal the
        journal bytes without."""
        from repro.observe import EventLog, Observatory, StatusServer

        plain = tmp_path / "plain.jsonl"
        observed = tmp_path / "observed.jsonl"
        run(journal=str(plain), threads=1)
        events = EventLog("sqlite-s5")
        observatory = Observatory(
            campaign="sqlite-s5", dialect="sqlite", seed=BASE["seed"],
            total_rounds=12, events=events)
        with StatusServer(observatory, port=0):
            run(journal=str(observed), threads=1, observe=observatory)
        strip = lambda p: [line for line in
                           p.read_bytes().splitlines()]
        plain_lines, observed_lines = strip(plain), strip(observed)
        assert len(plain_lines) == len(observed_lines)
        # Round lines carry wall-clock seconds; compare with the
        # timing field zeroed, everything else byte-for-byte.
        import json as _json

        def normalized(lines):
            out = []
            for line in lines:
                data = _json.loads(line)
                data.pop("seconds", None)
                data.pop("crc", None)
                out.append(_json.dumps(data, sort_keys=True))
            return out

        assert normalized(plain_lines) == normalized(observed_lines)
