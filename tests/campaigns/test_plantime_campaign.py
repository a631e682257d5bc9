"""Campaign-level plan-timing wiring: off-is-free byte identity,
journaled outcomes, resume-exact archives, parallel merge, reporting,
and CLI flag validation.

Live MiniDB timings are microsecond-scale and noisy, so these tests
assert only *structural* timing facts (queries timed, shapes archived,
journal keys) — never that a live hunt flagged a regression.  The
regression arithmetic itself is pinned with synthetic timings in
``tests/plantime``.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.runner import RunnerConfig
from repro.cli import main
from repro.errors import PQSError
from repro.plantime import TimingArchive

BUG = "sqlite-forced-index-fencepost"


def config(multiplan=False, plan_timing=False, **kw):
    kw.setdefault("seed", 0)
    kw.setdefault("databases", 3)
    kw.setdefault("reduce", False)
    return CampaignConfig(
        runner=RunnerConfig(multiplan=multiplan, plan_timing=plan_timing),
        **kw)


def normalized(path):
    """Journal records minus wall-clock-dependent fields: ``seconds``,
    the ``crc`` covering it, every ``elapsed_us``/``slowdown`` buried
    in plantime outcomes, and the ``regressions`` lists — whether a
    microsecond-scale timing crosses the flagging ratio is scheduling
    noise, so even regression *presence* varies between runs."""
    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items()
                    if k not in ("seconds", "crc", "elapsed_us",
                                 "slowdown", "regressions")}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return [strip(json.loads(line))
            for line in path.read_text().splitlines()]


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


class TestOffIsFree:
    def test_journal_identical_with_timing_off(self, tmp_path):
        """A multiplan journal without ``--plan-timing`` must be
        indistinguishable from one cut by a build without the
        subsystem: no plantime keys, same fingerprint, same stream."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        Campaign(config(multiplan=True, journal=str(a))).run()
        Campaign(config(multiplan=True, journal=str(b),
                        plan_timing=False)).run()
        assert normalized(a) == normalized(b)
        assert "plantime" not in a.read_text()
        assert "plan_timing" not in a.read_text()

    def test_stream_identical_with_timing_on(self, tmp_path):
        """Timing adds re-executions through the non-logged with_plan
        hook only: the synthesized statement stream must not move."""
        off = Campaign(config(multiplan=True, bug_ids=[BUG])).run()
        on = Campaign(config(multiplan=True, bug_ids=[BUG],
                             plan_timing=True)).run()
        assert on.stats.statements == off.stats.statements
        assert on.stats.queries == off.stats.queries
        assert on.stats.multiplan_queries == off.stats.multiplan_queries
        assert on.stats.plantime_queries > 0
        assert off.stats.plantime_queries == 0

    def test_timing_requires_multiplan(self):
        with pytest.raises(PQSError):
            Campaign(config(plan_timing=True)).run()

    def test_no_archive_without_the_flag(self):
        result = Campaign(config(multiplan=True)).run()
        assert result.timing_archive is None


class TestJournalAndResume:
    def test_round_records_carry_plantime_outcomes(self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        Campaign(config(multiplan=True, plan_timing=True,
                        journal=str(journal))).run()
        records = [json.loads(line)
                   for line in journal.read_text().splitlines()]
        outcomes = [r["plantime"] for r in records
                    if r.get("kind") == "round" and "plantime" in r]
        assert outcomes, "no round journaled a plantime outcome"
        for outcome in outcomes:
            assert outcome["timed"] == len(outcome["queries"])
            for query in outcome["queries"]:
                assert {"shape", "sql", "plans"} <= set(query)

    def test_resume_of_finished_journal_rebuilds_archive_exactly(
            self, tmp_path):
        """Completed rounds are never re-timed: an archive rebuilt from
        the journal is byte-identical to the one the live run wrote."""
        journal = tmp_path / "hunt.jsonl"
        first_archive = tmp_path / "first.jsonl"
        resumed_archive = tmp_path / "resumed.jsonl"
        Campaign(config(multiplan=True, plan_timing=True,
                        journal=str(journal),
                        timing_archive=str(first_archive))).run()
        Campaign(config(multiplan=True, plan_timing=True,
                        journal=str(journal), resume=True,
                        timing_archive=str(resumed_archive))).run()
        assert first_archive.read_bytes() == resumed_archive.read_bytes()
        assert len(TimingArchive.load(first_archive)) > 0

    def test_partial_resume_reuses_journaled_timings(self, tmp_path):
        """Interrupt after round 1: the resumed archive keeps the
        journaled round's timings verbatim and re-times only the rest —
        so the *structure* (shapes, plan keys, samples) matches the
        full run even though re-run wall clocks cannot."""
        journal = tmp_path / "hunt.jsonl"
        full_path = tmp_path / "full.jsonl"
        resumed_path = tmp_path / "resumed.jsonl"
        full = Campaign(config(databases=4, multiplan=True,
                               plan_timing=True, journal=str(journal),
                               timing_archive=str(full_path))).run()
        reference = normalized(journal)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")
        resumed = Campaign(config(databases=4, multiplan=True,
                                  plan_timing=True, journal=str(journal),
                                  resume=True, timing_archive=str(
                                      resumed_path))).run()
        assert resumed.stats.plantime_queries == \
            full.stats.plantime_queries
        assert normalized(journal) == reference
        a = TimingArchive.load(full_path)
        b = TimingArchive.load(resumed_path)
        assert a.shapes() == b.shapes()
        for shape in a.shapes():
            mine, theirs = a.plans_for(shape), b.plans_for(shape)
            assert sorted(mine) == sorted(theirs)
            assert {k: p["samples"] for k, p in mine.items()} == \
                {k: p["samples"] for k, p in theirs.items()}

    def test_timing_journal_rejects_plain_multiplan_resume(
            self, tmp_path):
        journal = tmp_path / "hunt.jsonl"
        Campaign(config(multiplan=True, plan_timing=True,
                        journal=str(journal))).run()
        with pytest.raises(PQSError):
            Campaign(config(multiplan=True, journal=str(journal),
                            resume=True)).run()


class TestArchiveOutputs:
    def test_result_archive_matches_outcome_rebuild(self):
        result = Campaign(config(multiplan=True, plan_timing=True)).run()
        assert result.timing_archive is not None
        assert len(result.timing_archive) > 0
        rebuilt = TimingArchive.from_outcomes(
            result.stats.plantime_outcomes)
        assert rebuilt.to_lines() == result.timing_archive.to_lines()

    def test_parallel_merge_matches_outcome_rebuild(self, tmp_path):
        dumped = tmp_path / "merged.jsonl"
        result = Campaign(config(
            threads=2, databases=4, multiplan=True, plan_timing=True,
            timing_archive=str(dumped))).run()
        assert result.stats.plantime_queries > 0
        assert result.timing_archive is not None
        assert len(result.timing_archive) > 0
        rebuilt = TimingArchive.from_outcomes(
            result.stats.plantime_outcomes)
        assert rebuilt.to_lines() == result.timing_archive.to_lines()
        assert TimingArchive.load(dumped).to_lines() == \
            result.timing_archive.to_lines()


class TestReporting:
    def test_report_carries_the_plantime_section(self, tmp_path):
        from repro.observe.report import build_report, render_report

        journal = tmp_path / "hunt.jsonl"
        Campaign(config(multiplan=True, plan_timing=True,
                        journal=str(journal))).run()
        report = build_report(str(journal))
        section = report["plantime"]
        assert section["queries_timed"] > 0
        assert section["regressed_shapes"] >= 0
        text = render_report(report)
        assert "planner quality:" in text

    def test_untimed_journal_has_no_plantime_section(self, tmp_path):
        from repro.observe.report import build_report

        journal = tmp_path / "hunt.jsonl"
        Campaign(config(multiplan=True, journal=str(journal))).run()
        assert "plantime" not in build_report(str(journal))


class TestCliFlags:
    def test_plan_timing_requires_multiplan(self):
        code, output = run_cli("hunt", "--dialect", "sqlite",
                               "--plan-timing")
        assert code == 2
        assert "--multiplan" in output

    def test_timing_archive_requires_plan_timing(self, tmp_path):
        code, output = run_cli(
            "hunt", "--dialect", "sqlite", "--multiplan",
            "--timing-archive", str(tmp_path / "a.jsonl"))
        assert code == 2
        assert "--plan-timing" in output

    def test_hunt_writes_the_archive_and_prints_stats(self, tmp_path):
        archive_path = tmp_path / "archive.jsonl"
        code, output = run_cli(
            "hunt", "--dialect", "sqlite", "--databases", "3",
            "--seed", "0", "--no-reduce", "--multiplan",
            "--plan-timing", "--timing-archive", str(archive_path))
        assert code == 0
        assert "plan timing:" in output
        assert "queries timed" in output
        assert len(TimingArchive.load(archive_path)) > 0
