"""End-to-end bug-hunting campaigns with ground-truth scoring.

A campaign mirrors the paper's §4.1 methodology, compressed: run PQS
against a target with known (injected) defects, report findings, reduce
each finding's test case, and triage.  Where the paper's triage came
from upstream developers, ours comes from differential replay against
single-defect engines plus the defect catalog's recorded upstream
resolution (fixed / verified / docs / intended / duplicate).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.campaigns.executor import RoundExecutor
from repro.campaigns.journal import (
    CampaignJournal,
    JournalState,
    QuarantineRecord,
    RecoveryStats,
)
from repro.campaigns.replay import DifferentialReplayer
from repro.campaigns.scheduler import RoundQueue
from repro.campaigns.supervisor import (
    SupervisionReport,
    Supervisor,
    SupervisorConfig,
)
from repro.core.reducer import TestCaseReducer
from repro.core.reports import BugReport, Oracle, RunStatistics
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import ReductionError
from repro.guidance import NULL_GUIDANCE, PlanCoverage, PlanGuidance
from repro.minidb.bugs import BUG_CATALOG, BugRegistry, bugs_for_dialect
from repro.multiplan.hints import BASELINE, PlannerHints
from repro.multiplan.replay import MultiPlanReplayer
from repro.observe.observatory import NULL_OBSERVATORY, Observatory
from repro.plantime.archive import TimingArchive
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names

#: BugReport oracle value -> catalog oracle tag.
_ORACLE_TAG = {"contains": "contains", "error": "error",
               "segfault": "crash", "multiplan": "multiplan"}


def primary_attribution(report: BugReport) -> str:
    """The defect a report is charged to.

    A test case sometimes manifests under several single-defect engines
    (its statements trip more than one injection point); the report is
    charged to a defect whose *catalog oracle* matches the oracle that
    actually detected it, so e.g. an error-oracle finding is never
    credited to a containment defect that happens to co-manifest.
    """
    assert report.attributed_bugs
    tag = _ORACLE_TAG.get(report.oracle.value)
    for bug_id in report.attributed_bugs:
        if BUG_CATALOG[bug_id].oracle == tag:
            return bug_id
    return report.attributed_bugs[0]


def record_recovery(recovery: RecoveryStats, telemetry: "Telemetry",
                    recovered: int = 0) -> None:
    """Surface journal-recovery outcomes as telemetry counters."""
    telemetry = telemetry or NULL_TELEMETRY
    if recovered:
        telemetry.counter(
            metric_names.JOURNAL_RECOVERED_ROUNDS).inc(recovered)
    if recovery.corrupt_lines:
        telemetry.counter(
            metric_names.JOURNAL_CORRUPT_LINES).inc(recovery.corrupt_lines)
    if recovery.duplicate_rounds:
        telemetry.counter(
            metric_names.JOURNAL_DUPLICATE_ROUNDS).inc(
                recovery.duplicate_rounds)


@dataclass
class CampaignConfig:
    dialect: str = "sqlite"
    seed: int = 0
    #: Database rounds in the whole campaign (shared by every worker).
    databases: int = 50
    #: Defects to enable; None enables the dialect's full catalog.
    bug_ids: Optional[list[str]] = None
    reduce: bool = True
    #: Stop re-reporting a defect after this many reports (the authors
    #: likewise stopped filing duplicates).
    max_reports_per_bug: int = 2
    #: JSONL journal path: a durable sink for the round records, so an
    #: interrupted hunt can be continued.  One *shared* journal for the
    #: whole fleet (the journal is internally locked); a resume
    #: redistributes the remaining rounds over however many threads the
    #: resuming run has.
    journal: Optional[str] = None
    #: Continue from an existing journal instead of starting over.
    resume: bool = False
    #: Observability sink (metrics registry + tracer); None runs with
    #: the no-op :data:`repro.telemetry.NULL_TELEMETRY`.  Deliberately
    #: not part of the journal fingerprint: turning telemetry on must
    #: not invalidate a resumable hunt.  With ``threads > 1`` each
    #: worker counts in a *private* registry (no cross-thread
    #: contention on the hot path); after the join every per-worker
    #: snapshot is merged into this registry.
    telemetry: Optional["Telemetry"] = None
    #: Observability hub (repro.observe.Observatory): event log plus
    #: live status views.  Like telemetry — and unlike guidance — it is
    #: strictly read-side: never journal-fingerprinted, never feeds
    #: back into generation, so turning it on cannot perturb the
    #: statement stream or invalidate a resumable hunt.
    observe: Optional["Observatory"] = None
    #: Query-plan-coverage guidance (repro.guidance).  Unlike telemetry
    #: this *is* journal-fingerprinted when on: feedback changes what
    #: the campaign generates, so a guided journal cannot silently
    #: continue an unguided hunt (or vice versa).  With ``threads > 1``
    #: each worker runs its own scheduler, so feedback is best-effort
    #: per worker; passive tracking stays schedule-independent.
    guidance: bool = False
    #: Write the final plan-coverage set (PlanCoverage JSON) here.
    #: Setting a path without ``guidance=True`` observes plans
    #: *passively*: coverage is tracked and dumped but generation is the
    #: exact unguided stream.
    plan_coverage: Optional[str] = None
    #: Failed attempts before a round is quarantined (a poison round —
    #: e.g. HarnessError on every try — is journaled and surfaced
    #: instead of aborting the hunt).
    quarantine_threshold: int = 3
    #: Write the final merged TimingArchive (JSONL) here; requires
    #: ``runner.plan_timing``.
    timing_archive: Optional[str] = None
    #: The per-round PQS knobs, multiplan and plan timing included.
    #: ``dialect`` and ``seed`` above override the copies in here.
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    #: Worker threads draining the round queue.  1 runs inline; more
    #: run under the :class:`~repro.campaigns.supervisor.Supervisor`.
    #: Findings are identical for any thread count (without feedback
    #: guidance): every round's seed derives from (seed, round index).
    threads: int = 1
    #: Restart budget, backoff and stall detection for the fleet.
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    #: Fault-injection schedule (repro.campaigns.chaos.ChaosPolicy);
    #: None runs undisturbed.  Chaos always runs under the supervisor.
    chaos: Optional[object] = None


@dataclass
class CampaignResult:
    config: CampaignConfig
    stats: RunStatistics
    #: Final plan-coverage set when the campaign tracked plans
    #: (``guidance`` or ``plan_coverage`` configured); None otherwise.
    #: Rebuilt from the round records in round-index order, so it is
    #: independent of worker scheduling.
    plan_coverage: Optional["PlanCoverage"] = None
    #: Reduced, attributed reports (unattributed findings excluded —
    #: they would be tool bugs, which the test suite asserts never
    #: happen).
    reports: list[BugReport] = field(default_factory=list)
    unattributed: list[BugReport] = field(default_factory=list)
    #: Merged per-plan timing archive when the campaign timed plans
    #: (``runner.plan_timing``); None otherwise.
    timing_archive: Optional["TimingArchive"] = None
    #: Poison rounds retired after exhausting the retry threshold.
    quarantined: list[QuarantineRecord] = field(default_factory=list)
    #: What journal recovery had to repair on ``--resume``.
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    #: What supervision did (restarts, stalls, backoff, failures);
    #: empty for an inline campaign.
    supervision: SupervisionReport = field(
        default_factory=SupervisionReport)
    #: One entry per worker death: the summary line followed by the
    #: full formatted traceback — a fleet failure must be debuggable
    #: from the campaign result alone.
    worker_errors: list[str] = field(default_factory=list)
    #: Per-worker metric snapshots (one per spawned incarnation),
    #: merged into the shared registry; kept so per-worker skew is
    #: inspectable.
    worker_snapshots: list[dict] = field(default_factory=list)
    #: Rounds completed per logical worker slot (restarted incarnations
    #: count toward their slot; journal-preloaded rounds toward none).
    per_thread_rounds: list[int] = field(default_factory=list)
    #: Distinct plans per worker slot (empty when plans are untracked).
    per_thread_plans: list[int] = field(default_factory=list)

    def harness_reports(self) -> list[str]:
        """Synthesized human-readable reports for quarantined rounds —
        availability failures of the harness, never DBMS findings."""
        return [record.harness_report() for record in self.quarantined]

    @property
    def detected_bug_ids(self) -> set[str]:
        out: set[str] = set()
        for report in self.reports:
            out.update(report.attributed_bugs)
        return out

    def true_bugs(self) -> list[BugReport]:
        """Reports the paper would count as true bugs (code fixes,
        documentation fixes, confirmed)."""
        return [r for r in self.reports
                if r.triage in ("fixed", "docs", "verified")]

    def table2_row(self) -> dict[str, int]:
        """This dialect's row of the paper's Table 2."""
        row = {"fixed": 0, "verified": 0, "intended": 0, "duplicate": 0}
        for report in self.reports:
            key = "fixed" if report.triage == "docs" else report.triage
            row[key] = row.get(key, 0) + 1
        return row

    def table3_row(self) -> dict[str, int]:
        """This dialect's row of the paper's Table 3 (true bugs per
        detecting oracle)."""
        row = {"contains": 0, "error": 0, "segfault": 0, "multiplan": 0}
        for report in self.true_bugs():
            row[report.oracle.value] += 1
        return row


class Campaign:
    """Runs PQS against defect-injected MiniDB and scores the findings.

    Every campaign drains one :class:`~repro.campaigns.scheduler.RoundQueue`
    of round indexes through :class:`~repro.campaigns.executor.RoundExecutor`:
    round *i* runs under :func:`~repro.campaigns.journal.round_seed`
    (an independent derivation from the campaign seed and *i*), so any
    worker can run any round and the merged result — statistics,
    reports, triage — is the same for one thread or many, journaled or
    not.  The journal is only a sink for the round records (plus the
    source of preloaded rounds on ``resume``).  Paper §3.4: "We
    parallelized the system by running each thread on a distinct
    database."  Python threads do not overlap CPU-bound work (the GIL),
    so against the pure-Python MiniDB ``threads`` is about workload
    shape and supervision, not speedup.
    """

    def __init__(self, config: CampaignConfig):
        self.config = config
        bug_ids = config.bug_ids
        if bug_ids is None:
            bug_ids = [b.bug_id for b in bugs_for_dialect(config.dialect)]
        self.bugs = BugRegistry(set(bug_ids))
        self.replayer = DifferentialReplayer(config.dialect, self.bugs)
        self.multiplan_replayer = MultiPlanReplayer(config.dialect,
                                                    self.bugs)

    @property
    def tracks_plans(self) -> bool:
        # plan_coverage without guidance observes passively: plans are
        # fingerprinted and dumped, generation is untouched.
        return self.config.guidance or bool(self.config.plan_coverage)

    def _connection(self) -> MiniDBConnection:
        return MiniDBConnection(self.config.dialect,
                                bugs=BugRegistry(set(self.bugs.enabled)))

    def build_runner(self, telemetry=None, seed: Optional[int] = None,
                     ) -> PQSRunner:
        """A fresh runner wired exactly as this campaign hunts: own
        connection factory, telemetry, and guidance scheduler (seeded
        with *seed*, default the campaign seed).  Every worker — and
        every supervisor restart — gets its own."""
        if telemetry is None:
            telemetry = self.config.telemetry
        guidance = NULL_GUIDANCE
        if self.tracks_plans:
            guidance = PlanGuidance(
                seed=self.config.seed if seed is None else seed,
                feedback=self.config.guidance,
                telemetry=telemetry)
        # Each runner gets its own RunnerConfig: reseed() mutates
        # config.seed, and concurrent workers sharing one config would
        # race on it (stamping reports with another worker's seed).
        config = replace(self.config.runner, dialect=self.config.dialect,
                         seed=self.config.seed)
        return PQSRunner(self._connection, config,
                         telemetry=telemetry, guidance=guidance)

    def run(self) -> CampaignResult:
        config = self.config
        telemetry = config.telemetry or NULL_TELEMETRY
        observe = config.observe or NULL_OBSERVATORY
        queue = RoundQueue(range(config.databases), config.seed,
                           quarantine_threshold=config.quarantine_threshold)
        observe.attach_queue(queue)
        result = CampaignResult(config=config, stats=RunStatistics())
        journal = CampaignJournal(config.journal) if config.journal \
            else None
        try:
            state = JournalState()
            if journal is not None:
                fingerprint = self._fingerprint()
                if config.resume:
                    state = journal.load_state(fingerprint)
                journal.start(fingerprint, fresh=state.empty)
                queue.preload(state.rounds, state.quarantined)
                record_recovery(state.recovery, telemetry,
                                recovered=len(state.rounds))
                # The runner counts rounds it actually executes;
                # journal-loaded rounds still advance the progress line.
                telemetry.counter(metric_names.ROUNDS).inc(
                    len(state.rounds))
            result.recovery = state.recovery
            if config.threads > 1 or config.chaos is not None:
                slot_of = self._supervise(queue, journal, observe, result)
            else:
                self._drain_inline(queue, journal, state, observe)
                slot_of = {0: 0}
        finally:
            if journal is not None:
                journal.close()
        self._merge(queue, slot_of, result)
        if result.plan_coverage is not None:
            observe.attach_coverage(result.plan_coverage)
        observe.mark_finished()
        reports_per_bug: dict[str, int] = {}
        seen_bugs: set[str] = set()
        # Reduce, attribute, and triage centrally, in round-index order
        # (stats.reports was filled from the records in that order), so
        # the outcome is independent of worker scheduling.
        for report in result.stats.reports:
            processed = self._process(report)
            if processed is None:
                result.unattributed.append(report)
                continue
            primary = primary_attribution(processed)
            if reports_per_bug.get(primary, 0) >= \
                    config.max_reports_per_bug:
                continue
            reports_per_bug[primary] = reports_per_bug.get(primary, 0) + 1
            processed.triage = self._triage(primary, seen_bugs)
            seen_bugs.add(primary)
            result.reports.append(processed)
        return result

    # -- round execution ---------------------------------------------------
    def _drain_inline(self, queue: RoundQueue,
                      journal: Optional[CampaignJournal],
                      state: JournalState, observe) -> None:
        """One executor on the calling thread (no supervisor)."""
        runner = self.build_runner()
        if runner.guidance.enabled:
            # Guidance replays each journaled round so its seen-set,
            # pool, and scheduling stream match the original process
            # exactly (exact for prefix-complete journals; a corruption
            # gap re-runs only the lost round).
            for index in sorted(state.rounds):
                record = state.rounds[index]
                runner.guidance.restore_round(record.seed, record.plans)
        RoundExecutor(0, runner, queue, self.config.seed,
                      journal=journal, telemetry=self.config.telemetry,
                      events=observe.events).run_loop()

    def _supervise(self, queue: RoundQueue,
                   journal: Optional[CampaignJournal], observe,
                   result: CampaignResult) -> dict:
        """A supervised worker fleet over the shared queue; returns the
        worker-id -> slot map of every incarnation spawned."""
        config = self.config
        shared = config.telemetry
        spawned: list[Telemetry] = []

        def worker_factory(worker_id: int,
                           heartbeats: dict) -> RoundExecutor:
            child = None
            if shared is not None and shared.enabled:
                # Private registry per worker; the shared tracer is
                # lock-protected, so spans interleave but each line
                # stays whole.
                child = Telemetry(registry=MetricsRegistry(),
                                  tracer=shared.tracer)
                spawned.append(child)
            runner = self.build_runner(
                telemetry=child,
                # Distinct guidance streams per incarnation.
                seed=config.seed + 7919 * (worker_id + 1))
            return RoundExecutor(
                worker_id, runner, queue, config.seed,
                journal=journal, chaos=config.chaos, telemetry=child,
                heartbeats=heartbeats, events=observe.events)

        supervisor = Supervisor(
            queue, max(1, config.threads), worker_factory,
            config=config.supervisor, telemetry=shared,
            events=observe.events)
        observe.attach_heartbeats(supervisor.heartbeats)
        observe.attach_supervision(supervisor.report)
        supervision = supervisor.run()
        if not queue.completed and supervision.failures:
            # Nothing survived; there is nothing to degrade to.
            raise supervision.failures[0].exception
        result.supervision = supervision
        result.worker_errors = [
            f"worker slot {failure.slot}: {failure.summary}\n"
            f"{failure.traceback}"
            for failure in supervision.failures]
        result.worker_snapshots = [t.registry.snapshot() for t in spawned]
        for snapshot in result.worker_snapshots:
            shared.registry.merge_snapshot(snapshot)
        return supervision.worker_slots

    def _merge(self, queue: RoundQueue, slot_of: dict,
               result: CampaignResult) -> None:
        """Fold the settled rounds into *result* in round-index order,
        so statistics, coverage and archive are schedule-independent."""
        slots = max(1, self.config.threads)
        result.per_thread_rounds = [0] * slots
        per_slot_coverage = [PlanCoverage() for _ in range(slots)]
        coverage = PlanCoverage() if self.tracks_plans else None
        stats = result.stats
        for record in queue.records_in_order():
            stats.add_round(record)
            # completed_by holds the completing incarnation's worker id
            # (None for journal-preloaded rounds); slot_of maps it home.
            slot = slot_of.get(queue.completed_by.get(record.index))
            if slot is not None:
                result.per_thread_rounds[slot] += 1
            if coverage is None:
                continue
            # Index-order rebuild: the globally-earliest round holding
            # a fingerprint always recorded it, so the merged set —
            # including which example query witnesses each plan — is
            # schedule-independent.
            for fingerprint, example in record.plans:
                coverage.observe(fingerprint, example)
                if slot is not None:
                    per_slot_coverage[slot].observe(fingerprint, example)
        result.quarantined = queue.quarantined_in_order()
        stats.quarantined_rounds = len(result.quarantined)
        if coverage is not None:
            result.plan_coverage = coverage
            result.per_thread_plans = [c.distinct
                                       for c in per_slot_coverage]
            if self.config.plan_coverage:
                coverage.dump(self.config.plan_coverage)
        if self.config.runner.plan_timing:
            # Built from the per-round outcome dicts — the same records
            # a journal carries — so live, resumed, and multi-worker
            # campaigns produce byte-identical archives.
            result.timing_archive = TimingArchive.from_outcomes(
                stats.plantime_outcomes)
            if self.config.timing_archive:
                result.timing_archive.dump(self.config.timing_archive)

    def _fingerprint(self) -> dict:
        from repro.campaigns.journal import JOURNAL_VERSION

        fingerprint = {"version": JOURNAL_VERSION,
                       "dialect": self.config.dialect,
                       "seed": self.config.seed,
                       "databases": self.config.databases,
                       "bug_ids": sorted(self.bugs.enabled)}
        if self.config.guidance:
            # Feedback changes generation, so a guided journal must not
            # silently continue an unguided hunt.  The key is added only
            # when on, keeping journals from before this field resumable.
            fingerprint["guidance"] = True
        if self.config.runner.multiplan:
            # Same only-when-on rule: multiplan journals carry multiplan
            # findings and outcome records, so they must not be resumed
            # by (or resume) a plain hunt; off leaves journal bytes
            # identical to a pre-multiplan build.
            fingerprint["multiplan"] = True
        if self.config.runner.plan_timing:
            # Timing journals carry plantime outcomes the resumed
            # archive is rebuilt from; an untimed continuation would
            # silently produce a partial archive.
            fingerprint["plan_timing"] = True
        return fingerprint

    # -- per-report processing ---------------------------------------------
    def _process(self, report: BugReport) -> Optional[BugReport]:
        if report.oracle is Oracle.MULTIPLAN:
            return self._process_multiplan(report)
        if not self.replayer.manifests(report.test_case):
            return None
        if self.config.reduce:
            reducer = TestCaseReducer(self.replayer.manifests)
            try:
                report.test_case = reducer.reduce(report.test_case)
                report.reduced = True
            except ReductionError:
                return None
            # Expression-level shrinking of the final query (the paper's
            # authors "manually shortened them where possible", §4.1).
            from repro.core.shrink import QueryShrinker

            shrinker = QueryShrinker(self.replayer.manifests)
            report.test_case = shrinker.shrink(report.test_case)
        report.attributed_bugs = self.replayer.attribute(report.test_case)
        if not report.attributed_bugs:
            return None
        # The reduced case is the reported artifact; re-derive which
        # oracle it now trips (reduction may have turned an error case
        # into a wrong-rows case, or vice versa).
        kind = self.replayer.difference_kind(report.test_case)
        if kind == "rows":
            report.oracle = Oracle.CONTAINMENT
        elif kind == "error":
            report.oracle = Oracle.ERROR
        elif kind == "crash":
            report.oracle = Oracle.CRASH
        # Order the primary attribution first so every consumer of
        # attributed_bugs[0] charges the same defect.
        primary = primary_attribution(report)
        report.attributed_bugs = [primary] + [
            b for b in report.attributed_bugs if b != primary]
        return report

    def _process_multiplan(self, report: BugReport,
                           ) -> Optional[BugReport]:
        """Reduce and attribute a multi-plan finding.

        The reducer's failure predicate is *plan divergence under the
        hints that exposed the finding* (recovered from the report's
        ``plan_results``), not buggy-vs-clean disagreement: a multiplan
        defect is by construction invisible to single-plan replay, so
        minimization must preserve the forced executions and the
        cross-plan check."""
        hints_list = [PlannerHints.from_dict(entry.get("hints", {}))
                      for entry in (report.plan_results or [])]
        if not hints_list:
            # A journal predating plan_results: retry with the two
            # cheapest universally-feasible plans.
            hints_list = [BASELINE, PlannerHints(force_full_scan=True)]
        replayer = self.multiplan_replayer

        def still_diverges(test_case) -> bool:
            return replayer.diverges(test_case, hints_list)

        if not still_diverges(report.test_case):
            return None
        if self.config.reduce:
            reducer = TestCaseReducer(still_diverges)
            try:
                report.test_case = reducer.reduce(report.test_case)
                report.reduced = True
            except ReductionError:
                return None
            from repro.core.shrink import QueryShrinker

            shrinker = QueryShrinker(still_diverges)
            report.test_case = shrinker.shrink(report.test_case)
        report.attributed_bugs = replayer.attribute(report.test_case,
                                                    hints_list)
        if not report.attributed_bugs:
            return None
        primary = primary_attribution(report)
        report.attributed_bugs = [primary] + [
            b for b in report.attributed_bugs if b != primary]
        return report

    def _triage(self, bug_id: str, seen: set[str]) -> str:
        if bug_id in seen:
            return "duplicate"
        return BUG_CATALOG[bug_id].triage
