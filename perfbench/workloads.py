"""The benchmark's four workloads and the loops that drive them.

All four are closed loops: one process, one runner at a time, and the
next statement is sent only after the previous one returned.  Each
runs the default :class:`~repro.core.runner.RunnerConfig`.  Round *i*
of a run is seeded with ``round_seed(seed, i)``, the per-round seed
journaled campaigns use, so the work a run does is fixed by ``--seed``
and how many rounds fit in ``--seconds``, and any round can be run
again on its own.
"""

from __future__ import annotations

import functools
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.adapters.minidb_adapter import MiniDBConnection
from repro.adapters.sqlite3_adapter import SQLite3Connection
from repro.adapters.subprocess_adapter import SubprocessConnection
from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.campaigns.journal import round_seed
from repro.core.reports import Oracle
from repro.core.runner import PQSRunner, RunnerConfig
from repro.errors import DBCrash, DBError
from repro.minidb.bugs import BUG_CATALOG, BugRegistry

from tracing import CAMPAIGN, ROUND, LayerPatches, Tracer, trace_runner

DIALECTS = ("sqlite", "mysql", "postgres")
#: Rounds per dialect campaign in ``defect-campaign``.  ``pqs hunt``
#: defaults to 100, but a round costs the same in either (reduction and
#: attribution run on every raw finding, capped or not; see README), and
#: the six to twelve campaigns of a 20 s run average out how much one
#: seed happens to find, where three 100-round campaigns let it swing
#: ``queries_per_s`` by 30%.
CAMPAIGN_DATABASES = 30
#: Round index of the untimed warm-up rounds; no run gets this far.
WARMUP_INDEX = 10**6
#: Rounds per dialect of the untimed warm-up campaigns.
WARMUP_DATABASES = 3
#: Rounds the correctness re-run repeats.
RERUN_ROUNDS = 30
#: Rounds of the pipe-cost probe.
PROBE_ROUNDS = 6


@dataclass
class Round:
    """What one database round did, as the benchmark observed it."""

    index: int
    dialect: str
    traced: bool = False
    statements: int = 0
    queries: int = 0
    #: Wall seconds of the ``run_database_round`` call.
    seconds: float = 0.0
    #: Finding fingerprints, in report order.
    findings: tuple = ()
    #: Raised, or the watchdog recorded a timeout.
    failed: bool = False
    error: str = ""
    #: Defects whose first attributed report came from this round.
    detected: tuple = ()

    def outcome(self) -> tuple:
        """Everything a re-run of the round must reproduce exactly."""
        return (self.dialect, self.statements, self.queries, self.findings,
                self.failed)


@dataclass
class Unit:
    """One ``Campaign.run`` of ``defect-campaign``."""

    index: int
    dialect: str
    traced: bool
    wall: float = 0.0
    rounds: list[Round] = field(default_factory=list)
    #: Reduced, attributed reports the campaign kept.
    kept: list = field(default_factory=list)
    #: Raw findings no injected defect explains.
    unattributed: int = 0
    raw_reports: int = 0
    error: str = ""

    def outcome(self) -> tuple:
        return ([r.outcome() for r in self.rounds],
                [(r.fingerprint(), tuple(r.attributed_bugs), r.triage)
                 for r in self.kept],
                self.unattributed, self.error)


def _round(runner: PQSRunner, dialect: str, seed: int, index: int,
           tracer: Optional[Tracer] = None) -> Round:
    runner.reseed(round_seed(seed, index))
    record = Round(index, dialect, traced=tracer is not None)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = runner.run_database_round()
        else:
            result = tracer.call(ROUND, runner.run_database_round)
    except Exception:  # noqa: BLE001 - a failed round is counted, not fatal
        record.seconds = time.perf_counter() - start
        record.failed = True
        record.error = traceback.format_exc()
        return record
    record.seconds = time.perf_counter() - start
    _fill(record, result)
    return record


def _fill(record: Round, result) -> None:
    record.statements = result.statements
    record.queries = result.queries
    record.findings = tuple(r.fingerprint() for r in result.reports)
    record.failed = result.timeouts > 0


class Hunt:
    """A defect-free PQS hunt against one kind of target.

    *target* maps a dialect to a connection factory.  *reference* is the
    in-process target behind it, which the correctness re-run uses.
    """

    campaign = False
    #: Blocks between a round and its traced twin: at least 12 rounds,
    #: over 1,024 distinct SQL texts on MiniDB.
    trace_group = 12

    def __init__(self, name: str, dialects: tuple,
                 target: Callable[[str], Callable],
                 reference: Optional[Callable[[str], Callable]] = None):
        self.name = name
        self.dialects = dialects
        self.target = target
        self.reference = reference or target

    def runner(self, dialect: str, factory=None) -> PQSRunner:
        return PQSRunner(factory or self.target(dialect),
                         RunnerConfig(dialect=dialect))

    def setup(self) -> None:
        """What a user pays before the first round: runner construction
        and the first target connection opened and closed."""
        runner = self.runner(self.dialects[0])
        runner.connection_factory().close()

    def blocks(self, seed: int, tracer: Optional[Tracer] = None):
        """Warm up, then return a function that runs block *b*: round
        ``b * len(dialects) + k`` on dialect *k*, each dialect in turn."""
        plain = {d: self.runner(d) for d in self.dialects}
        traced = {}
        if tracer is not None:
            for dialect in self.dialects:
                traced[dialect] = self.runner(dialect)
                trace_runner(traced[dialect], tracer)
        for k, dialect in enumerate(self.dialects):
            _round(plain[dialect], dialect, seed, WARMUP_INDEX + k)
        width = len(self.dialects)

        def block(b: int, traced_run: bool) -> list[Round]:
            runners = traced if traced_run else plain
            return [_round(runners[d], d, seed, b * width + k,
                           tracer if traced_run else None)
                    for k, d in enumerate(self.dialects)]
        return block

    def rerun(self, seed: int, rounds: list[Round]) -> list[tuple]:
        """(original, re-run) outcome pairs of the first rounds, re-run
        untraced against the in-process reference target."""
        runners = {d: self.runner(d, self.reference(d))
                   for d in self.dialects}
        pairs = []
        for record in [r for r in rounds if not r.traced][:RERUN_ROUNDS]:
            again = _round(runners[record.dialect], record.dialect, seed,
                           record.index)
            pairs.append((record.outcome(), again.outcome()))
        return pairs


class DefectCampaign:
    """``Campaign(...).run()`` over every dialect with its full defect
    catalog and reduction on, as ``pqs hunt`` runs it."""

    name = "defect-campaign"
    campaign = True
    #: One block is three campaigns of about 500 statements each.
    trace_group = 1

    def config(self, dialect: str, seed: int) -> CampaignConfig:
        return CampaignConfig(dialect=dialect, seed=seed,
                              databases=CAMPAIGN_DATABASES)

    def setup(self) -> None:
        runner = Campaign(self.config("sqlite", 0)).build_runner()
        runner.connection_factory().close()

    def unit(self, seed: int, index: int,
             tracer: Optional[Tracer] = None) -> Unit:
        dialect = DIALECTS[index % len(DIALECTS)]
        unit = Unit(index, dialect, traced=tracer is not None)
        campaign = _ObservedCampaign(
            self.config(dialect, round_seed(seed, index)), unit, tracer)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = campaign.run()
            else:
                result = tracer.call(CAMPAIGN, campaign.run)
        except Exception:  # noqa: BLE001 - a failed campaign is counted
            unit.wall = time.perf_counter() - start
            unit.error = traceback.format_exc()
            return unit
        unit.wall = time.perf_counter() - start
        unit.kept = result.reports
        unit.unattributed = len(result.unattributed)
        unit.raw_reports = len(result.stats.reports)
        first: dict[str, int] = {}
        for report in result.reports:
            position = campaign.round_of[id(report)]
            for bug_id in report.attributed_bugs:
                first[bug_id] = min(first.get(bug_id, position), position)
        for bug_id, position in first.items():
            unit.rounds[position].detected += (bug_id,)
        return unit

    def blocks(self, seed: int, tracer: Optional[Tracer] = None):
        """Warm up, then return a function that runs block *b*: one
        campaign per dialect, units ``3b`` to ``3b + 2``."""
        for dialect in DIALECTS:
            Campaign(CampaignConfig(dialect=dialect, seed=seed,
                                    databases=WARMUP_DATABASES)).run()
        width = len(DIALECTS)

        def block(b: int, traced_run: bool) -> list[Unit]:
            return [self.unit(seed, b * width + k,
                              tracer if traced_run else None)
                    for k in range(width)]
        return block

    def rerun(self, seed: int, units: list[Unit]) -> list[tuple]:
        """Re-run the first campaign; (original, re-run) outcomes."""
        return [(units[0].outcome(), self.unit(seed, 0).outcome())]


class _ObservedCampaign(Campaign):
    """A campaign whose runner reports every round to the benchmark, so
    each finding can be traced back to the round that produced it."""

    def __init__(self, config: CampaignConfig, unit: Unit,
                 tracer: Optional[Tracer]):
        super().__init__(config)
        self.unit = unit
        self.tracer = tracer
        #: id(raw report) -> index of its round in ``unit.rounds``.
        self.round_of: dict[int, int] = {}

    def build_runner(self, telemetry=None, seed=None) -> PQSRunner:
        runner = super().build_runner(telemetry, seed)
        if self.tracer is not None:
            trace_runner(runner, self.tracer)
        run_round = runner.run_database_round
        unit, tracer = self.unit, self.tracer

        def run_database_round():
            record = Round(len(unit.rounds), unit.dialect,
                           traced=tracer is not None)
            start = time.perf_counter()
            result = (run_round() if tracer is None
                      else tracer.call(ROUND, run_round))
            record.seconds = time.perf_counter() - start
            _fill(record, result)
            for report in result.reports:
                self.round_of[id(report)] = record.index
            unit.rounds.append(record)
            return result

        runner.run_database_round = run_database_round
        return runner


def run_blocks(workload, seed: int, seconds: float,
               tracer: Optional[Tracer] = None) -> list:
    """Run blocks of *workload* for about *seconds*.

    The run ends at the block boundary nearest the deadline: after a
    block, or a traced group, it stops once less than half that block's
    time remains.  With blocks of several seconds, the run then lasts as
    close to *seconds* as a whole number of blocks allows.

    With a tracer, blocks come in groups of ``workload.trace_group``:
    the group runs untraced, then again traced with the same seeds.  So
    traced and untraced work is identical, both see the host at the same
    time, and the lag of a whole group between a round and its traced
    twin lets MiniDB's module-level caches (parse cache: 1,024 texts)
    turn over, so the twin does not find its own SQL cached.
    """
    block = workload.blocks(seed, tracer)
    patches = LayerPatches(tracer) if tracer is not None else None
    records: list = []
    deadline = time.perf_counter() + seconds
    b = 0
    while True:
        started = time.perf_counter()
        if tracer is None:
            records += block(b, False)
            b += 1
        else:
            group = range(b, b + workload.trace_group)
            for g in group:
                records += block(g, False)
            with patches.installed():
                for g in group:
                    records += block(g, True)
            b += workload.trace_group
        now = time.perf_counter()
        if now + (now - started) / 2 >= deadline:
            return records


#: The oracle each kind of final-statement outcome trips.
_ORACLE_OF = {"crash": Oracle.CRASH, "error": Oracle.ERROR,
              "rows": Oracle.CONTAINMENT}


def attribution_failures(units: list[Unit]) -> list[str]:
    """Kept reports whose attribution does not hold when re-checked.

    Each must name catalog defects of its campaign's dialect.  Then its
    reduced test case runs again, outside the campaign's replayer,
    through fresh :class:`MiniDBConnection` targets (the connection the
    hunts use): one clean, one with only the primary defect, and one
    with the campaign's full catalog.  The primary defect's target must
    disagree with the clean one on the final statement, and the full
    catalog's target must disagree with it in the way the report's
    oracle names (a crash, an error, or other rows).
    """
    problems = []
    for unit in units:
        for report in unit.kept:
            label = f"{unit.dialect} campaign {unit.index} " \
                    f"report {report.fingerprint()}"
            bugs = report.attributed_bugs
            if not bugs:
                problems.append(f"{label}: no attributed defect")
                continue
            foreign = [b for b in bugs if b not in BUG_CATALOG
                       or BUG_CATALOG[b].dialect != unit.dialect]
            if foreign:
                problems.append(f"{label}: not {unit.dialect} defects "
                                f"{foreign}")
                continue
            if report.oracle is Oracle.MULTIPLAN:
                continue  # needs forced plans; off in the default config
            statements = report.test_case.statements
            clean = final_outcome(unit.dialect, BugRegistry(), statements)
            single = final_outcome(unit.dialect, BugRegistry({bugs[0]}),
                                   statements)
            full = final_outcome(unit.dialect,
                                 BugRegistry.all_for(unit.dialect),
                                 statements)
            if single == clean:
                problems.append(f"{label}: {bugs[0]} alone gives the clean "
                                f"outcome {clean[0]}")
            if full == clean or _ORACLE_OF[full[0]] is not report.oracle:
                problems.append(f"{label}: reported as {report.oracle.value}"
                                f", but the catalog gives {full[0]} and the "
                                f"clean target {clean[0]}")
    return problems


def final_outcome(dialect: str, bugs: BugRegistry,
                  statements: list[str]) -> tuple:
    """``(kind, detail)`` of the final statement on a fresh MiniDB
    target: ``("rows", sorted row reprs)``, ``("error", message)`` or
    ``("crash", message)``.  Errors in the prefix are skipped, as a
    replayed test case allows; a crash anywhere ends the case."""
    connection = MiniDBConnection(dialect, bugs)
    try:
        for sql in statements[:-1]:
            try:
                connection.execute(sql)
            except DBError:
                pass
        try:
            return ("rows", tuple(sorted(map(repr, connection.execute(
                statements[-1])))))
        except DBError as error:
            return ("error", error.message)
    except DBCrash as crash:
        return ("crash", crash.message)
    finally:
        connection.close()


def pipe_probe(seed: int) -> tuple[float, list[str]]:
    """Per-statement cost of the process boundary, in microseconds, plus
    any round whose outcome differed across it.

    Rounds 0 to ``PROBE_ROUNDS - 1`` of the run's seed, on the sqlite
    dialect, run twice against real sqlite3, traced only at the
    connection: in process, then through
    :class:`SubprocessConnection`.  The cost is the difference of the
    mean per-statement times of ``execute`` plus ``execute_many`` over
    the same statements.  sqlite3 executes them in microseconds, so the
    difference is the pipe, not the target.
    """
    per_statement = []
    outcomes = []
    for target in (SQLite3Connection,
                   functools.partial(SubprocessConnection, SQLite3Connection)):
        tracer = Tracer()
        runner = PQSRunner(target, RunnerConfig(dialect="sqlite"))
        trace_runner(runner, tracer)
        outcomes.append([_round(runner, "sqlite", seed, index).outcome()
                         for index in range(PROBE_ROUNDS)])
        busy = (tracer.total_s["adapters.execute"]
                + tracer.total_s["adapters.execute_many"])
        per_statement.append(busy / max(tracer.counts["statements"], 1))
    differ = [f"probe round {i}: in-process {a} != isolated {b}"
              for i, (a, b) in enumerate(zip(*outcomes)) if a != b]
    return (per_statement[1] - per_statement[0]) * 1e6, differ


WORKLOADS = {
    "minidb-hunt": Hunt(
        "minidb-hunt", DIALECTS,
        lambda d: functools.partial(MiniDBConnection, d)),
    "sqlite3-hunt": Hunt(
        "sqlite3-hunt", ("sqlite",), lambda d: SQLite3Connection),
    "isolated-hunt": Hunt(
        "isolated-hunt", ("sqlite",),
        lambda d: functools.partial(SubprocessConnection, SQLite3Connection),
        reference=lambda d: SQLite3Connection),
    "defect-campaign": DefectCampaign(),
}
