"""In-memory span tracer and the layer wrappers of the traced run.

The benchmark measures the program from outside: nothing under ``src/``
knows it is being traced.  A traced run wraps the public entry points of
each layer (the connection a factory returns, the runner's round, the
query generator, the oracle interpreter, MiniDB's parser, planner and
executors, the campaign's replay and reduction) and records one span
per call: name, start, end, parent span and round id.  Spans stay in
memory until the run ends.

A layer's *self time* is its span's duration minus the part covered by
its child spans, so self times of all layers plus the self time of the
outermost spans (round and campaign bookkeeping, reported as
"unattributed") add up to the traced wall time.  Garbage-collector
pauses inside the traced spans are timed as well; they are part of the
self time of whichever span they interrupt.
"""

from __future__ import annotations

import functools
import gc
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: Outermost spans.  Their self time is work no named layer claims.
ROUND = "core.round"
CAMPAIGN = "campaigns.run"
CONTAINERS = (ROUND, CAMPAIGN)

#: Every layer the traced run reports, in report order.
LAYERS = (
    "adapters.connect", "adapters.close", "adapters.execute",
    "adapters.execute_many",
    "minidb.engines", "minidb.parse", "minidb.plan", "minidb.select",
    "minidb.write",
    "stategen", "core.pivot", "core.synthesize", "interp.oracle",
    "core.containment", "core.error_oracle",
    "campaigns.replay", "core.reducer", "core.shrink",
)


class Tracer:
    """Records spans and per-layer calls, self time and counts."""

    def __init__(self):
        #: (name, start, end, parent index or -1, round id or -1).
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        #: Plain event counters (statements, ok outcomes, ...).
        self.counts: dict[str, int] = defaultdict(int)
        #: SQL texts parsed so far, for the parse repeat ratio.
        self.parsed: set[str] = set()
        self.round_id = -1
        #: Seconds of garbage-collector pauses inside outermost spans.
        #: They also count in the self time of the span they interrupt.
        self.gc_s = 0.0
        # Open spans: [name, start, child seconds, span index].
        self._stack: list[list] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*.

        A call nested directly in a span of the same name (recursion,
        or ``evaluate_bool`` calling ``evaluate``) joins that span.
        """
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        if name == ROUND:
            self.round_id += 1
        index = len(self.spans)
        self.spans.append(None)
        frame = [name, 0.0, 0.0, index]
        parent = stack[-1][3] if stack else -1
        stack.append(frame)
        start = frame[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            self.total_s[name] += duration
            self.spans[index] = (name, start, end, parent, self.round_id)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def wrap_generator(self, name: str, fn):
        """Like :meth:`wrap` for a generator function: each step of the
        generator is a span, the caller's work between steps is not."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, steps)
                except StopIteration:
                    return
                yield item
        return traced

    def traced_wall(self) -> float:
        """Seconds inside outermost spans (campaign rounds run inside
        ``Campaign.run``, so a traced campaign counts only the latter)."""
        return self.total_s.get(CAMPAIGN) or self.total_s.get(ROUND, 0.0)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for name, start, end, parent, round_id in self.spans:
                out.write(json.dumps([name, round(start, 7), round(end, 7),
                                      parent, round_id]) + "\n")


class TimedConnection:
    """A transparent timing proxy for one target connection.

    ``execute`` and ``close`` are timed.  Everything else is looked up
    on the wrapped connection, so the optional hooks (``execute_many``,
    ``query_plan``, ``with_plan``, ``index_candidates``) exist on the
    proxy exactly when the wrapped connection has them: callers that
    probe with ``getattr`` see what they would see without the proxy.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def execute(self, sql: str):
        tracer = self._tracer
        tracer.counts["statements"] += 1
        rows = tracer.call("adapters.execute", self._inner.execute, sql)
        tracer.counts["ok"] += 1
        return rows

    def close(self) -> None:
        self._tracer.call("adapters.close", self._inner.close)

    def __getattr__(self, name: str):
        attr = getattr(self._inner, name)
        if name != "execute_many":
            return attr
        tracer = self._tracer

        def execute_many(sqls):
            outcomes = tracer.call("adapters.execute_many", attr, sqls)
            tracer.counts["statements"] += len(outcomes)
            tracer.counts["execute_many.statements"] += len(outcomes)
            tracer.counts["ok"] += sum(kind == "ok" for kind, _ in outcomes)
            return outcomes
        return execute_many


def timed_factory(factory, tracer: Tracer):
    """A connection factory whose connections are timed proxies."""
    def connect():
        return TimedConnection(tracer.call("adapters.connect", factory),
                               tracer)
    return connect


def trace_runner(runner, tracer: Tracer) -> None:
    """Time one runner's connections and its own oracle interpreter.

    Only the runner's interpreter is wrapped, which separates oracle
    evaluation from MiniDB's WHERE evaluation (MiniDB engines hold
    interpreters of their own).
    """
    runner.connection_factory = timed_factory(runner.connection_factory,
                                              tracer)
    interpreter = runner.interpreter
    for method in ("evaluate", "evaluate_bool"):
        setattr(interpreter, method,
                tracer.wrap("interp.oracle", getattr(interpreter, method)))


def _layer_targets(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every class- or module-level
    entry point the traced run wraps."""
    from repro.campaigns.replay import DifferentialReplayer
    from repro.core import runner as runner_module
    from repro.core.error_oracle import ErrorOracle
    from repro.core.pivot import PivotSelector
    from repro.core.querygen import QueryGenerator
    from repro.core.reducer import TestCaseReducer
    from repro.core.shrink import QueryShrinker
    from repro.minidb import engine as engine_module
    from repro.minidb import executor as executor_module
    from repro.minidb import statements as st
    from repro.stategen.actions import ActionGenerator

    wrap = tracer.wrap
    parse = engine_module.parse_statement

    def parse_statement(sql):
        if sql in tracer.parsed:
            tracer.counts["parse.repeats"] += 1
        else:
            tracer.parsed.add(sql)
        return tracer.call("minidb.parse", parse, sql)

    execute_statement = engine_module.Engine.execute_statement
    reads = (st.Select, st.Explain)

    def traced_execute_statement(engine, stmt):
        # SELECTs are charged to SelectExecutor.execute; everything
        # else an engine executes writes (DDL, DML, options, maintenance).
        if isinstance(stmt, reads):
            return execute_statement(engine, stmt)
        return tracer.call("minidb.write", execute_statement, engine, stmt)

    synthesize = QueryGenerator.synthesize
    synthesize_negative = QueryGenerator.synthesize_negative

    def counted(fn):
        @functools.wraps(fn)
        def synthesize_counted(*args, **kwargs):
            tracer.counts["synthesize.attempts"] += 1
            query = tracer.call("core.synthesize", fn, *args, **kwargs)
            tracer.counts["synthesize.queries"] += 1
            return query
        return synthesize_counted

    targets = [
        (engine_module, "parse_statement", parse_statement),
        (executor_module, "choose_path",
         wrap("minidb.plan", executor_module.choose_path)),
        (executor_module.SelectExecutor, "execute",
         wrap("minidb.select", executor_module.SelectExecutor.execute)),
        (engine_module.Engine, "execute_statement", traced_execute_statement),
        (engine_module.Engine, "__init__",
         wrap("minidb.engines", engine_module.Engine.__init__)),
        (ActionGenerator, "initial_plan_groups",
         tracer.wrap_generator("stategen",
                               ActionGenerator.initial_plan_groups)),
        (QueryGenerator, "synthesize", counted(synthesize)),
        (QueryGenerator, "synthesize_negative", counted(synthesize_negative)),
        (runner_module, "check_containment",
         wrap("core.containment", runner_module.check_containment)),
        (PivotSelector, "select", wrap("core.pivot", PivotSelector.select)),
        (ErrorOracle, "classify",
         wrap("core.error_oracle", ErrorOracle.classify)),
        (TestCaseReducer, "reduce",
         wrap("core.reducer", TestCaseReducer.reduce)),
        (QueryShrinker, "shrink", wrap("core.shrink", QueryShrinker.shrink)),
    ]
    for method in ("random_action", "close_transaction"):
        targets.append((ActionGenerator, method,
                        wrap("stategen", getattr(ActionGenerator, method))))
    for method in ("manifests", "difference_kind", "attribute"):
        targets.append((DifferentialReplayer, method,
                        wrap("campaigns.replay",
                             getattr(DifferentialReplayer, method))))
    return targets


class LayerPatches:
    """Installs the layer wrappers for the traced sections of a run."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._targets = _layer_targets(tracer)
        self._gc_start = 0.0

    def _collection(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook: times each collector pause that falls
        inside a traced round or campaign, and counts it by generation."""
        tracer = self._tracer
        if not tracer._stack:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        tracer.gc_s += time.perf_counter() - self._gc_start
        tracer.counts[f"gc.gen{info['generation']}"] += 1

    @contextmanager
    def installed(self):
        saved = [(owner, name, vars(owner)[name])
                 for owner, name, _ in self._targets]
        for owner, name, replacement in self._targets:
            setattr(owner, name, replacement)
        gc.callbacks.append(self._collection)
        try:
            yield
        finally:
            gc.callbacks.remove(self._collection)
            for owner, name, original in saved:
                setattr(owner, name, original)
