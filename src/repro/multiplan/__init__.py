"""``repro.multiplan`` — the multi-plan differential execution oracle.

Plan-forcing knobs (:class:`PlannerHints`, mapped to MiniDB planner
hints and sqlite ``INDEXED BY``/``NOT INDEXED``/``ANALYZE``), the
differential harness (:class:`MultiPlanOracle`) that executes each
synthesized query under every distinct feasible plan and demands row-
multiset agreement, and the replayer the campaign uses to reduce and
attribute its findings.  Off by default everywhere:
:data:`NULL_MULTIPLAN` follows the telemetry/guidance null-object
pattern, and a hunt without ``--multiplan`` is bit-identical to one run
before this package existed.

Usage::

    from repro.multiplan import MultiPlanOracle

    oracle = MultiPlanOracle(telemetry=t)
    divergence = oracle.check(connection, query, semantics)
    if divergence is not None:
        print(divergence.message)
"""

from repro import _lazy

_EXPORTS = {
    **dict.fromkeys(("BASELINE", "PlannerHints"), "repro.multiplan.hints"),
    **dict.fromkeys(("Divergence", "MultiPlanOracle", "NULL_MULTIPLAN",
                     "NullMultiPlan", "PlanRun"), "repro.multiplan.oracle"),
    "MultiPlanReplayer": "repro.multiplan.replay",
}
__getattr__, __dir__ = _lazy.exports(__name__, _EXPORTS)

__all__ = [
    "BASELINE", "Divergence", "MultiPlanOracle", "MultiPlanReplayer",
    "NULL_MULTIPLAN", "NullMultiPlan", "PlanRun", "PlannerHints",
]
