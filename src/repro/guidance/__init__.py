"""``repro.guidance`` — query-plan-guided generation.

Plan introspection (adapter ``query_plan`` hooks + MiniDB ``EXPLAIN``),
schema-shape plan fingerprinting, coverage tracking, and the feedback
scheduler that biases :class:`~repro.core.runner.PQSRunner` toward
mutating states that produced novel plans.  Off by default everywhere:
:data:`NULL_GUIDANCE` follows the telemetry package's null-object
pattern, and a hunt without ``--guidance`` is bit-identical to one run
before this package existed.

Usage::

    from repro.guidance import PlanGuidance

    guidance = PlanGuidance(seed=42, telemetry=t)
    runner = PQSRunner(factory, config, guidance=guidance)
    runner.run(100)
    print(guidance.coverage.distinct, "distinct plans")
"""

from repro import _lazy
# ``fingerprint`` names both a function and a submodule.  Importing the
# submodule rebinds the package attribute to the module, so the
# function is bound eagerly, after that import, rather than lazily.
from repro.guidance.fingerprint import fingerprint

_EXPORTS = {
    "PlanCoverage": "repro.guidance.coverage",
    **dict.fromkeys(("PlanStep", "canonicalize", "parse_sqlite_eqp_detail",
                     "steps_from_minidb", "steps_from_sqlite_eqp"),
                    "repro.guidance.fingerprint"),
    **dict.fromkeys(("NULL_GUIDANCE", "NullGuidance", "PlanGuidance",
                     "RoundProfile", "mix_seed", "mutation_weights"),
                    "repro.guidance.scheduler"),
}
_resolve, __dir__ = _lazy.exports(__name__, _EXPORTS)

__all__ = [
    "MUTATION_WEIGHTS", "NULL_GUIDANCE", "NullGuidance", "PlanCoverage",
    "PlanGuidance", "PlanStep", "RoundProfile", "canonicalize",
    "fingerprint", "mix_seed", "mutation_weights",
    "parse_sqlite_eqp_detail", "steps_from_minidb",
    "steps_from_sqlite_eqp",
]


def __getattr__(name: str):
    # MUTATION_WEIGHTS resolves lazily (it needs repro.stategen, which
    # would close an import cycle if pulled in at package-import time).
    if name == "MUTATION_WEIGHTS":
        return _resolve("mutation_weights")()
    return _resolve(name)
