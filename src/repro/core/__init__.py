"""The paper's primary contribution: Pivoted Query Synthesis.

Steps (paper Figure 1):

1. generate a random database state — :mod:`repro.stategen`;
2. select a random *pivot row* from each table — :mod:`repro.core.pivot`;
3. generate random expressions over the schema (Algorithm 1) —
   :mod:`repro.core.exprgen`;
4. evaluate them on the pivot row with the exact interpreter
   (Algorithm 2, :mod:`repro.interp`) and *rectify* them to TRUE
   (Algorithm 3) — :mod:`repro.core.rectify`;
5. synthesize a query using the rectified conditions in WHERE/JOIN
   clauses — :mod:`repro.core.querygen`;
6. + 7. run the query and check the pivot row is contained —
   :mod:`repro.core.containment`.

The *error oracle* (§3.3) and crash handling live in
:mod:`repro.core.error_oracle`; the driving loop in
:mod:`repro.core.runner`; test-case reduction in
:mod:`repro.core.reducer`.
"""

from repro import _lazy

# Lazy, like the top-level package: repro.stategen imports
# repro.core.schema, and an eager import of the runner here would close
# the cycle runner -> stategen -> core on a cold ``import repro.stategen``.
_EXPORTS = {
    **dict.fromkeys(("check_containment", "containment_query"),
                    "repro.core.containment"),
    "ErrorOracle": "repro.core.error_oracle",
    "ExpressionGenerator": "repro.core.exprgen",
    **dict.fromkeys(("PivotSelector", "PivotRow"), "repro.core.pivot"),
    **dict.fromkeys(("QueryGenerator", "SynthesizedQuery"),
                    "repro.core.querygen"),
    "rectify_condition": "repro.core.rectify",
    "TestCaseReducer": "repro.core.reducer",
    **dict.fromkeys(("BugReport", "Oracle", "TestCase"),
                    "repro.core.reports"),
    **dict.fromkeys(("PQSRunner", "RunnerConfig"), "repro.core.runner"),
    **dict.fromkeys(("ColumnModel", "SchemaModel", "TableModel"),
                    "repro.core.schema"),
}
__getattr__, __dir__ = _lazy.exports(__name__, _EXPORTS)

__all__ = [
    "BugReport",
    "ColumnModel",
    "ErrorOracle",
    "ExpressionGenerator",
    "Oracle",
    "PQSRunner",
    "PivotRow",
    "PivotSelector",
    "QueryGenerator",
    "RunnerConfig",
    "SchemaModel",
    "SynthesizedQuery",
    "TableModel",
    "TestCase",
    "TestCaseReducer",
    "check_containment",
    "containment_query",
    "rectify_condition",
]
