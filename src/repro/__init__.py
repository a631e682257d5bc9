"""Pivoted Query Synthesis — a reproduction of Rigger & Su, OSDI 2020.

Public API tour:

* :class:`repro.core.PQSRunner` — the PQS loop (steps 1–7 of Figure 1)
  against any :class:`repro.adapters.DBMSConnection`;
* :class:`repro.minidb.Engine` — the from-scratch relational engine used
  as the offline system under test, with injectable defects
  (:data:`repro.minidb.BUG_CATALOG`) modeled on the paper's reported
  bugs;
* :class:`repro.campaigns.Campaign` — end-to-end bug-hunting runs with
  reduction, attribution and the paper's Tables/Figures statistics;
* :mod:`repro.interp` — the exact expression interpreter (the oracle),
  cross-validated against real SQLite;
* :class:`repro.adapters.SQLite3Connection` — run the same loop against
  a live SQLite build;
* :class:`repro.telemetry.Telemetry` — opt-in metrics registry and span
  tracer threaded through the runner, campaigns and fault harness.

Quick start::

    from repro import Campaign, CampaignConfig

    result = Campaign(CampaignConfig(dialect="sqlite", seed=1,
                                     databases=20)).run()
    for report in result.reports:
        print(report.oracle.value, report.attributed_bugs)
        print(report.test_case.render())
"""

from repro import _lazy

#: Every re-exported name and the module that defines it, imported on
#: first use so a process needing one part of the package pays for
#: that part only.
_EXPORTS = {
    **dict.fromkeys(
        ("DBMSConnection", "FaultPlan", "FaultyFactory", "MiniDBConnection",
         "SQLite3Connection", "SubprocessConfig", "SubprocessConnection"),
        "repro.adapters"),
    **dict.fromkeys(("Campaign", "CampaignConfig", "CampaignResult"),
                    "repro.campaigns"),
    **dict.fromkeys(("BugReport", "Oracle", "PQSRunner", "RunnerConfig",
                     "TestCase", "TestCaseReducer"), "repro.core"),
    **dict.fromkeys(("DBCrash", "DBError", "DBTimeout", "HarnessError",
                     "PQSError"), "repro.errors"),
    **dict.fromkeys(("BUG_CATALOG", "BugRegistry", "Engine", "ResultSet"),
                    "repro.minidb"),
    **dict.fromkeys(("MetricsRegistry", "Telemetry", "Tracer"),
                    "repro.telemetry"),
    "Value": "repro.values",
}
__getattr__, __dir__ = _lazy.exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    "BUG_CATALOG",
    "BugRegistry",
    "BugReport",
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "DBCrash",
    "DBError",
    "DBMSConnection",
    "DBTimeout",
    "Engine",
    "FaultPlan",
    "FaultyFactory",
    "HarnessError",
    "MetricsRegistry",
    "MiniDBConnection",
    "Oracle",
    "PQSError",
    "PQSRunner",
    "ResultSet",
    "RunnerConfig",
    "SQLite3Connection",
    "SubprocessConfig",
    "SubprocessConnection",
    "Telemetry",
    "TestCase",
    "TestCaseReducer",
    "Tracer",
    "Value",
    "__version__",
]
