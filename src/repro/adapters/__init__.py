"""Connections to systems under test.

PQS talks to every target through :class:`DBMSConnection` — SQL strings
in, rows of :class:`~repro.values.Value` out, :class:`~repro.errors
.DBError`/:class:`~repro.errors.DBCrash` on failure.  The oracle never
sees engine internals, so testing MiniDB and testing a real SQLite build
via the stdlib bindings are the same code path.

:class:`SubprocessConnection` adds the fault-isolation layer: it runs
any picklable connection factory in a child process, turning real
crashes into :class:`~repro.errors.DBCrash`, hangs into
:class:`~repro.errors.DBTimeout`, and recovering state by replay after
either.  :mod:`repro.adapters.faults` provides deterministic
crash/hang/error plans for exercising that machinery (and all three
oracles) on demand.
"""

from repro import _lazy

_EXPORTS = {
    **dict.fromkeys(("DBMSConnection", "execute_batch"),
                    "repro.adapters.base"),
    **dict.fromkeys(("FaultPlan", "FaultyConnection", "FaultyFactory"),
                    "repro.adapters.faults"),
    "MiniDBConnection": "repro.adapters.minidb_adapter",
    "SQLite3Connection": "repro.adapters.sqlite3_adapter",
    **dict.fromkeys(("SubprocessConfig", "SubprocessConnection"),
                    "repro.adapters.subprocess_adapter"),
}
__getattr__, __dir__ = _lazy.exports(__name__, _EXPORTS)

__all__ = [
    "DBMSConnection",
    "execute_batch",
    "FaultPlan",
    "FaultyConnection",
    "FaultyFactory",
    "MiniDBConnection",
    "SQLite3Connection",
    "SubprocessConfig",
    "SubprocessConnection",
]
