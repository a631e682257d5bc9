"""Child-process entrypoint for :class:`SubprocessConnection`.

Serves the pipe protocol for one target connection at a time, and for
as many in turn as the parent sends hellos:

* ``hello``   — unpickle the connection factory, instantiate the target
  (passing ``offset=`` when the factory advertises ``accepts_offset``),
  reply with the target's dialect and the wire encoding picked from the
  parent's advertised list (see :mod:`repro.adapters.wire`);
* ``execute`` — run one fresh statement; reply ``{"ok": rows}``,
  ``{"error": (type, message)}``, or — for a simulated
  :class:`~repro.errors.DBCrash` — announce ``{"crash": message}`` and
  then *die* (``os._exit(139)``, the shell's SIGSEGV convention), so a
  simulated crash and a real segfault look identical to the parent;
* ``execute_many`` — run a batch of fresh statements in order,
  streaming one outcome frame per statement; the batch stops at the
  first non-ok statement (the parent resubmits the rest if it wants to
  continue), so an interleaving of batches is statement-for-statement
  identical to the same statements sent one at a time.  A simulated
  crash mid-batch announces itself and dies exactly like ``execute``;
  a real kill simply truncates the outcome stream, and the parent
  attributes the death to the first statement without an outcome;
* ``replay``  — re-run a previously-successful statement during state
  restoration, bypassing fault injection when the target offers
  ``execute_replay``;
* ``query_plan`` / ``with_plan`` / ``index_candidates`` — optional
  introspection hooks, forwarded when the target offers them and
  answered with an ``UnsupportedError`` reply otherwise;
* ``reset``   — close the target, reply ``{"reset": "ok"}`` and wait
  for the next ``hello``: the parent parks this process and hands it
  its next connection instead of starting a new one;
* ``close``   — close the target (if any) and exit 0, whether it comes
  in place of a hello or between statements.

End of input ends the worker in every state, so a worker whose parent
died exits at once.  Anything that ends a target other than ``reset``
— a simulated crash, a ``fatal`` reply — ends the process too, so the
parent never parks a worker a fault has touched.

Any non-DBError exception from the target is a tool bug: it is reported
as ``{"fatal": traceback}`` so the parent can raise
:class:`~repro.errors.HarnessError` instead of blaming the DBMS.
"""

from __future__ import annotations

import os
import sys
import traceback

from repro.adapters import wire
from repro.adapters.subprocess_adapter import read_frame, write_frame
from repro.errors import DBCrash, DBError

#: Exit status mimicking death by SIGSEGV (128 + 11).
CRASH_EXIT_CODE = 139


def main() -> int:
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    while True:
        try:
            hello = read_frame(stdin)
        except EOFError:
            return 0
        if hello.get("op") == "close":
            return 0
        factory = hello["factory"]
        try:
            if getattr(factory, "accepts_offset", False):
                connection = factory(offset=hello.get("offset", 0))
            else:
                connection = factory()
        except Exception:
            write_frame(stdout, {"fatal": traceback.format_exc()})
            return 1
        use_rowset = wire.ROWSET_NAME in hello.get("wire", ())
        greeting = {"dialect": getattr(connection, "dialect", "sqlite")}
        if use_rowset:
            greeting["wire"] = wire.ROWSET_NAME
        write_frame(stdout, greeting)
        status = serve(connection, stdin, stdout, use_rowset)
        if status is not None:
            return status


def serve(connection, stdin, stdout, use_rowset: bool):
    """Run statements on *connection* until the parent ends it: None
    after a ``reset`` (wait for the next hello), else the exit status."""
    while True:
        try:
            message = read_frame(stdin)
        except EOFError:
            return 0
        op = message.get("op")
        if op == "close":
            try:
                connection.close()
            except Exception:
                pass
            return 0
        if op == "reset":
            try:
                connection.close()
            except Exception:
                write_frame(stdout, {"fatal": traceback.format_exc()})
                return 1
            write_frame(stdout, {"reset": "ok"})
            return None
        if op == "execute_many":
            for sql in message["sqls"]:
                try:
                    rows = connection.execute(sql)
                except DBCrash as crash:
                    write_frame(stdout, {"crash": crash.message})
                    stdout.flush()
                    os._exit(CRASH_EXIT_CODE)
                except DBError as error:
                    # Stop at the first failure: the parent decides
                    # whether the remaining statements still run.
                    write_frame(stdout, {"error": (type(error).__name__,
                                                   error.message)})
                    break
                except Exception:
                    write_frame(stdout, {"fatal": traceback.format_exc()})
                    return 1
                else:
                    write_frame(stdout, {"ok": rows}, use_rowset)
            continue
        if op not in ("execute", "replay", "query_plan", "with_plan",
                      "index_candidates"):
            write_frame(stdout, {"fatal": f"unknown op: {op!r}"})
            return 1
        sql = message.get("sql", "")
        try:
            if op == "query_plan":
                plan_fn = getattr(connection, "query_plan", None)
                if plan_fn is None:
                    write_frame(stdout, {"error": (
                        "UnsupportedError",
                        "target offers no query_plan introspection")})
                    continue
                rows = plan_fn(sql)
            elif op == "with_plan":
                forced_fn = getattr(connection, "with_plan", None)
                if forced_fn is None:
                    write_frame(stdout, {"error": (
                        "UnsupportedError",
                        "target offers no forced-plan execution")})
                    continue
                rows = forced_fn(sql, message["hints"])
            elif op == "index_candidates":
                index_fn = getattr(connection, "index_candidates", None)
                if index_fn is None:
                    write_frame(stdout, {"error": (
                        "UnsupportedError",
                        "target offers no index enumeration")})
                    continue
                rows = index_fn(message["tables"])
            elif op == "replay" and hasattr(connection, "execute_replay"):
                rows = connection.execute_replay(sql)
            else:
                rows = connection.execute(sql)
        except DBCrash as crash:
            # Tell the parent why, then die the way a segfault dies:
            # abruptly, without cleanup, taking the process with it.
            write_frame(stdout, {"crash": crash.message})
            stdout.flush()
            os._exit(CRASH_EXIT_CODE)
        except DBError as error:
            write_frame(stdout,
                        {"error": (type(error).__name__, error.message)})
        except Exception:
            write_frame(stdout, {"fatal": traceback.format_exc()})
            return 1
        else:
            write_frame(stdout, {"ok": rows}, use_rowset)


if __name__ == "__main__":
    sys.exit(main())
