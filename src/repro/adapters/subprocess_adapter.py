"""Fault-isolated execution: run any target connection in a child process.

The paper's crash oracle (§2, §3.4) presumes the tester *outlives* a
SEGFAULT of the system under test.  In-process adapters cannot provide
that: a real crash (or an infinite-loop query) takes the whole campaign
down with it.  :class:`SubprocessConnection` restores the paper's
process boundary in pure stdlib Python:

* the target connection runs in a **child process**
  (:mod:`repro.adapters.subprocess_worker`) and is driven over a
  length-prefixed tagged pipe protocol (:mod:`repro.adapters.wire`):
  pickle for control frames, a compact typed column-wise encoding for
  query-result replies when both ends negotiate it;
* :meth:`SubprocessConnection.execute_many` ships a whole **batch** of
  statements in one frame; the worker streams one outcome frame back
  per statement, so crash attribution (the first missing outcome), the
  per-statement watchdog, and replay-on-restart all keep working on
  batch boundaries exactly as they do statement-at-a-time;
* child death — a real segfault, an ``os._exit``, an OOM kill —
  surfaces as :class:`~repro.errors.DBCrash`, making the crash oracle
  real for live targets;
* a per-statement **watchdog deadline** kills a hung child and raises
  :class:`~repro.errors.DBTimeout`;
* after a crash or timeout the harness transparently **restarts** the
  worker and **replays** the log of previously-successful statements to
  restore database state, under a bounded retry budget with exponential
  backoff (:class:`~repro.errors.HarnessError` when exhausted);
* :meth:`SubprocessConnection.close` does not end a healthy worker: it
  sends ``reset``, the worker closes its target and acks, and the live
  process is **parked** in this module's idle list.  The next
  connection sends its ``hello`` to a parked worker and starts a new
  Python process only when none is left (or the parked one fails its
  hello, which is neither a restart nor a charge on the retry budget).
  A worker that crashed, timed out, replied ``fatal`` or failed its
  reset is killed and reaped, never parked, so a crashed round's
  process cannot carry state into the next one.  An ``atexit`` hook
  closes and reaps every worker the process still holds, and a forked
  child forgets the parent's workers without writing to their pipes.

Replay assumes the target executes statements deterministically — true
for SQLite, MiniDB and every fault-plan wrapper in this repo.  A
statement that crashed or timed out is *not* replayed: the next
incarnation resumes from the last known-good state, and the fault
schedule offset (see :mod:`repro.adapters.faults`) advances past it so a
deterministic fault does not re-fire forever.
"""

from __future__ import annotations

import atexit
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from repro.adapters import wire
from repro.errors import (
    CatalogError,
    ConstraintError,
    DBCrash,
    DBError,
    DBTimeout,
    HarnessError,
    IntegrityError,
    ParseError,
    TypeError_,
    UnsupportedError,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry import names as metric_names
from repro.values import Value

_HEADER = struct.Struct("!I")

#: DBError subclasses the worker may report by name.
_ERROR_TYPES = {cls.__name__: cls for cls in (
    DBError, ParseError, CatalogError, TypeError_, ConstraintError,
    IntegrityError, UnsupportedError, DBTimeout)}


def write_frame(stream, obj: Any, use_rowset: bool = False) -> None:
    """Write one length-prefixed tagged frame (shared with the worker)."""
    body = wire.dumps(obj, use_rowset)
    stream.write(_HEADER.pack(len(body)) + body)
    stream.flush()


def read_frame(stream) -> Any:
    """Blocking read of one frame (worker side; parent reads use select)."""
    header = _read_exact(stream, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    return wire.loads(_read_exact(stream, length))


def _read_exact(stream, n: int) -> bytes:
    parts = []
    got = 0
    while got < n:
        chunk = stream.read(n - got)
        if not chunk:
            raise EOFError("pipe closed")
        parts.append(chunk)
        got += len(chunk)
    return b"".join(parts)


class _DeadlineExceeded(Exception):
    """Internal: the watchdog deadline expired mid-read."""


class _WorkerDied(Exception):
    """Internal: the child process is gone (EOF / broken pipe)."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


@dataclass
class SubprocessConfig:
    """Knobs for the fault-isolation harness."""

    #: Watchdog deadline per statement, seconds; None disables it.
    statement_timeout: Optional[float] = 10.0
    #: Deadline for worker startup + handshake.
    startup_timeout: float = 30.0
    #: Consecutive failed restore attempts tolerated per recovery
    #: episode before :class:`~repro.errors.HarnessError`.
    max_restarts: int = 5
    #: Exponential backoff between failed restore attempts:
    #: ``backoff_base * backoff_factor ** (failures - 1)`` seconds.
    backoff_base: float = 0.05
    backoff_factor: float = 2.0


class SubprocessConnection:
    """A :class:`~repro.adapters.base.DBMSConnection` with a process moat.

    ``factory`` is any picklable zero-argument callable returning a
    connection (e.g. the :class:`SQLite3Connection` class itself, or a
    :class:`~repro.adapters.faults.FaultyFactory`).  A factory exposing
    ``accepts_offset = True`` is instead called with ``offset=<fresh
    statement count>`` so deterministic fault schedules keep their place
    across restarts.
    """

    def __init__(self, factory: Callable[[], Any],
                 config: Optional[SubprocessConfig] = None,
                 telemetry: Optional[Telemetry] = None):
        self.factory = factory
        self.config = config or SubprocessConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.dialect = "sqlite"  # refined by the handshake
        self._proc: Optional[subprocess.Popen] = None
        self._log: list[str] = []
        #: Fresh (non-replay) statements attempted — the fault offset.
        self._fresh = 0
        t = self.telemetry
        self._metered = t.registry.enabled
        self._m_restarts = t.counter(metric_names.WORKER_RESTARTS)
        self._m_reuses = t.counter(metric_names.WORKER_REUSES)
        self._m_spawn = t.histogram(metric_names.WORKER_SPAWN_SECONDS)
        self._m_watchdog = t.counter(metric_names.WATCHDOG_KILLS)
        self._m_replay = t.histogram(metric_names.REPLAY_STATEMENTS,
                                     buckets=metric_names.COUNT_BUCKETS)
        self._m_roundtrip = t.histogram(metric_names.ROUNDTRIP_SECONDS)
        self._m_batch = t.histogram(metric_names.PIPE_BATCH_STATEMENTS,
                                    buckets=metric_names.COUNT_BUCKETS)
        self._m_bytes_out = t.counter(metric_names.PIPE_BYTES_SENT)
        self._m_bytes_in = t.counter(metric_names.PIPE_BYTES_RECEIVED)
        self._m_encode = t.histogram(metric_names.PIPE_ENCODE_SECONDS)
        self._m_decode = t.histogram(metric_names.PIPE_DECODE_SECONDS)
        #: Wire variant the worker agreed to (None = pickle-only).  The
        #: parent decodes both unconditionally; this only drives what
        #: the hello frame advertises.
        self.wire_encoding: Optional[str] = None
        self._offer_rowset = os.environ.get("REPRO_WIRE") != "pickle"
        self._started = False
        self._restore()

    # -- DBMSConnection -----------------------------------------------------
    def execute(self, sql: str) -> list[tuple[Value, ...]]:
        if self._proc is None:
            self._restore()
        self._fresh += 1
        t0 = time.monotonic() if self._metered else 0.0
        try:
            reply = self._request({"op": "execute", "sql": sql},
                                  self.config.statement_timeout)
        except _WorkerDied as died:
            raise DBCrash(died.message) from None
        except _DeadlineExceeded:
            self._kill()
            self._m_watchdog.inc()
            raise DBTimeout(
                f"statement exceeded {self.config.statement_timeout:.3g}s "
                f"watchdog deadline: {sql[:120]}") from None
        if self._metered:
            self._m_roundtrip.observe(time.monotonic() - t0)
        rows = self._interpret(reply)
        self._log.append(sql)
        return rows

    def execute_many(self, sqls: list[str]
                     ) -> list[tuple[str, Any]]:
        """Ship a batch of statements in one frame; stream outcomes back.

        Returns one ``(kind, payload)`` outcome per *executed* statement,
        in order: ``("ok", rows)``, ``("error", DBError)``,
        ``("crash", DBCrash)`` or ``("timeout", DBTimeout)``.  The worker
        stops at the first non-ok statement, so the result is a prefix of
        *sqls* whose last element may be the failure; statements after it
        were **never executed** (callers resubmit them if they want to
        continue, which is exactly what sequential ``execute`` calls
        would have done).

        Fault semantics match ``execute`` statement-for-statement: each
        outcome read gets its own watchdog deadline, a missing outcome
        attributes a worker death to the statement in flight, successful
        statements enter the replay log one by one, and the fault-
        schedule offset advances per statement attempted.
        """
        outcomes: list[tuple[str, Any]] = []
        if not sqls:
            return outcomes
        if self._proc is None:
            self._restore()
        self._m_batch.observe(len(sqls))
        try:
            self._send({"op": "execute_many", "sqls": list(sqls)})
        except _WorkerDied as died:
            self._fresh += 1
            outcomes.append(("crash", DBCrash(died.message)))
            return outcomes
        for sql in sqls:
            self._fresh += 1
            t0 = time.monotonic() if self._metered else 0.0
            try:
                reply = self._recv(self.config.statement_timeout)
            except EOFError:
                died = self._reap("read")
                outcomes.append(("crash", DBCrash(died.message)))
                return outcomes
            except _DeadlineExceeded:
                self._kill()
                self._m_watchdog.inc()
                outcomes.append(("timeout", DBTimeout(
                    f"statement exceeded "
                    f"{self.config.statement_timeout:.3g}s watchdog "
                    f"deadline: {sql[:120]}")))
                return outcomes
            if self._metered:
                self._m_roundtrip.observe(time.monotonic() - t0)
            if "ok" in reply:
                self._log.append(sql)
                outcomes.append(("ok", reply["ok"]))
                continue
            if "error" in reply:
                name, message = reply["error"]
                outcomes.append(
                    ("error", _ERROR_TYPES.get(name, DBError)(message)))
                return outcomes
            if "crash" in reply:
                message = reply["crash"]
                self._release(kill=False)
                outcomes.append(("crash", DBCrash(message)))
                return outcomes
            self._kill()
            if "fatal" in reply:
                raise HarnessError(
                    f"worker failed internally:\n{reply['fatal']}")
            raise HarnessError(f"unintelligible worker reply: {reply!r}")
        return outcomes

    def query_plan(self, sql: str) -> list:
        """Forward plan introspection to the worker's target connection.

        Lets plan-coverage guidance drive ``--isolate`` runs.  Unlike
        ``execute``, a successful introspection is *not* appended to the
        replay log (EXPLAIN mutates nothing) and does not advance the
        fault-schedule offset.
        """
        return self._introspect({"op": "query_plan", "sql": sql},
                                "plan introspection", sql)

    def with_plan(self, sql: str, hints) -> Any:
        """Forward a forced-plan execution to the worker's target.

        Follows the ``query_plan`` rules: the forced run is
        introspection, so it is *not* appended to the replay log and
        does not advance the fault-schedule offset — a restart replays
        exactly the statements the unforced stream executed.
        """
        return self._introspect({"op": "with_plan", "sql": sql,
                                 "hints": hints},
                                "forced-plan execution", sql)

    def index_candidates(self, tables: list) -> Any:
        """Forward index enumeration to the worker's target (same
        non-logging rules as ``query_plan``/``with_plan``)."""
        return self._introspect({"op": "index_candidates",
                                 "tables": list(tables)},
                                "index enumeration", repr(tables))

    def _introspect(self, message: dict, what: str, detail: str) -> Any:
        """Shared plumbing for non-logged introspection ops."""
        if self._proc is None:
            self._restore()
        try:
            reply = self._request(message, self.config.statement_timeout)
        except _WorkerDied as died:
            raise DBCrash(died.message) from None
        except _DeadlineExceeded:
            self._kill()
            self._m_watchdog.inc()
            raise DBTimeout(
                f"{what} exceeded {self.config.statement_timeout:.3g}s "
                f"watchdog deadline: {detail[:120]}") from None
        return self._interpret(reply)

    def close(self) -> None:
        """End the target connection and park the worker for reuse.

        The worker closes its target and acks ``reset``; only a worker
        that acked is parked.  Any other reply, or none within the
        deadline, gets it killed and reaped instead.
        """
        if self._proc is None:
            return
        try:
            acked = self._request({"op": "reset"},
                                  _CLOSE_TIMEOUT) == _RESET_ACK
        except Exception:
            # Whatever went wrong, the worker is not known to be clean.
            acked = False
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if acked:
            with _pool_lock:
                _idle.append(proc)
        else:
            _retire(proc, kill=True)

    # -- introspection ------------------------------------------------------
    @property
    def statements_replayed(self) -> int:
        """Length of the state-restoration log (successful statements)."""
        return len(self._log)

    @property
    def worker_pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    # -- recovery -----------------------------------------------------------
    def _restore(self) -> None:
        """(Re)start the worker and replay state, with bounded retries."""
        if self._started:
            # Anything past the constructor's initial spawn is a
            # restart — a crash or watchdog kill already happened.
            self._m_restarts.inc()
        failures = 0
        while True:
            try:
                self._spawn()
                self._replay()
                self._started = True
                return
            except (_WorkerDied, _DeadlineExceeded, EOFError,
                    OSError) as exc:
                self._kill()
                failures += 1
                if failures >= self.config.max_restarts:
                    raise HarnessError(
                        f"target did not survive {failures} restore "
                        f"attempt(s): {exc!r}") from None
                time.sleep(self.config.backoff_base *
                           self.config.backoff_factor ** (failures - 1))

    def _spawn(self) -> None:
        """Send the hello to a parked worker, or to a new one."""
        with _pool_lock:
            self._proc = _idle.pop() if _idle else None
        if self._proc is not None:
            try:
                self._hello()
            except (_WorkerDied, _DeadlineExceeded, EOFError, OSError):
                # A parked worker that cannot take a hello is replaced;
                # that is not a restart and costs no retry budget.
                self._release(kill=True)
            else:
                self._m_reuses.inc()
                return
        t0 = time.monotonic() if self._metered else 0.0
        self._proc = _start_worker()
        self._hello()
        if self._metered:
            self._m_spawn.observe(time.monotonic() - t0)

    def _hello(self) -> None:
        hello = {"op": "hello", "factory": self.factory,
                 "offset": self._fresh}
        if self._offer_rowset:
            hello["wire"] = [wire.ROWSET_NAME]
        reply = self._request(hello, self.config.startup_timeout)
        if not isinstance(reply, dict) or "dialect" not in reply:
            raise _WorkerDied(f"bad handshake reply: {reply!r}")
        self.dialect = reply["dialect"]
        self.wire_encoding = reply.get("wire")

    def _replay(self) -> None:
        if self._metered and self._started:
            self._m_replay.observe(len(self._log))
        for sql in self._log:
            reply = self._request({"op": "replay", "sql": sql},
                                  self.config.statement_timeout)
            if "ok" not in reply:
                # A statement that succeeded before now errors: the
                # target diverged — retrying cannot help.
                raise HarnessError(
                    f"state replay diverged on {sql[:120]!r}: {reply!r}")

    # -- protocol plumbing --------------------------------------------------
    def _request(self, message: dict, timeout: Optional[float]) -> Any:
        self._send(message)
        try:
            return self._recv(timeout)
        except EOFError:
            raise self._reap("read") from None

    def _send(self, message: dict) -> None:
        assert self._proc is not None
        if self._metered:
            t0 = time.monotonic()
            body = wire.dumps(message)
            self._m_encode.observe(time.monotonic() - t0)
            self._m_bytes_out.inc(_HEADER.size + len(body))
        else:
            body = wire.dumps(message)
        try:
            stdin = self._proc.stdin
            stdin.write(_HEADER.pack(len(body)) + body)
            stdin.flush()
        except (BrokenPipeError, OSError):
            raise self._reap("write") from None

    def _interpret(self, reply: Any) -> list[tuple[Value, ...]]:
        if "ok" in reply:
            return reply["ok"]
        if "error" in reply:
            name, message = reply["error"]
            raise _ERROR_TYPES.get(name, DBError)(message)
        if "crash" in reply:
            # The worker announced a simulated crash and is exiting; reap
            # it so the next execute() triggers restore.
            message = reply["crash"]
            self._release(kill=False)
            raise DBCrash(message)
        if "fatal" in reply:
            self._kill()
            raise HarnessError(f"worker failed internally:\n{reply['fatal']}")
        self._kill()
        raise HarnessError(f"unintelligible worker reply: {reply!r}")

    def _recv(self, timeout: Optional[float]) -> Any:
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        header = self._read_deadline(_HEADER.size, deadline)
        (length,) = _HEADER.unpack(header)
        body = self._read_deadline(length, deadline)
        if not self._metered:
            return wire.loads(body)
        self._m_bytes_in.inc(_HEADER.size + length)
        t0 = time.monotonic()
        reply = wire.loads(body)
        self._m_decode.observe(time.monotonic() - t0)
        return reply

    def _read_deadline(self, n: int, deadline: Optional[float]) -> bytes:
        """Read exactly *n* bytes from the worker's stdout before *deadline*.

        Uses the raw file descriptor (never the buffered reader) so
        ``select`` sees exactly what has not been consumed.
        """
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        parts: list[bytes] = []
        got = 0
        while got < n:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise _DeadlineExceeded()
                ready, _, _ = select.select([fd], [], [], remaining)
                if not ready:
                    raise _DeadlineExceeded()
            chunk = os.read(fd, n - got)
            if not chunk:
                raise EOFError("worker closed the pipe")
            parts.append(chunk)
            got += len(chunk)
        return b"".join(parts)

    # -- worker lifecycle ---------------------------------------------------
    def _reap(self, during: str) -> _WorkerDied:
        """The child is gone; collect its exit status into a message."""
        code = self._release(kill=False)
        return _WorkerDied(
            f"target worker died during {during} ({_describe_exit(code)})")

    def _kill(self) -> None:
        self._release(kill=True)

    def _release(self, kill: bool) -> Optional[int]:
        """Reap this connection's worker, never to be parked."""
        proc, self._proc = self._proc, None
        return None if proc is None else _retire(proc, kill)


# -- the worker pool -----------------------------------------------------------
#: Deadline for a worker to ack ``reset``, or to exit once told to.
_CLOSE_TIMEOUT = 5.0
#: The worker's reply to ``reset``; nothing else gets a worker parked.
_RESET_ACK = {"reset": "ok"}

_pool_lock = threading.Lock()
#: Workers that acked ``reset`` and wait for their next hello.
_idle: list[subprocess.Popen] = []
#: Every worker this process started and has not reaped, parked or in
#: use; the exit hook closes them all.
_live: set[subprocess.Popen] = set()


def _start_worker() -> subprocess.Popen:
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_dir if not existing
                         else src_dir + os.pathsep + existing)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.adapters.subprocess_worker"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, env=env)
    with _pool_lock:
        _live.add(proc)
    return proc


def _retire(proc: subprocess.Popen, kill: bool) -> Optional[int]:
    """Kill *proc* if asked, reap it and close its pipes; return its
    exit status.  One that outlives the close deadline is killed."""
    if kill:
        proc.kill()
    try:
        code = proc.wait(timeout=_CLOSE_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        code = proc.wait()
    _close_pipes(proc)
    with _pool_lock:
        _live.discard(proc)
    return code


def _close_all_workers() -> None:
    """At interpreter exit: tell every worker still held to exit, parked
    or in use, then reap it, so none is left for init to collect."""
    with _pool_lock:
        procs = list(_live)
        _idle.clear()
    for proc in procs:
        try:
            write_frame(proc.stdin, {"op": "close"})
        except (OSError, ValueError):
            pass  # already gone; the wait below reaps it
    for proc in procs:
        _retire(proc, kill=False)


def _forget_workers() -> None:
    """In a forked child: the parent's workers are not this process's to
    close, so drop them without writing to their pipes."""
    global _pool_lock
    _pool_lock = threading.Lock()
    _idle.clear()
    _live.clear()


atexit.register(_close_all_workers)
os.register_at_fork(after_in_child=_forget_workers)


def _close_pipes(proc: subprocess.Popen) -> None:
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def _describe_exit(code: Optional[int]) -> str:
    if code is None:
        return "exit status unknown"
    if code < 0:
        try:
            name = signal.Signals(-code).name
        except ValueError:
            name = f"signal {-code}"
        return f"killed by {name}"
    return f"exit code {code}"
