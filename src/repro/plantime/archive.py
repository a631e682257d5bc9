"""The persistent per-plan timing archive.

A :class:`TimingArchive` is the cross-campaign memory of the optimizer
observatory: for every (query shape, plan) pair it keeps the fastest
elapsed time ever observed and how many observations contributed.
Merging two archives — across rounds, across campaign
workers, across whole campaigns — is a min-merge on elapsed times and a
sum on sample counts, the same commutative/associative discipline as
:class:`~repro.guidance.coverage.PlanCoverage`, so archives are
schedule-independent and resume-exact.

Persistence is deterministic JSONL: a header line followed by one
record per shape, shapes and plans sorted, compact separators, sorted
keys.  Two archives with the same content serialize to the same bytes —
the property the resume and parallel-merge acceptance tests pin down.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional

from repro.errors import PQSError

ARCHIVE_FORMAT = "pqs-plantime"
ARCHIVE_VERSION = 1


def plan_key(fingerprint: str, hints: Optional[dict]) -> str:
    """Archive key for one plan of a shape.

    The plan fingerprint already encodes the operator tree, but the
    multiplan oracle treats an analyzed and unanalyzed run of the same
    tree as distinct candidates (stats change cost, not shape), so the
    key carries that one bit too.
    """
    if hints and hints.get("analyze"):
        return f"{fingerprint}@analyzed"
    return fingerprint


class TimingArchive:
    """Min-merged per-(shape, plan) timing model."""

    def __init__(self):
        #: shape -> {"sql": str, "plans": {key: plan dict}}
        self._shapes: dict[str, dict] = {}

    # -- accumulation --------------------------------------------------------
    def observe(self, shape: str, sql: str, plans: Iterable[dict]) -> None:
        """Fold one timed query into the model.

        *plans* are collector-format dicts: ``{"fingerprint", "hints",
        "rows", "elapsed_us"}``.
        """
        entry = self._shapes.setdefault(shape, {"sql": sql, "plans": {}})
        for plan in plans:
            key = plan_key(plan.get("fingerprint", ""),
                           plan.get("hints"))
            known = entry["plans"].get(key)
            if known is None:
                entry["plans"][key] = {
                    "fingerprint": plan.get("fingerprint", ""),
                    "hints": dict(plan.get("hints") or {}),
                    "rows": int(plan.get("rows", 0)),
                    "elapsed_us": float(plan.get("elapsed_us", 0.0)),
                    "samples": 1,
                }
            else:
                known["elapsed_us"] = min(
                    known["elapsed_us"], float(plan.get("elapsed_us", 0.0)))
                known["samples"] += 1

    def absorb_outcome(self, outcome: dict) -> None:
        """Fold one journal-round plantime outcome (collector format)."""
        for query in outcome.get("queries", ()):
            self.observe(query.get("shape", ""), query.get("sql", ""),
                         query.get("plans", ()))

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[dict]) -> "TimingArchive":
        archive = cls()
        for outcome in outcomes:
            archive.absorb_outcome(outcome)
        return archive

    def merge(self, other: "TimingArchive") -> None:
        for shape, entry in other._shapes.items():
            mine = self._shapes.setdefault(
                shape, {"sql": entry["sql"], "plans": {}})
            for key, plan in entry["plans"].items():
                known = mine["plans"].get(key)
                if known is None:
                    mine["plans"][key] = dict(plan)
                else:
                    known["elapsed_us"] = min(
                        known["elapsed_us"], plan["elapsed_us"])
                    known["samples"] += plan["samples"]

    # -- queries -------------------------------------------------------------
    def shapes(self) -> list[str]:
        return sorted(self._shapes)

    def __len__(self) -> int:
        return len(self._shapes)

    def sql_for(self, shape: str) -> str:
        entry = self._shapes.get(shape)
        return entry["sql"] if entry else ""

    def plans_for(self, shape: str) -> dict[str, dict]:
        entry = self._shapes.get(shape)
        return dict(entry["plans"]) if entry else {}

    def slowdown(self, shape: str) -> Optional[float]:
        """Baseline elapsed / best forced elapsed for one shape, or
        ``None`` when either side is missing or degenerate."""
        entry = self._shapes.get(shape)
        if not entry:
            return None
        baseline = None
        best_forced = None
        for plan in entry["plans"].values():
            if plan["hints"]:
                if best_forced is None or plan["elapsed_us"] < best_forced:
                    best_forced = plan["elapsed_us"]
            else:
                baseline = plan["elapsed_us"]
        if baseline is None or best_forced is None or best_forced <= 0:
            return None
        return round(baseline / best_forced, 3)

    def regressions(self, ratio: float = 1.5) -> list[dict]:
        """Shapes whose baseline plan is at least *ratio* slower than the
        best forced alternative, worst first."""
        found = []
        for shape in self.shapes():
            slowdown = self.slowdown(shape)
            if slowdown is not None and slowdown >= ratio:
                found.append({"shape": shape,
                              "sql": self._shapes[shape]["sql"],
                              "slowdown": slowdown})
        found.sort(key=lambda item: (-item["slowdown"], item["shape"]))
        return found

    # -- persistence ---------------------------------------------------------
    def to_lines(self) -> list[str]:
        """Deterministic JSONL serialization (header + sorted shapes)."""
        lines = [json.dumps(
            {"kind": "header", "format": ARCHIVE_FORMAT,
             "version": ARCHIVE_VERSION, "shapes": len(self._shapes)},
            sort_keys=True, separators=(",", ":"))]
        for shape in self.shapes():
            entry = self._shapes[shape]
            record = {
                "kind": "shape",
                "shape": shape,
                "sql": entry["sql"],
                "plans": {key: entry["plans"][key]
                          for key in sorted(entry["plans"])},
            }
            lines.append(json.dumps(
                record, sort_keys=True, separators=(",", ":")))
        return lines

    def dump(self, path) -> None:
        Path(path).write_text(
            "\n".join(self.to_lines()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "TimingArchive":
        target = Path(path)
        if not target.exists():
            raise PQSError(f"timing archive not found: {target}")
        archive = cls()
        lines = target.read_text(encoding="utf-8").splitlines()
        if not lines:
            raise PQSError(f"timing archive is empty: {target}")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise PQSError(
                f"timing archive has a malformed header: {target}") from exc
        if (header.get("kind") != "header"
                or header.get("format") != ARCHIVE_FORMAT):
            raise PQSError(
                f"not a {ARCHIVE_FORMAT} archive: {target}")
        for line in lines[1:]:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("kind") != "shape":
                continue
            shape = record.get("shape", "")
            entry = archive._shapes.setdefault(
                shape, {"sql": record.get("sql", ""), "plans": {}})
            for key, plan in record.get("plans", {}).items():
                entry["plans"][key] = {
                    "fingerprint": plan.get("fingerprint", ""),
                    "hints": dict(plan.get("hints") or {}),
                    "rows": int(plan.get("rows", 0)),
                    "elapsed_us": float(plan.get("elapsed_us", 0.0)),
                    "samples": int(plan.get("samples", 1)),
                }
        return archive
