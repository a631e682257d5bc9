"""The seen-fingerprint set behind plan-coverage guidance.

A :class:`PlanCoverage` records every distinct plan fingerprint observed
during a campaign, with one example query per fingerprint (the first
query that produced it — invaluable when triaging what a fingerprint
*means*).  It round-trips through JSON so:

* journaled campaigns persist per-round novel plans and ``--resume``
  rebuilds the seen-set without re-running rounds;
* a multi-threaded :class:`~repro.campaigns.campaign.Campaign` merges
  per-worker coverage into one campaign-wide set;
* ``hunt --plan-coverage PATH`` dumps the final set for offline
  analysis.
"""

from __future__ import annotations

import json
from typing import Optional


class PlanCoverage:
    """Insertion-ordered map of plan fingerprint -> example query."""

    def __init__(self) -> None:
        self._seen: dict[str, str] = {}

    def observe(self, fingerprint: str, example: str = "") -> bool:
        """Record one observation; True when the plan is novel."""
        if fingerprint in self._seen:
            return False
        self._seen[fingerprint] = example
        return True

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._seen

    def __len__(self) -> int:
        return len(self._seen)

    @property
    def distinct(self) -> int:
        return len(self._seen)

    def example(self, fingerprint: str) -> Optional[str]:
        return self._seen.get(fingerprint)

    def fingerprints(self) -> list[str]:
        return list(self._seen)

    def merge(self, other: "PlanCoverage") -> int:
        """Fold *other* in; returns how many fingerprints were new."""
        added = 0
        for fp, example in other._seen.items():
            if self.observe(fp, example):
                added += 1
        return added

    # -- persistence --------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "distinct": self.distinct,
            "plans": [{"fingerprint": fp, "example": example}
                      for fp, example in self._seen.items()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlanCoverage":
        coverage = cls()
        for entry in data.get("plans", []):
            coverage.observe(entry["fingerprint"],
                             entry.get("example", ""))
        return coverage

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PlanCoverage":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
