"""Optimizer observatory: timing cost and regression-detection checks.

The plan-timing collector (DESIGN.md §13) rides inside the multiplan
oracle and re-executes every distinct plan to build a per-(shape, plan)
timing archive.  This bench measures and pins down:

* **timing overhead** — wall-clock of the same multiplan campaign with
  and without ``plan_timing`` (the extra cost is the min-of-k
  re-executions; the statement stream is identical, which the campaign
  tests already pin byte-for-byte);
* **archive reach** — how many query shapes and distinct plans one
  short campaign archives;
* **self-compare stability** — ``compare_archives(a, a)`` must put
  nothing in ``new``/``fixed``/``worsened`` (the CI gate relies on a
  self-compare exiting zero);
* **seeded-regression detection** — a copy of the archive with one
  shape's baseline timing degraded 10x must be classified as a ``new``
  or ``worsened`` regression, deterministically.

Results land in ``results/plantime.json``.
"""

import json
import time

from _shared import RESULTS_DIR

from repro.campaigns.campaign import Campaign, CampaignConfig
from repro.core.runner import RunnerConfig
from repro.plantime import TimingArchive, compare_archives

BUG = "sqlite-forced-index-fencepost"
SEED = 0
DATABASES = 4
SLOWDOWN_FACTOR = 10.0


def _campaign(plan_timing: bool):
    config = CampaignConfig(
        dialect="sqlite", seed=SEED, databases=DATABASES,
        bug_ids=[BUG], reduce=False,
        runner=RunnerConfig(multiplan=True, plan_timing=plan_timing))
    t0 = time.perf_counter()
    result = Campaign(config).run()
    return result, time.perf_counter() - t0


def _seed_slowdown(archive: TimingArchive,
                   tmp_path) -> tuple[TimingArchive, str]:
    """A copy of *archive* whose first scoreable shape has its baseline
    plan degraded by ``SLOWDOWN_FACTOR`` — the synthetic analogue of a
    planner update mispricing one query shape."""
    lines = archive.to_lines()
    target_shape = None
    doctored = [lines[0]]
    for line in lines[1:]:
        record = json.loads(line)
        if target_shape is None:
            baselines = [p for p in record["plans"].values()
                         if not p["hints"]]
            forced = [p for p in record["plans"].values() if p["hints"]]
            if baselines and forced:
                target_shape = record["shape"]
                for plan in record["plans"].values():
                    if not plan["hints"]:
                        plan["elapsed_us"] = round(
                            plan["elapsed_us"] * SLOWDOWN_FACTOR, 2)
        doctored.append(json.dumps(record, sort_keys=True,
                                   separators=(",", ":")))
    assert target_shape is not None, "no scoreable shape in the archive"
    path = tmp_path / "plantime-doctored.jsonl"
    path.write_text("\n".join(doctored) + "\n")
    return TimingArchive.load(path), target_shape


def test_plantime_archives_and_detects_seeded_regression(tmp_path):
    """Emit ``plantime.json``; assert the observatory's core claims."""
    RESULTS_DIR.mkdir(exist_ok=True)

    untimed, untimed_seconds = _campaign(plan_timing=False)
    timed, timed_seconds = _campaign(plan_timing=True)
    archive = timed.timing_archive
    assert archive is not None and len(archive) > 0
    assert timed.stats.plantime_queries > 0
    assert untimed.stats.plantime_queries == 0

    plan_count = sum(len(archive.plans_for(shape))
                     for shape in archive.shapes())

    self_compare = compare_archives(archive, archive)
    assert self_compare["new"] == []
    assert self_compare["fixed"] == []
    assert self_compare["worsened"] == []

    doctored, target_shape = _seed_slowdown(archive, tmp_path)
    detection = compare_archives(archive, doctored)
    flagged = [entry["shape"]
               for entry in detection["new"] + detection["worsened"]]
    assert target_shape in flagged, \
        f"seeded 10x slowdown on {target_shape} was not classified " \
        f"as new/worsened (flagged: {flagged})"
    # Determinism: the same pair of archives classifies identically.
    again = compare_archives(archive, doctored)
    assert json.dumps(detection, sort_keys=True) == \
        json.dumps(again, sort_keys=True)

    artifact = {
        "campaign": {"seed": SEED, "databases": DATABASES, "bug": BUG},
        "overhead": {
            "untimed_seconds": round(untimed_seconds, 3),
            "timed_seconds": round(timed_seconds, 3),
            "ratio": round(timed_seconds / untimed_seconds, 2)
            if untimed_seconds > 0 else None,
        },
        "archive": {
            "shapes": len(archive),
            "plans": plan_count,
            "queries_timed": timed.stats.plantime_queries,
        },
        "self_compare": {bucket: len(self_compare[bucket])
                         for bucket in ("new", "fixed", "worsened",
                                        "ongoing")},
        "seeded_regression": {
            "shape": target_shape,
            "factor": SLOWDOWN_FACTOR,
            "detected": True,
            "bucket": "new" if any(e["shape"] == target_shape
                                   for e in detection["new"])
            else "worsened",
        },
    }
    path = RESULTS_DIR / "plantime.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {path}")
    print(json.dumps(artifact, indent=2))
