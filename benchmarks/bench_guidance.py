"""Plan-coverage guidance: guided vs unguided plan discovery.

Ba & Rigger's query-plan-guidance work reports that steering generation
toward unseen query plans uncovers substantially more distinct plans at
the same query budget.  We reproduce the comparison on MiniDB: the same
campaign (equal query budget, fixed seeds) run twice per seed —

* **unguided**: the stock PQS loop, with *passive* plan tracking only
  (``feedback=False`` observes plans without perturbing generation, so
  the statement stream is bit-identical to a run without the subsystem);
* **guided**: the feedback scheduler enriching every round with an
  index/ANALYZE-heavy mutation burst and re-extending state lineages
  that produced novel plans.

The acceptance bar is a >= 1.5x mean ratio of distinct plan
fingerprints, recorded in ``results/guidance.json``.
"""

import json
import os

from _shared import RESULTS_DIR

from repro.campaigns.campaign import Campaign, CampaignConfig

SEEDS = (5, 7, 11, 13, 42, 99)
DATABASES = 200  # 200 rounds x ~20 queries = ~4,000 queries per run


def coverage_for(seed: int, guided: bool) -> tuple[int, int]:
    """Distinct plan fingerprints and queries for one campaign run.

    The defect catalog is disabled (``bug_ids=[]``) so no round is cut
    short by a bug report — both modes then consume the exact same
    query budget and the comparison is purely about plan discovery.
    """
    # Unguided runs track plans passively through a coverage path; the
    # dump itself is discarded.
    config = CampaignConfig(seed=seed, databases=DATABASES,
                            reduce=False, bug_ids=[], guidance=guided,
                            plan_coverage=None if guided else os.devnull)
    result = Campaign(config).run()
    return result.plan_coverage.distinct, result.stats.queries


def test_guidance_discovers_more_plans():
    """Emit ``guidance.json`` and assert the >= 1.5x mean-ratio bar.

    Runs without the pytest-benchmark fixture so the CI smoke job can
    execute it standalone.
    """
    artifact: dict = {"databases": DATABASES, "seeds": list(SEEDS),
                      "runs": [], "mean_ratio": None}

    ratios = []
    for seed in SEEDS:
        unguided, unguided_queries = coverage_for(seed, guided=False)
        guided, guided_queries = coverage_for(seed, guided=True)
        # The nominal budget (databases x pivots x queries) is equal;
        # the consumed count can drift by a round's worth when a state
        # ends up with no selectable pivot.  Keep the drift negligible
        # and compare on the per-1k-queries rate.
        assert abs(guided_queries - unguided_queries) <= \
            0.05 * unguided_queries, "query budgets diverged"
        per_1k_unguided = 1000 * unguided / unguided_queries
        per_1k_guided = 1000 * guided / guided_queries
        ratio = per_1k_guided / per_1k_unguided
        ratios.append(ratio)
        artifact["runs"].append({
            "seed": seed,
            "unguided_queries": unguided_queries,
            "guided_queries": guided_queries,
            "unguided_distinct_plans": unguided,
            "guided_distinct_plans": guided,
            "unguided_plans_per_1k_queries": round(per_1k_unguided, 2),
            "guided_plans_per_1k_queries": round(per_1k_guided, 2),
            "ratio": round(ratio, 3),
        })

    mean_ratio = sum(ratios) / len(ratios)
    artifact["mean_ratio"] = round(mean_ratio, 3)

    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "guidance.json"
    path.write_text(json.dumps(artifact, indent=2) + "\n")
    print(f"wrote {path}")
    print(json.dumps(artifact, indent=2))

    for run in artifact["runs"]:
        assert run["guided_distinct_plans"] > \
            run["unguided_distinct_plans"], run
    assert mean_ratio >= 1.5, \
        f"guided/unguided mean ratio {mean_ratio:.2f} below 1.5x bar"
