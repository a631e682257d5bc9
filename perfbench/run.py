"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload defect-campaign --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The workloads, metrics and the
predictions they serve are described in ``perfbench/README.md``.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run instead.  Lines above it are the human-readable
report.  Every run also writes ``perfbench/out/<workload>-seed<N>-
trace<T>.json`` (and, when traced, the spans as ``.spans.jsonl.gz``),
stamped with the commit, Python version, platform, CPU count and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              f"missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report, tracer = measure(workload, args.seed, args.seconds,
                             bool(args.trace))
    print_report(report, tracer)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(stem.with_suffix(".spans.jsonl.gz"))
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2)
                                         + "\n")
    print(f"artifact: {stem.with_suffix('.json').relative_to(ROOT)}")
    metrics = report["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": all(c["ok"] for c in report["checks"]),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run the workload; return the report and the tracer (or None)."""
    import workloads
    from tracing import Tracer

    tracer = Tracer() if trace else None
    batches = workloads.run_blocks(workload, seed, seconds, tracer)
    rss_mb = peak_rss_mb(children=workload.name == "isolated-hunt")
    # Traced work repeats untraced work, so outcomes count untraced
    # batches only; attempted and failed count everything that ran.
    plain = [b for b in batches if not b.traced]
    if workload.campaign:
        rounds = [r for u in batches for r in u.rounds]
        plain_rounds = [r for u in plain for r in u.rounds]
        wall = sum(u.wall for u in plain)
        clean_findings = sum(u.unattributed for u in plain)
        attempted = workloads.CAMPAIGN_DATABASES * len(batches)
        failed = sum(r.failed for r in rounds) + sum(
            workloads.CAMPAIGN_DATABASES - len(u.rounds)
            for u in batches if u.error)
        errors = [u.error for u in batches if u.error]
    else:
        rounds, plain_rounds = batches, plain
        wall = sum(r.seconds for r in plain)
        clean_findings = sum(len(r.findings) for r in plain)
        attempted = len(rounds)
        failed = sum(r.failed for r in rounds)
        errors = [r.error for r in rounds if r.error]
    queries = sum(r.queries for r in plain_rounds)
    latencies = [r.seconds * 1e3 for r in plain_rounds]
    detect_queries, detect_seconds = detection(plain_rounds)
    detected = sorted({b for r in plain_rounds for b in r.detected})
    outcome = {
        "round_ms_p90": (percentile(latencies, 90), "ms"),
        "failed_share": (failed / attempted, "ratio"),
        "clean_findings": (clean_findings, "count"),
        "defects_found": (len(detected), "count"),
        "detect_queries_rmean": (detect_queries, "queries"),
        "detect_s_rmean": (detect_seconds, "s"),
    }
    checks = correctness(workload, seed, batches, trace)
    end_to_end = {
        "queries_per_s": (queries / wall, "q/s"),
        "round_ms_p50": (statistics.median(latencies), "ms"),
        "setup_s": (setup_seconds(workload.name), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report = {
        "provenance": provenance(seed),
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "work": {"rounds": len(rounds),
                 "untraced_rounds": len(plain_rounds),
                 "statements": sum(r.statements for r in plain_rounds),
                 "queries": queries,
                 "findings": sum(len(r.findings) for r in plain_rounds)},
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:3],
        "checks": checks,
        "end_to_end": end_to_end,
        "outcome": outcome,
    }
    if workload.campaign:
        report["detected"] = detected
    if tracer is not None:
        pipe_us, differ = workloads.pipe_probe(seed)
        checks.append(check("probe_isolation_transparent", differ,
                            "in-process and isolated probe rounds agree"))
        traced_rate = traced_queries_per_s(workload, batches)
        report["per_layer"] = per_layer(
            tracer, pipe_us, traced_rate, queries / wall, outcome,
            batches if workload.campaign else None)
    return report, tracer


def detection(rounds) -> tuple[float, float]:
    """Mean over the catalog's defects of queries and hunt seconds up to
    and including the round that first produced a report attributed to
    each; an undetected defect counts as the whole hunt."""
    from repro.minidb.bugs import BUG_CATALOG

    total_queries = sum(r.queries for r in rounds)
    total_seconds = sum(r.seconds for r in rounds)
    first: dict[str, tuple[int, float]] = {}
    queries = seconds = 0
    for record in rounds:
        queries += record.queries
        seconds += record.seconds
        for bug_id in record.detected:
            first.setdefault(bug_id, (queries, seconds))
    costs = [first.get(bug_id, (total_queries, total_seconds))
             for bug_id in BUG_CATALOG]
    return (statistics.fmean(q for q, _ in costs),
            statistics.fmean(s for _, s in costs))


def correctness(workload, seed: int, batches, trace: bool) -> list[dict]:
    import workloads

    checks = []
    if trace:
        plain = {b.index: b.outcome() for b in batches if not b.traced}
        twins = [(b.index, plain.get(b.index), b.outcome())
                 for b in batches if b.traced]
        checks.append(check(
            "traced_identical",
            [f"{i}: untraced {a!r} != traced {b!r}" for i, a, b in twins
             if a != b],
            f"{len(twins)} traced {'campaign(s)' if workload.campaign else 'round(s)'}"
            f" give the same statements, queries and findings as untraced"))
    pairs = workload.rerun(seed, batches)
    differ = [f"{'unit' if workload.campaign else 'round'} {i}: "
              f"{a!r} != {b!r}" for i, (a, b) in enumerate(pairs) if a != b]
    checks.append(check(
        "rerun_identical", differ,
        f"{len(pairs)} {'campaign(s)' if workload.campaign else 'round(s)'}"
        f" re-run untraced{' in process' if workload.name == 'isolated-hunt' else ''}"
        f" give the same statements, queries and findings"))
    work = (sum(r.queries for u in batches for r in u.rounds)
            if workload.campaign else sum(r.queries for r in batches))
    checks.append(check("queries_checked",
                        [] if work > 0 else ["no query was checked"],
                        f"{work} queries checked"))
    if workload.campaign:
        checks.append(check(
            "detections_attributed", workloads.attribution_failures(batches),
            f"{sum(len(u.kept) for u in batches)} kept report(s) attributed "
            f"to a catalog defect, re-checked on fresh MiniDB targets"))
    return checks


def check(name: str, problems: list[str], detail: str) -> dict:
    return {"name": name, "ok": not problems, "detail": detail,
            "problems": problems[:5]}


def traced_queries_per_s(workload, batches) -> float:
    traced = [b for b in batches if b.traced]
    if workload.campaign:
        return (sum(r.queries for u in traced for r in u.rounds)
                / sum(u.wall for u in traced))
    return sum(r.queries for r in traced) / sum(r.seconds for r in traced)


def per_layer(tracer, pipe_us: float, traced_rate: float, plain_rate: float,
              outcome: dict, units) -> dict:
    from tracing import CONTAINERS, LAYERS

    wall = tracer.traced_wall()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls.get(layer, 0), "count")
        metrics[f"{layer}.self_pct"] = (
            100 * tracer.self_s.get(layer, 0.0) / wall, "%")
    unattributed = sum(tracer.self_s.get(name, 0.0) for name in CONTAINERS)
    parse_calls = tracer.calls.get("minidb.parse", 0)
    metrics.update({
        "bench.unattributed_pct": (100 * unattributed / wall, "%"),
        "bench.trace_overhead_pct": (
            100 * (traced_rate - plain_rate) / plain_rate, "%"),
        "core.round.calls": (tracer.calls.get("core.round", 0), "count"),
        "gc.pause_pct": (100 * tracer.gc_s / wall, "%"),
        "gc.gen2.calls": (counts["gc.gen2"], "count"),
        "adapters.execute_many.statements": (
            counts["execute_many.statements"], "count"),
        "adapters.ok_ratio": (counts["ok"] / max(counts["statements"], 1),
                              "ratio"),
        "adapters.pipe_us_per_stmt": (pipe_us, "us"),
        "minidb.parse.repeat_ratio": (
            counts["parse.repeats"] / max(parse_calls, 1), "ratio"),
        "core.synthesize.yield": (
            counts["synthesize.queries"]
            / max(counts["synthesize.attempts"], 1), "ratio"),
        "campaigns.reports_kept_ratio": (
            sum(len(u.kept) for u in units)
            / max(sum(u.raw_reports for u in units), 1)
            if units else 0.0, "ratio"),
    })
    metrics.update(outcome)
    return metrics


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, plus the largest finished
    child (the isolated worker) when *children* is set."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def setup_seconds(name: str) -> float:
    """Median set-up time over fresh processes (``setup_probe.py``)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            capture_output=True, text=True, env=env, timeout=120,
            check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def provenance(seed: int) -> dict:
    return {"commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(),
            "platform": platform.platform(), "cpus": os.cpu_count(),
            "seed": seed}


def git_commit():
    """HEAD's commit read from ``.git`` directly, or None outside a
    git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the measured program's sources, so artifacts from
    checkouts without git still say which code they measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def print_report(report: dict, tracer) -> None:
    p = report["provenance"]
    work = report["work"]
    print(f"perfbench {report['workload']}  seed={p['seed']}  "
          f"seconds={report['seconds']:g}  trace={int(report['trace'])}")
    print(f"provenance: commit={p['commit']}  source={p['source_sha256']}  "
          f"python={p['python']}  cpus={p['cpus']}  {p['platform']}")
    print(f"work: {work['rounds']} rounds, {work['untraced_rounds']} of "
          f"them untraced with {work['statements']} statements, "
          f"{work['queries']} queries, {work['findings']} findings; "
          f"{report['failed']} of {report['attempted']} rounds failed")
    if "detected" in report:
        print(f"detected: {', '.join(report['detected']) or '-'}")
    print("end to end (untraced rounds):")
    for name, (value, unit) in {**report["end_to_end"],
                                **report["outcome"]}.items():
        print(f"  {name:<24} {value:>14.4f} {unit}")
    if tracer is not None:
        wall = tracer.traced_wall()
        print(f"per layer (traced rounds, {wall:.3f} s wall):")
        print(f"  {'layer':<24} {'calls':>9} {'self_s':>10} {'share':>8}")
        from tracing import LAYERS

        for layer in LAYERS:
            print(f"  {layer:<24} {tracer.calls.get(layer, 0):>9} "
                  f"{tracer.self_s.get(layer, 0.0):>10.4f} "
                  f"{100 * tracer.self_s.get(layer, 0.0) / wall:>7.2f}%")
        for name, (value, unit) in report["per_layer"].items():
            if not name.endswith((".calls", ".self_pct")) \
                    and name not in report["outcome"]:
                print(f"  {name:<34} {value:>12.4f} {unit}")
    for c in report["checks"]:
        print(f"check {c['name']}: {'PASS' if c['ok'] else 'FAIL'} - "
              f"{c['detail']}")
        for problem in c["problems"]:
            print(f"    {problem[:300]}")
    for error in report["errors"]:
        print(f"failed round:\n{error}")


if __name__ == "__main__":
    sys.exit(main())
