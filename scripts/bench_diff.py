#!/usr/bin/env python3
"""Compare bench JSON artifacts against committed baselines.

Each bench binary emits one JSON object per line on stdout (see
bench/bench_*.cc); committed reference numbers live in bench/baselines/.
This script matches rows by their identity keys (bench, workload, workers,
batch, queries, sharing, async, pin, format, parsers)
and reports throughput / tail-latency ratios.

Rows also record the CPU count of the recording box ("cpus") as a fact,
not an identity key. When a *parallel* row (workers>1, parsers>1, or
async/pin on) was recorded on a box with a different CPU count than the
baseline's, its throughput thresholds are skipped: parallel speedups are
a property of core count, and comparing a 4-core recording against a
1-core runner would flag hardware, not code. Ratios are still printed
for the record, marked "(cpus N vs M, threshold skipped)".

Two classes of check, with different teeth:

 - *Hard* (exit 1, gates CI): machine-independent integer facts must
   match the baseline exactly — stream sizes and plan shape (edges, ops,
   shared_subtrees, cross_query_shared, labels) on every row, and result
   counts (results, results_total) on sequential rows. A mismatch means
   the workload or the answer changed, not the hardware. Baseline rows
   the run no longer produces (GONE) are also hard: a silently dropped
   bench is a gap, not noise. Rows with no baseline yet (NEW) are
   informational — they gate once a baseline is committed.
 - *Soft* (reported, non-blocking unless --strict): throughput and
   latency ratios. Machine-to-machine variance makes a hard wall-clock
   gate meaningless; regressions beyond the soft threshold are surfaced
   in the log and the --github-summary table but do not fail the build.
   Parallel rows' result counts drift with merge timing, so they are
   excluded from the hard result-parity check.

Closes the ROADMAP item "Track bench JSON across PRs" — the comparison
that used to be manual artifact-diffing is now one command:

    python3 scripts/bench_diff.py BENCH_state_hot.json \
        --baseline bench/baselines/BENCH_state_hot.json

Baselines are refreshed deliberately (copy the run output over the
baseline file in the same PR that changes the performance), so the diff
always reads "this PR vs the last recorded decision".
"""

import argparse
import json
import sys

IDENTITY_KEYS = ("bench", "workload", "workers", "batch", "queries",
                 "sharing", "async", "pin", "format", "parsers")
# Higher is better / lower is better metrics, with their soft thresholds.
HIGHER_BETTER = {"tuples_per_sec": 0.8, "parse_tuples_per_sec": 0.8}
# ops_touched_per_edge is near-deterministic (driver-side dispatch counts,
# not wall clock), so a growth past 1.2x means the query index stopped
# pruning dispatches — a real fanout regression, not runner noise.
LOWER_BETTER = {"p99_slide_seconds": 1.5, "state_bytes": 1.5,
                "ops_touched_per_edge": 1.2}
# Machine-independent integer facts, gated by exact equality (exit 1).
# Structural facts hold on every row; result counts only on sequential
# rows (parallel merges emit timing-dependent coalesced counts).
HARD_STRUCTURAL = ("edges", "ops", "shared_subtrees", "cross_query_shared",
                   "labels")
HARD_SEQUENTIAL_RESULTS = ("results", "results_total")
# Informational fields the emitters record alongside the identity keys and
# thresholded metrics. Anything outside all three sets is reported once as
# "unknown keys ignored" — usually a newer bench emitting a field this
# copy of the script predates; matching and thresholds still work.
FACT_KEYS = frozenset((
    "cpus", "edges", "elapsed_seconds", "results", "results_total",
    "state_entries", "state_bytes", "ingest_stall_ns", "exec_stall_ns",
    "merge_stall_ns", "parser_stall_ns", "readahead_stall_ns",
    "parse_busy_ns", "speedup_vs_1", "speedup_vs_unshared",
    "speedup_async_vs_sync", "parse_speedup_vs_csv_sync",
    "emission_ratio", "ops", "shared_subtrees",
    "cross_query_shared", "labels", "index_skipped_dispatches",
    "checkpoint_write_ns", "checkpoint_bytes",
))


def load_rows(path, unknown_keys=None):
    """Parses one JSON-per-line bench artifact into {identity-key: row}.

    Fail-soft by design: a missing or unreadable file warns once and
    contributes zero rows (the diff then reports NEW/GONE as appropriate),
    and malformed lines are skipped individually — a half-written baseline
    never aborts the comparison.
    """
    rows = {}
    try:
        f = open(path)
    except OSError as e:
        print(f"bench_diff: warning: skipping {path} "
              f"({e.strerror or e}); rows from it treated as absent",
              file=sys.stderr)
        return rows
    with f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"{path}:{line_no}: skipping non-JSON line ({e})",
                      file=sys.stderr)
                continue
            if not isinstance(row, dict):
                print(f"{path}:{line_no}: skipping non-object JSON row",
                      file=sys.stderr)
                continue
            if unknown_keys is not None:
                unknown_keys.update(
                    k for k in row
                    if k not in IDENTITY_KEYS and k not in HIGHER_BETTER
                    and k not in LOWER_BETTER and k not in FACT_KEYS)
            key = tuple((k, row[k]) for k in IDENTITY_KEYS if k in row)
            rows[key] = row
    return rows


def fmt_key(key):
    return " ".join(f"{k}={v}" for k, v in key)


def is_parallel(row):
    """Whether the row's throughput depends on the recording box's cores."""
    return (row.get("workers", 1) > 1 or row.get("parsers", 1) > 1 or
            row.get("async") == 1 or row.get("pin") == 1)


def hard_facts(row):
    """The (name, value) facts of a row that must match exactly."""
    facts = [(k, row[k]) for k in HARD_STRUCTURAL if k in row]
    if not is_parallel(row):
        facts += [(k, row[k]) for k in HARD_SEQUENTIAL_RESULTS if k in row]
    return facts


def compare(current, baseline):
    regressions = []
    hard_failures = []
    for key, row in sorted(current.items()):
        base = baseline.get(key)
        if base is None:
            print(f"  NEW      {fmt_key(key)} (no baseline row)")
            continue
        for fact, value in hard_facts(row):
            old = base.get(fact)
            if old is not None and value != old:
                hard_failures.append(
                    (key, f"{fact} {value} != baseline {old}"))
        # Parallel speedups are a property of core count: when the
        # recording boxes differ, throughput floors would flag hardware,
        # not code. Report the ratio, skip the threshold.
        cpus, base_cpus = row.get("cpus"), base.get("cpus")
        cpus_mismatch = (cpus is not None and base_cpus is not None and
                         cpus != base_cpus and is_parallel(row))
        parts = []
        for metric, floor in HIGHER_BETTER.items():
            cur, old = row.get(metric), base.get(metric)
            if not cur or not old:
                continue
            ratio = cur / old
            if cpus_mismatch:
                parts.append(f"{metric} {ratio:.2f}x (cpus {cpus} vs "
                             f"{base_cpus}, threshold skipped)")
                continue
            parts.append(f"{metric} {ratio:.2f}x")
            if ratio < floor:
                regressions.append((key, metric, ratio))
        for metric, ceil in LOWER_BETTER.items():
            cur, old = row.get(metric), base.get(metric)
            if not cur or not old:
                continue  # 0 baseline (e.g. pre-state_bytes): informational
            ratio = cur / old
            parts.append(f"{metric} {ratio:.2f}x")
            if ratio > ceil:
                regressions.append((key, metric, ratio))
        flagged = (any(r[0] == key for r in regressions) or
                   any(h[0] == key for h in hard_failures))
        print(f"  {'REGR' if flagged else 'OK':8s}"
              f" {fmt_key(key)}: {', '.join(parts) if parts else 'no shared metrics'}")
    for key in sorted(baseline.keys() - current.keys()):
        print(f"  GONE     {fmt_key(key)} (baseline row not produced)")
        hard_failures.append((key, "baseline row not produced by this run"))
    return regressions, hard_failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", nargs="+",
                        help="bench JSON file(s) produced by this run")
    parser.add_argument("--baseline", action="append", required=True,
                        help="committed baseline JSON (repeatable)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on soft-threshold regressions too")
    parser.add_argument("--github-summary", metavar="PATH",
                        help="append a markdown summary table to PATH "
                             "(pass \"$GITHUB_STEP_SUMMARY\" in CI)")
    args = parser.parse_args()

    unknown_keys = set()
    baseline = {}
    for path in args.baseline:
        baseline.update(load_rows(path, unknown_keys))
    current = {}
    for path in args.current:
        current.update(load_rows(path, unknown_keys))

    print(f"bench_diff: {len(current)} current rows vs "
          f"{len(baseline)} baseline rows")
    if unknown_keys:
        print(f"bench_diff: note: unknown keys ignored for matching and "
              f"thresholds: {', '.join(sorted(unknown_keys))}",
              file=sys.stderr)
    regressions, hard_failures = compare(current, baseline)
    if args.github_summary:
        write_github_summary(args.github_summary, current, baseline,
                             regressions, hard_failures)
    if hard_failures:
        print("hard failures (machine-independent facts diverged):")
        for key, reason in hard_failures:
            print(f"  {fmt_key(key)}: {reason}")
    if regressions:
        print("soft-threshold regressions:")
        for key, metric, ratio in regressions:
            print(f"  {fmt_key(key)}: {metric} {ratio:.2f}x")
        if not args.strict:
            print("(non-blocking: single-core CI runners are noisy; "
                  "investigate before trusting)")
    elif not hard_failures:
        print("no regressions beyond soft thresholds")
    if hard_failures or (args.strict and regressions):
        return 1
    return 0


def write_github_summary(path, current, baseline, regressions,
                         hard_failures):
    """Appends a markdown table of the comparison to `path` (fail-soft)."""
    hard_keys = {key for key, _ in hard_failures}
    soft_keys = {key for key, _, _ in regressions}
    lines = ["### bench_diff", "",
             f"{len(current)} current rows vs {len(baseline)} baseline "
             f"rows — {len(hard_failures)} hard failure(s), "
             f"{len(regressions)} soft regression(s)", "",
             "| row | status | detail |", "|---|---|---|"]
    for key, row in sorted(current.items()):
        if key not in baseline:
            lines.append(f"| `{fmt_key(key)}` | NEW | no baseline row |")
            continue
        detail = []
        for metric in list(HIGHER_BETTER) + list(LOWER_BETTER):
            cur, old = row.get(metric), baseline[key].get(metric)
            if cur and old:
                detail.append(f"{metric} {cur / old:.2f}x")
        if key in hard_keys:
            status = "**HARD FAIL**"
            detail = [r for k, r in hard_failures if k == key] + detail
        elif key in soft_keys:
            status = "soft regression"
        else:
            status = "OK"
        lines.append(f"| `{fmt_key(key)}` | {status} | "
                     f"{', '.join(detail) or '—'} |")
    for key in sorted(baseline.keys() - current.keys()):
        lines.append(f"| `{fmt_key(key)}` | **HARD FAIL** | "
                     f"baseline row not produced |")
    try:
        with open(path, "a") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as e:
        print(f"bench_diff: warning: cannot write summary to {path} "
              f"({e.strerror or e})", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
