#!/usr/bin/env python
"""Perf regression gate: compare a fresh benchmark artifact to the baseline.

CI's ``bench-smoke`` job runs the serving + distributed-tuner + plan
benchmarks (among others), which write their headline numbers to
``results/$BENCH_JSON`` (``results/BENCH_pr<N>.json`` in CI, derived
from the PR number; see ``benchmarks/conftest.py``).  This script
compares that artifact against the committed baseline
(``benchmarks/BENCH_baseline.json``) and fails when any **gated**
metric regressed by more than ``--max-regression`` (default 20%).

When ``$GITHUB_STEP_SUMMARY`` is set (always, inside an Actions job)
the same comparison is appended there as a markdown table, so the
verdict is readable from the run's summary page without digging
through logs.

Only ratio metrics (speedups) are gated: they are what the subsystems
guarantee and they transfer across runner hardware.  Absolute
requests/sec are reported for trend-watching but never gated — a slower
CI runner is not a code regression.

Baseline format::

    {
      "gated": {"serving_batched_speedup": 2.5, ...},
      "informational": ["serving_single_rps", ...]
    }

Usage::

    python scripts/check_bench_regression.py results/BENCH_pr2.json \
        benchmarks/BENCH_baseline.json [--max-regression 0.20]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys


def load(path: str) -> dict:
    try:
        return json.loads(pathlib.Path(path).read_text())
    except OSError as exc:
        sys.exit(f"error: cannot read {path}: {exc}")
    except ValueError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("new", help="fresh metrics JSON (results/BENCH_pr2.json)")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument(
        "--max-regression", type=float, default=0.20,
        help="allowed fractional drop on gated metrics (default 0.20)",
    )
    args = parser.parse_args(argv)

    new_doc = load(args.new)
    base_doc = load(args.baseline)
    metrics = new_doc.get("metrics", {})
    gated: dict[str, float] = base_doc.get("gated", {})
    informational: list[str] = base_doc.get("informational", [])

    failures = []
    rows = []  # (metric, measured, baseline, floor, pass/fail) per gate
    print(f"perf gate: {args.new} vs {args.baseline} "
          f"(max regression {args.max_regression:.0%})")
    for name, baseline_value in sorted(gated.items()):
        floor = baseline_value * (1.0 - args.max_regression)
        value = metrics.get(name)
        if value is None:
            failures.append(f"{name}: missing from {args.new}")
            rows.append((name, None, baseline_value, floor, False))
            print(f"  FAIL {name:<28} missing (baseline {baseline_value:.2f})")
            continue
        passed = value >= floor
        rows.append((name, value, baseline_value, floor, passed))
        status = "ok  " if passed else "FAIL"
        print(f"  {status} {name:<28} {value:8.2f}  "
              f"(baseline {baseline_value:.2f}, floor {floor:.2f})")
        if not passed:
            failures.append(
                f"{name}: {value:.2f} < floor {floor:.2f} "
                f"(baseline {baseline_value:.2f})"
            )
    for name in informational:
        value = metrics.get(name)
        shown = f"{value:.1f}" if isinstance(value, (int, float)) else "missing"
        print(f"  info {name:<28} {shown}")

    write_step_summary(rows, metrics, informational, args.max_regression)

    if failures:
        print("\nperf regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf regression gate passed.")
    return 0


def write_step_summary(rows, metrics, informational, max_regression) -> None:
    """Append the gate's verdict to ``$GITHUB_STEP_SUMMARY`` (no-op
    outside Actions) as a markdown table."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    ok = all(passed for *_, passed in rows)
    lines = [
        "## Perf regression gate " + ("✅ passed" if ok else "❌ FAILED"),
        "",
        f"Gated metrics vs committed baseline "
        f"(max regression {max_regression:.0%}):",
        "",
        "| gated metric | measured | baseline | floor | status |",
        "|---|---:|---:|---:|---|",
    ]
    for name, value, baseline_value, floor, passed in rows:
        shown = f"{value:.2f}" if value is not None else "missing"
        lines.append(
            f"| `{name}` | {shown} | {baseline_value:.2f} | {floor:.2f} | "
            + ("pass" if passed else "**fail**") + " |"
        )
    info = [
        f"`{name}` {metrics[name]:.1f}"
        for name in informational
        if isinstance(metrics.get(name), (int, float))
    ]
    if info:
        lines += ["", "Informational (never gated): " + ", ".join(info)]
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:  # a summary write must never fail the gate
        print(f"warning: cannot write step summary: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
