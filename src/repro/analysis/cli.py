"""``python -m repro.analysis`` — lint the platform, verify the model zoo.

Modes:

- default / ``--check``: run every linter over the given paths (default
  ``src/repro``), print the findings, and exit non-zero under
  ``--check`` when any exist.
- ``--verify-zoo``: build the paper-scale model zoo and verify every
  float32/int8 graph; exit non-zero on any error diagnostic.  This is
  the CI smoke run for the graph verifier.
- ``--json``: machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.diagnostics import Report
from repro.analysis.locklint import lint_lock_discipline, lint_lock_order
from repro.analysis.platformlint import lint_platform


def _iter_py_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(paths: list[str]) -> Report:
    """Run all linters over ``paths`` and return one merged report."""
    report = Report(subject=", ".join(paths))
    edges: dict[tuple[str, str], tuple[str, int]] = {}
    for file in _iter_py_files(paths):
        source = file.read_text()
        posix = file.as_posix()
        report.extend(lint_lock_discipline(source, posix, edges))
        report.extend(lint_platform(source, posix))
    report.extend(lint_lock_order(edges))
    return report


def verify_zoo(tasks: list[str]) -> Report:
    """Verify every paper-scale zoo graph (float32 + int8)."""
    from repro.analysis.verify import verify_graph
    from repro.experiments.tasks import paper_scale_graphs

    merged = Report(subject=f"model zoo: {', '.join(tasks)}")
    for task in tasks:
        spec = paper_scale_graphs(task)
        for graph in (spec.float_graph, spec.int8_graph):
            merged.extend(verify_graph(graph))
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="graph IR verifier + platform linter",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/dirs to lint (default: src/repro)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on any finding")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit JSON instead of human-readable text")
    parser.add_argument("--verify-zoo", action="store_true",
                        help="verify the paper-scale model zoo instead of "
                             "linting source")
    parser.add_argument("--tasks", default="kws,ic",
                        help="comma-separated zoo tasks for --verify-zoo")
    args = parser.parse_args(argv)

    out = sys.stdout

    if args.verify_zoo:
        tasks = [t for t in args.tasks.split(",") if t]
        report = verify_zoo(tasks)
        if args.as_json:
            out.write(json.dumps(
                [d.to_dict() for d in report], indent=2) + "\n")
        else:
            out.write(report.format() + "\n")
        return 0 if report.ok else 1

    report = lint_paths(args.paths or ["src/repro"])

    if args.as_json:
        out.write(json.dumps(
            {"findings": [d.to_dict() for d in report]}, indent=2) + "\n")
    else:
        out.write(f"lint: {len(report)} finding(s)\n")
        for diag in report:
            out.write("  " + diag.format() + "\n")
    return 1 if args.check and len(report) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
