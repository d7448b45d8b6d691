#!/usr/bin/env python
"""Lint the platform source: thin wrapper over ``python -m repro.analysis``.

Chdirs to the repo root so the default scope (``src/repro``) resolves
and findings print repo-relative paths.  CI runs
``scripts/lint_repro.py --check``, which fails on any finding.
"""

import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
os.chdir(REPO)

from repro.analysis.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
