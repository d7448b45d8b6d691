"""Utility helpers."""

import numpy as np

from repro.utils import ensure_rng, human_bytes, human_ms
from repro.utils.rng import spawn


def test_ensure_rng_deterministic():
    a = ensure_rng(7).random(3)
    b = ensure_rng(7).random(3)
    assert np.array_equal(a, b)


def test_ensure_rng_passthrough():
    rng = np.random.default_rng(0)
    assert ensure_rng(rng) is rng


def test_spawn_independent():
    rng = ensure_rng(0)
    kids = spawn(rng, 3)
    draws = [k.random() for k in kids]
    assert len(set(draws)) == 3


def test_human_bytes():
    assert human_bytes(512) == "512 B"
    assert human_bytes(2048) == "2.0 kB"
    assert human_bytes(3 * 1024 * 1024) == "3.0 MB"


def test_human_ms():
    assert human_ms(12.345) == "12.35 ms"


def test_server_imports_do_not_load_scipy():
    """scipy is a quarter of a second and ~30 MB per process; only the
    MFCC DCT, the explorer's spectral embedding and the surrogate search
    use it, so nothing a server or a serving worker imports may."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys\n"
        "import repro.api, repro.core, repro.serve, repro.core.workers\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
