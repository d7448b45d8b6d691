"""Build and load EON's int8 C kernels (``eon_kernels.c``).

:func:`load` compiles the kernel source once with the host C compiler
(``cc -O3 -march=native -shared -fPIC``) into a shared library whose
file name is a digest of everything that decides its bytes: the source,
the compiler binary, the flags and the host CPU's feature flags (the
library is tuned to this CPU).  Libraries live in this package's
``__pycache__`` — written to a temporary name, then ``os.replace``\\ d,
so concurrent builders never load a half-written file — or, when that
directory is not writable, in a private temporary directory.  The
library is loaded with :class:`ctypes.CDLL`, whose calls release the GIL.

Where there is no compiler, or the build or load fails, :func:`load`
returns ``None`` and plans bind the numpy kernels of
``repro.runtime.kernels``, which compute the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("eon_kernels.c")
FLAGS = ("-std=c99", "-O3", "-march=native", "-shared", "-fPIC")

_lock = threading.Lock()
_loaded: list = []  # [library or None] once load() has run


#: The layer constants of ``eon_conv_i8`` / ``eon_dwconv_i8``, in the
#: order of the ``EON_P_*`` indices of ``eon_kernels.c``.
PARAMS = (
    "h", "w", "c", "pt", "pb", "pl", "pr", "kh", "kw", "stride",
    "oh", "ow", "cout", "pool_h", "pool_w", "pool_avg",
    "in_zp", "out_zp", "clamp_min", "clamp_max",
)


def _cpu_flags() -> str:
    """The CPU feature flags ``-march=native`` compiles for."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _compiler_identity(cc: str) -> str:
    """The resolved compiler binary, its size and modification time:
    a toolchain upgrade replaces the file."""
    real = os.path.realpath(cc)
    st = os.stat(real)
    return f"{real}:{st.st_size}:{st.st_mtime_ns}"


def library_name(source: bytes, compiler: str, cpu: str) -> str:
    key = hashlib.sha256(b"\0".join(
        (source, compiler.encode(), " ".join(FLAGS).encode(), cpu.encode())
    )).hexdigest()[:20]
    return f"eon_kernels-{key}.so"


def _cache_dir() -> Path:
    cache = SOURCE.parent / "__pycache__"
    try:
        cache.mkdir(exist_ok=True)
        if os.access(cache, os.W_OK):
            return cache
    except OSError:
        pass
    return Path(tempfile.mkdtemp(prefix="repro-eon-"))


def _build(cc: str, path: Path) -> None:
    """Compile into ``path`` through a temporary file in its directory."""
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    for name in ("eon_conv_i8", "eon_dwconv_i8"):
        fn = getattr(lib, name)
        fn.argtypes = [ptr] * 8 + [i64]
        fn.restype = None
    lib.eon_requant_i8.argtypes = [ptr, i64, i64, ptr, i64, i64, i64, ptr]
    lib.eon_requant_i8.restype = None
    lib.eon_scratch_size.argtypes = [ptr]
    lib.eon_scratch_size.restype = i64
    for name in ("eon_param_count", "eon_channel_block"):
        getattr(lib, name).argtypes = []
        getattr(lib, name).restype = ctypes.c_int
    if lib.eon_param_count() != len(PARAMS):
        raise AttributeError("eon_kernels.c and PARAMS disagree on the layer constants")
    return lib


def _open() -> ctypes.CDLL | None:
    cc = shutil.which("cc")
    if cc is None:
        return None
    try:
        source = SOURCE.read_bytes()
        name = library_name(source, _compiler_identity(cc), _cpu_flags())
        path = SOURCE.parent / "__pycache__" / name
        if not path.exists():
            path = _cache_dir() / name
            if not path.exists():
                _build(cc, path)
    except (OSError, subprocess.SubprocessError):
        return None
    try:
        return _declare(ctypes.CDLL(str(path)))
    except (OSError, AttributeError):
        # Not a loadable kernel library (a toolchain that wrote something
        # else, a truncated file): drop it so the next process rebuilds.
        path.unlink(missing_ok=True)
        return None


def load() -> ctypes.CDLL | None:
    """The kernel library, built on the first call in this process (or
    found in the cache); ``None`` when it cannot be built or loaded."""
    if not _loaded:
        with _lock:
            if not _loaded:
                _loaded.append(_open())
    return _loaded[0]


def _padded(a: np.ndarray, n: int, fill) -> np.ndarray:
    """``a`` extended along its last axis to ``n`` with ``fill``."""
    out = np.full(a.shape[:-1] + (n,), fill, dtype=a.dtype)
    out[..., : a.shape[-1]] = a
    return out


class ConvKernel:
    """One plan step bound to ``eon_conv_i8`` (conv, conv1d, dense: int8
    weights ``(K, cout)``) or ``eon_dwconv_i8`` (depthwise: int8 taps
    ``(kh, kw, c)``), with the folded int32 bias and the requantizer's
    mantissas, rounding halves and total shifts, laid out at bind time
    the way ``eon_kernels.c`` reads them: weights widened to int32 (the
    vector kernels multiply int32 lanes) in blocks of output channels,
    every per-channel array filled to whole blocks.  The caller has
    checked every shape in ``params`` against the graph and proven int32
    accumulation exact; :meth:`carve` checks the arrays it is handed.

    :meth:`carve` binds the pointers of one carving (input, padding
    scratch, accumulator scratch, output) and returns the call that runs
    the step; calling the kernel itself does the same for one execute.
    """

    def __init__(self, lib, depthwise: bool, params: dict, weights, bias, mant, shift, x_id):
        block = lib.eon_channel_block()
        cout = params["cout"]
        coutp = -(-cout // block) * block
        self.fn = lib.eon_dwconv_i8 if depthwise else lib.eon_conv_i8
        self.params = np.array([params[k] for k in PARAMS], dtype=np.int64)
        if not depthwise:  # (K, cout) -> (coutp / block, K, block)
            weights = _padded(weights, coutp, 0).reshape(len(weights), -1, block).transpose(1, 0, 2)
        self.weights = np.ascontiguousarray(weights, dtype=np.int32)
        self.bias = _padded(np.asarray(bias, dtype=np.int32), coutp, 0)
        shift = _padded(np.broadcast_to(shift, (cout,)).astype(np.int64), coutp, 1)
        self.rq = np.concatenate([
            _padded(np.broadcast_to(mant, (cout,)).astype(np.int64), coutp, 0),
            np.int64(1) << (shift - 1),
            shift,
        ])
        self.x_id = x_id
        self.scratch_size = lib.eon_scratch_size(self.params.ctypes.data)
        self.in_size = params["h"] * params["w"] * params["c"]
        self.padded_size = (  # one image, padded; 0 when nothing is padded
            (params["h"] + params["pt"] + params["pb"]) * (params["w"] + params["pl"] + params["pr"])
            * params["c"] if any(params[k] for k in ("pt", "pb", "pl", "pr")) else 0)
        self.out_size = (params["oh"] // params["pool_h"]) * (params["ow"] // params["pool_w"]) * cout

    def carve(self, views: dict, out: np.ndarray, scratch: dict):
        x = views[self.x_id]
        rows = x.shape[0]
        acc, xp = scratch["acc"], scratch.get("xp")
        for a, dtype in ((x, np.int8), (out, np.int8), (acc, np.int32), (xp, np.int8)):
            if a is not None and (a.dtype != dtype or not a.flags.c_contiguous):
                raise ValueError("native kernel operands must be C-contiguous")
        if x.size != rows * self.in_size or out.size != rows * self.out_size:
            raise ValueError(f"native kernel shapes {x.shape} -> {out.shape}")
        if acc.size < self.scratch_size or (xp.size if xp is not None else 0) < self.padded_size:
            raise ValueError("native kernel scratch too small")
        ptr = [None if a is None else a.ctypes.data_as(ctypes.c_void_p)  # keeps ``a`` alive
               for a in (self.params, x, xp, self.weights, self.bias, self.rq, acc, out)]
        return functools.partial(self.fn, *ptr, rows)

    def __call__(self, views: dict, out: np.ndarray, scratch: dict) -> None:
        self.carve(views, out, scratch)()
