"""Build and load EON's C kernels (``eon_kernels.c``): the int8
convolution, depthwise, dense and global average pool steps, and the
float32 depthwise step.

:func:`load` compiles the kernel source once with the host C compiler
(``cc -O3 -march=native -ffp-contract=off -shared -fPIC``) into a shared
library whose file name is a digest of everything that decides its
bytes: the source, the compiler binary, the flags and the host CPU's
feature flags (the library is tuned to this CPU).  ``-ffp-contract=off``
keeps the float32 kernel's ``acc + x*t`` two roundings, as numpy computes
it: Clang contracts it into one fused multiply-add by default.  Libraries
live in this package's ``__pycache__`` — written to a temporary name,
then ``os.replace``\\ d, so concurrent builders never load a
half-written file — or, when that directory is not writable, in a
private temporary directory that is removed as soon as the library is
loaded.  The library is loaded with :class:`ctypes.CDLL`, whose calls
release the GIL.

Where there is no compiler, or the build or load fails, :func:`load`
returns ``None`` and plans bind the kernels of ``repro.runtime.kernels``:
the int8 spec kernels and the float32 depthwise kernel's numpy twin,
which compute the same bytes.
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
FLAGS = ("-std=c99", "-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
CACHE = SOURCE.parent / "__pycache__"

_lock = threading.Lock()
_loaded: list = []  # [library or None] once load() has run


#: The layer constants of every kernel of ``eon_kernels.c``, in the
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
    """``CACHE``, or a fresh private directory when it is not writable."""
    try:
        CACHE.mkdir(exist_ok=True)
        if os.access(CACHE, os.W_OK):
            return CACHE
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
    lib.eon_dwconv_f32.argtypes = [ptr] * 5 + [ctypes.c_float] * 2 + [ptr, i64]
    lib.eon_dwconv_f32.restype = None
    lib.eon_gap_i8.argtypes = [ptr] * 3 + [i64]
    lib.eon_gap_i8.restype = None
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
    cache = None
    try:
        source = SOURCE.read_bytes()
        name = library_name(source, _compiler_identity(cc), _cpu_flags())
        path = CACHE / name
        if not path.exists():
            cache = _cache_dir()
            path = cache / name
            if not path.exists():
                _build(cc, path)
        try:
            return _declare(ctypes.CDLL(str(path)))
        except (OSError, AttributeError):
            # Not a loadable kernel library (a toolchain that wrote something
            # else, a truncated file): drop it so the next process rebuilds.
            path.unlink(missing_ok=True)
            return None
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        if cache is not None and cache != CACHE:
            # A private directory serves this process alone, and a loaded
            # library stays mapped after its file is gone.
            shutil.rmtree(cache, ignore_errors=True)


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


def _pointers(*arrays) -> list:
    """ctypes pointers to ``arrays`` (``None`` stays a null pointer); each
    keeps its array alive."""
    return [None if a is None else a.ctypes.data_as(ctypes.c_void_p) for a in arrays]


class NativeKernel:
    """One plan step bound to a kernel of ``eon_kernels.c``: the layer
    constants ``params`` (``PARAMS``), laid out once at bind time, and
    the id of the activation it reads.  The caller has checked every
    shape in ``params`` against the graph; :meth:`carve` checks the
    arrays it is handed, binds the pointers of one carving (input,
    padding and other scratch, output) and returns the call that runs
    the step.  Calling the kernel itself does the same for one execute.
    """

    def __init__(self, params: dict, x_id):
        self.params = np.array([params[k] for k in PARAMS], dtype=np.int64)
        self.x_id = x_id
        self.in_size = params["h"] * params["w"] * params["c"]
        self.padded_size = (  # one image, padded; 0 when nothing is padded
            (params["h"] + params["pt"] + params["pb"]) * (params["w"] + params["pl"] + params["pr"])
            * params["c"] if any(params[k] for k in ("pt", "pb", "pl", "pr")) else 0)

    def _operands(self, views: dict, out: np.ndarray, scratch: dict, dtype, out_size: int):
        """The input and padding scratch of one carving, checked with
        ``out``: ``dtype``, C-contiguous and of this layer's sizes."""
        x, xp = views[self.x_id], scratch.get("xp")
        for a in (x, out, xp):
            if a is not None and (a.dtype != dtype or not a.flags.c_contiguous):
                raise ValueError("native kernel operands must be C-contiguous")
        if x.size != x.shape[0] * self.in_size or out.size != x.shape[0] * out_size:
            raise ValueError(f"native kernel shapes {x.shape} -> {out.shape}")
        if (xp.size if xp is not None else 0) < self.padded_size:
            raise ValueError("native kernel scratch too small")
        return x, xp

    def carve(self, views: dict, out: np.ndarray, scratch: dict):
        raise NotImplementedError

    def __call__(self, views: dict, out: np.ndarray, scratch: dict) -> None:
        self.carve(views, out, scratch)()


def requant_table(mant, shift, cout: int, coutp: int) -> np.ndarray:
    """The requantization constants as ``eon_kernels.c`` reads them: the
    mantissas, rounding halves ``2**(s-1)`` and total shifts ``s`` of
    ``cout`` channels (``mant`` / ``shift``: per channel or one for all,
    checked by ``repro.quantize.fixedpoint``), each filled to ``coutp``."""
    shift = _padded(np.broadcast_to(shift, (cout,)).astype(np.int64), coutp, 1)
    return np.concatenate([
        _padded(np.broadcast_to(mant, (cout,)).astype(np.int64), coutp, 0),
        np.int64(1) << (shift - 1),
        shift,
    ])


def gemm_operands(w2d, bias, kh: int, block: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights and bias of ``eon_conv_i8`` from the int8 ``(K, cout)``
    weights (``K`` ordered ``(kh, kw, c)``) and the folded int32 bias of
    :func:`repro.runtime.kernels.prepare_gemm_i32`: int8 quads ``(coutp /
    block, kh, kq, block, 4)`` with ``kq = ceil(kw*c / 4)`` — byte ``j``
    of quad ``q`` is tap ``4q + j`` of a window row — zero past ``kw*c``
    and past ``cout``; and the int32 bias with ``-128 * sum_k w[k, o]``
    folded in, filled to ``coutp``, since the kernel reads each window
    byte as ``x + 128``.  ``|bias''| <= |bias'| + 128*128*K < 2**31``
    under the caller's int32 proof, so the int32 bias is exact."""
    k, cout = w2d.shape
    kwc, coutp = k // kh, -(-cout // block) * block
    kq = -(-kwc // 4)
    quads = np.zeros((kh, kq * 4, coutp), np.int8)
    quads[:, :kwc, :cout] = w2d.reshape(kh, kwc, cout)
    quads = quads.reshape(kh, kq, 4, coutp // block, block).transpose(3, 0, 1, 4, 2)
    offset = np.asarray(bias, np.int64) - 128 * w2d.sum(axis=0, dtype=np.int64)
    return np.ascontiguousarray(quads), _padded(offset.astype(np.int32), coutp, 0)


class ConvKernel(NativeKernel):
    """An int8 step bound to ``eon_conv_i8`` (conv, conv1d, dense: int8
    weights ``(K, cout)``) or ``eon_dwconv_i8`` (depthwise: int8 taps
    ``(kh, kw, c)``), with the folded int32 bias and the
    :func:`requant_table`, laid out the way ``eon_kernels.c`` reads them:
    GEMM weights as the int8 quads of :func:`gemm_operands` (with their
    offset bias), depthwise taps widened to int32, every per-channel
    array filled to whole blocks of output channels.  The caller has
    proven int32 accumulation exact.  A carving adds the int32
    accumulator scratch ``acc``.
    """

    def __init__(self, lib, depthwise: bool, params: dict, weights, bias, mant, shift, x_id):
        super().__init__(params, x_id)
        block = lib.eon_channel_block()
        cout = params["cout"]
        coutp = -(-cout // block) * block
        if depthwise:
            self.fn = lib.eon_dwconv_i8
            self.weights = np.ascontiguousarray(weights, dtype=np.int32)
            self.bias = _padded(np.asarray(bias, dtype=np.int32), coutp, 0)
        else:
            self.fn = lib.eon_conv_i8
            self.weights, self.bias = gemm_operands(weights, bias, params["kh"], block)
        self.rq = requant_table(mant, shift, cout, coutp)
        self.scratch_size = lib.eon_scratch_size(self.params.ctypes.data)
        self.out_size = (params["oh"] // params["pool_h"]) * (params["ow"] // params["pool_w"]) * cout

    def carve(self, views: dict, out: np.ndarray, scratch: dict):
        x, xp = self._operands(views, out, scratch, np.int8, self.out_size)
        acc = scratch["acc"]
        if acc.dtype != np.int32 or not acc.flags.c_contiguous:
            raise ValueError("native kernel operands must be C-contiguous")
        if acc.size < self.scratch_size:
            raise ValueError("native kernel scratch too small")
        ptr = _pointers(self.params, x, xp, self.weights, self.bias, self.rq, acc, out)
        return functools.partial(self.fn, *ptr, x.shape[0])


class GapKernel(NativeKernel):
    """An int8 GLOBAL_AVG_POOL_2D / _1D step bound to ``eon_gap_i8``:
    each channel's mean over an ``(h, w, c)`` image, rounded as
    ``gap2d_i8`` rounds it.  The caller has checked ``h*w < 2**24``."""

    def __init__(self, lib, h: int, w: int, c: int, x_id):
        super().__init__(dict(dict.fromkeys(PARAMS, 0), h=h, w=w, c=c), x_id)
        self.fn = lib.eon_gap_i8
        self.out_size = c

    def carve(self, views: dict, out: np.ndarray, scratch: dict):
        x, _ = self._operands(views, out, scratch, np.int8, self.out_size)
        return functools.partial(self.fn, *_pointers(self.params, x, out), x.shape[0])


#: Activation -> the ``(lo, hi)`` clamp ``eon_dwconv_f32`` applies; a
#: clamp to (-inf, inf) leaves every value as it is, -0.0 and NaN included.
F32_CLAMPS = {"none": (-np.inf, np.inf), "relu": (0.0, np.inf), "relu6": (0.0, 6.0)}


class DepthwiseF32Kernel(NativeKernel):
    """A float32 DEPTHWISE_CONV_2D step (depth multiplier 1) bound to
    ``eon_dwconv_f32``: float32 taps ``(kh, kw, c)`` and bias, and the
    activation (a key of :data:`F32_CLAMPS`) as clamp bounds.  With a
    fused ``pool`` — ``(pool kernel, size)`` — the C kernel writes the
    step's pre-pool scratch ``out`` and the pool kernel reads it, as
    ``dwconv2d_f32``'s plan step does.
    """

    def __init__(self, lib, params: dict, taps, bias, activation: str, x_id, pool=None):
        super().__init__(params, x_id)
        self.fn = lib.eon_dwconv_f32
        self.taps = np.ascontiguousarray(taps, dtype=np.float32)
        self.bias = np.ascontiguousarray(bias, dtype=np.float32)
        self.lo, self.hi = F32_CLAMPS[activation]
        self.pool = pool
        self.conv_size = params["oh"] * params["ow"] * params["c"]

    def carve(self, views: dict, out: np.ndarray, scratch: dict):
        conv_out = scratch["out"] if self.pool else out
        x, xp = self._operands(views, conv_out, scratch, np.float32, self.conv_size)
        ptr = _pointers(self.params, x, xp, self.taps, self.bias)
        conv = functools.partial(self.fn, *ptr, self.lo, self.hi, *_pointers(conv_out), x.shape[0])
        if self.pool is None:
            return conv
        pool_fn, size = self.pool

        def conv_pool():
            conv()
            pool_fn(conv_out, size, out)

        return conv_pool
