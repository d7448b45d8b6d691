"""Cross-process execution plane: frame protocol + worker processes.

The GIL caps what one Python process can serve (PR 2's sharded server
flattens around 5.6x on 4 threads; PR 3's parallel tuner at ~3.7x).
This package is the process boundary the hosted platform actually runs
on: parents talk to worker processes over length-prefixed frames
(:mod:`~repro.core.workers.frames`), workers rehydrate compiled plans
from serialized graphs (:mod:`~repro.core.workers.worker`), and
:class:`WorkerHandle` / :class:`WorkerPool`
(:mod:`~repro.core.workers.client`) give parents spawn, one exchange
per call, dead-worker detection, and respawn.

Built on top of it: ``repro.serve.ModelServer(placement="process")``
(serving shards as processes, :mod:`repro.serve.runners`) and ``EonTuner.run_parallel(...,
placement="process")`` (tuner trials as processes).
"""

from repro.core.workers.client import (
    WorkerDied,
    WorkerError,
    WorkerHandle,
    WorkerPool,
)
from repro.core.workers.frames import (
    ConnectionClosed,
    FrameError,
    pack_array,
    recv_frame,
    send_frame,
    unpack_array,
)
from repro.core.workers.worker import WorkerServer, worker_main

__all__ = [
    "WorkerDied",
    "WorkerError",
    "WorkerHandle",
    "WorkerPool",
    "ConnectionClosed",
    "FrameError",
    "pack_array",
    "recv_frame",
    "send_frame",
    "unpack_array",
    "WorkerServer",
    "worker_main",
]
