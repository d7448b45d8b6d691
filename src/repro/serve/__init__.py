"""Model serving: compiled-model cache + micro-batched classification.

The hosted platform serves inference for thousands of projects behind a
REST API; this package is that tier.  :class:`ModelServer` compiles each
(project, precision, engine) once into a plan-backed model, caches it in
a sharded LRU, and coalesces classify requests into batched invokes.
``ModelServer(platform, placement=...)`` picks where those invokes run:
``"inline"`` (the caller's thread, via :class:`MicroBatcher`),
``"thread"`` (one queue-draining thread per shard) or ``"process"``
(one :mod:`repro.core.workers` process per shard).  Reached over
``POST /v1/projects/{pid}/classify`` and ``GET /v1/serving/stats``
(:mod:`repro.api.resources.serving`), and the ``classify`` / ``serve``
CLI commands.
"""

import functools

from repro.serve.batcher import MicroBatcher, PendingResult, ServingError
from repro.serve.server import ModelNotTrainedError, ModelServer

# The pre-placement constructor names, importable because the frozen
# benchmarks/e2e probe pass constructs them.  They pin ``placement`` and
# nothing else: no methods, no state, no isinstance meaning.
ShardedModelServer = functools.partial(ModelServer, placement="thread")
ProcessShardedModelServer = functools.partial(ModelServer, placement="process")

__all__ = [
    "MicroBatcher",
    "PendingResult",
    "ModelServer",
    "ServingError",
    "ModelNotTrainedError",
]
