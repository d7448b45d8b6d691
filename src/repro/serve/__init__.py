"""Model serving: compiled-model cache + micro-batched classification.

The hosted platform serves inference for thousands of projects behind a
REST API; this package is that tier.  :class:`ModelServer` compiles each
(project, precision) once into a plan-backed model, caches it in a
sharded LRU, and coalesces classify requests into batched invokes.  A
request may name either engine: TFLM and EON run the same plan, so one
model serves both.
Every request joins its shard's bounded queue, drained by one thread
per shard; ``ModelServer(platform, placement=...)`` picks where the
invokes run: ``"thread"`` (in this process) or ``"process"`` (in one
:mod:`repro.core.workers` process per shard).  A waiting ``classify``
runs in its caller when its shard is idle, else on the shard thread.
Reached over
``POST /v1/projects/{pid}/classify`` and ``GET /v1/serving/stats``
(:mod:`repro.api.resources.serving`), and the ``classify`` / ``serve``
CLI commands.
"""

import functools

from repro.serve.server import ModelNotTrainedError, ModelServer
from repro.serve.shard import PendingResult, ServingError, ServingOverloadedError

# The pre-placement constructor names, importable because the frozen
# benchmarks/e2e probe pass constructs them.  They pin ``placement`` and
# nothing else: no methods, no state, no isinstance meaning.
ShardedModelServer = functools.partial(ModelServer, placement="thread")
ProcessShardedModelServer = functools.partial(ModelServer, placement="process")

__all__ = [
    "PendingResult",
    "ModelServer",
    "ServingError",
    "ServingOverloadedError",
    "ModelNotTrainedError",
]
