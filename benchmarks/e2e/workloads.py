"""The load generator: seeded inputs, the correctness oracle, the five
closed-loop workloads and the handle on the server process.

Everything the server receives is generated here from ``--seed``.  Each
workload yields :class:`Unit` records — one closed-loop cycle of one
operation (two for ``classify_concurrent``) — timed on this process's
``time.perf_counter``.
"""

from __future__ import annotations

import errno
import io
import json
import os
import pathlib
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

import numpy as np

from launcher import project_labels
from repro.client import Client, ClientError
from repro.data.synthetic import keyword_dataset
from repro.experiments.tasks import paper_scale_graphs
from repro.formats.wav import write_wav
from repro.runtime import TFLMInterpreter

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

#: One core each: left to the scheduler, thread placement alone moves
#: classify_single between about 150 and 215 ops/s on a 2-core box, in
#: stretches of seconds.  The generator takes the first allowed CPU, the
#: server (its threads and worker processes inherit) the last.
CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPU, SERVER_CPU = CPUS[0], CPUS[-1]

N_PROJECTS = 4
KWS_FEATURES = 490
READY_TIMEOUT_S = 120.0


class InvalidRun(Exception):
    """A fault of the generator or its environment (port exhaustion, the
    server process dying, a worker restart): the run measures nothing
    and is aborted, never booked as a program error."""


# -- the server process --------------------------------------------------------

class Server:
    """Launch ``launcher.py`` and talk to it; ``setup_s`` is ``Popen`` ->
    ``ready`` line (imports, graph build, model warm, worker spawn)."""

    def __init__(self, *, workers: int = 1, backend: str = "thread",
                 projects: int = N_PROJECTS, warm: str | None = "int8",
                 durable: bool = False, trace_path=None):
        self.state_dir = None
        argv = [sys.executable, str(HERE / "launcher.py"),
                "--cpu", str(SERVER_CPU),
                "--workers", str(workers), "--backend", backend,
                "--projects", str(projects)]
        if warm:
            argv += ["--warm", warm]
        if durable:
            OUT.mkdir(exist_ok=True)
            self.state_dir = tempfile.mkdtemp(prefix="state-", dir=OUT)
            argv += ["--state-dir", self.state_dir]
        if trace_path is not None:
            argv += ["--trace", str(trace_path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, env=env,
                                     text=True)
        try:
            ready = self._read(READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started
        self.url = ready["url"]
        self.token = ready["token"]
        self.projects = ready["projects"]
        split = urlsplit(self.url)
        self.address = (split.hostname, split.port)

    def _read(self, timeout: float) -> dict:
        # One reply per command and every line is consumed whole, so the
        # buffered reader is empty whenever select() is consulted.
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise InvalidRun(
                f"server process gave no reply within {timeout:.0f}s "
                f"(exit code {self.proc.poll()})")
        return json.loads(line)

    def stats(self) -> dict:
        if self.proc.poll() is not None:
            raise InvalidRun(f"server process exited ({self.proc.returncode})")
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return self._read(30.0)

    def stop(self) -> None:
        """Ask the server to exit (it dumps its trace first), escalate to
        kill, and wait until it has ended."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=20.0)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- records -------------------------------------------------------------------

@dataclass
class Unit:
    """One closed-loop cycle."""

    start: float
    end: float
    latencies: list[float]  # seconds, one per operation
    failed: int = 0
    #: Client-side time inside HTTP requests (== sum(latencies) for the
    #: classify workloads; the sum over every SDK call for one build).
    request_s: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


class TimedClient(Client):
    """The SDK, with every request's wall time accumulated."""

    def __init__(self, server: Server):
        super().__init__(server.url, token=server.token, retries=0)
        self.request_s = 0.0

    def request(self, method, path, body=None):
        started = time.perf_counter()
        try:
            return super().request(method, path, body)
        except ClientError as exc:
            if os.strerror(errno.EADDRNOTAVAIL) in exc.message:
                raise InvalidRun(
                    f"generator ran out of ephemeral ports: {exc}") from None
            raise
        finally:
            self.request_s += time.perf_counter() - started


# -- raw HTTP/1.1 (keep-alive and two-in-flight need the socket) ----------------

def request_bytes(server: Server, path: str, body: bytes, *, close: bool) -> bytes:
    """Head and body as one buffer, so one ``sendall`` carries both and
    any stall seen by the client is the server's."""
    host, port = server.address
    head = (f"POST {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Authorization: Bearer {server.token}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n")
    return head.encode("ascii") + body


def connect(address) -> socket.socket:
    try:
        sock = socket.create_connection(address, timeout=30.0)
    except OSError as exc:
        if exc.errno == errno.EADDRNOTAVAIL:
            raise InvalidRun(
                f"generator ran out of ephemeral ports: {exc}") from None
        raise
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def read_response(sock: socket.socket) -> tuple[int, bytes]:
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        buf += chunk
    head, _, body = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.lower() == "content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-body")
        body += chunk
    return status, body


# -- classify inputs + oracle --------------------------------------------------

class ClassifyInputs:
    """Seeded feature windows, their request bodies, and the expected
    probabilities from an independent engine in *this* process
    (``TFLMInterpreter`` on the same deterministic graph; the server
    runs the EON-compiled plan)."""

    def __init__(self, seed: int, *, precision: str, rows: int, bodies: int):
        rng = np.random.default_rng([seed, rows])
        self.precision = precision
        self.rows = rows
        self.order = [int(i) for i in rng.permutation(N_PROJECTS)]
        windows = rng.standard_normal(
            (bodies, rows, KWS_FEATURES)).astype(np.float32)
        key = "features" if rows == 1 else "batch"
        self.payloads = [
            {key: (w[0].tolist() if rows == 1 else w.tolist()),
             "precision": precision}
            for w in windows
        ]
        self.bodies = [json.dumps(p).encode("utf-8") for p in self.payloads]
        spec = paper_scale_graphs("kws")
        graph = spec.int8_graph if precision == "int8" else spec.float_graph
        oracle = TFLMInterpreter(graph)
        shape = tuple(graph.tensors[graph.input_id].shape)
        self.expected = [
            oracle.predict_proba(w.reshape((rows,) + shape)) for w in windows
        ]
        self.labels = [list(project_labels(i)) for i in range(N_PROJECTS)]

    def check(self, project: int, body: int, data: dict) -> str | None:
        """None when reply ``data`` to request body ``body`` sent to the
        ``project``-th project is correct, else why not.  int8 must match
        every probability exactly; float32 within rtol 1e-5 (batched BLAS
        reductions may reassociate)."""
        labels = self.labels[project]
        expected = self.expected[body]
        results = [data] if self.rows == 1 else data.get("results")
        if not isinstance(results, list) or len(results) != self.rows:
            return f"expected {self.rows} result row(s)"
        for row, want in zip(results, expected):
            got = row.get("classification")
            if not isinstance(got, dict) or list(got) != labels:
                return f"labels differ: {list(got or ())[:3]}.."
            values = list(got.values())
            if self.precision == "int8":
                if values != [float(p) for p in want]:
                    return "int8 probabilities differ from the oracle"
            elif not np.allclose(values, want, rtol=1e-5, atol=1e-8):
                return "float32 probabilities outside rtol 1e-5"
            if row.get("top") != labels[int(np.argmax(want))]:
                return f"top {row.get('top')!r} is not the oracle's"
        return None


# -- workloads -----------------------------------------------------------------

class ClassifyWorkload:
    """Shared shape of the four ``classify_*`` workloads."""

    precision, rows, bodies = "int8", 1, 64
    server_args: dict = {}

    def __init__(self, seed: int):
        self.inputs = ClassifyInputs(seed, precision=self.precision,
                                     rows=self.rows, bodies=self.bodies)

    def request_bodies(self) -> list[bytes]:
        return self.inputs.bodies

    def attach(self, server: Server) -> None:
        self.server = server
        self.paths = [f"/v1/projects/{pid}/classify" for pid in server.projects]

    def close(self) -> None:
        pass

    def target(self, i: int) -> tuple[int, int]:
        """(project index, body index) of request ``i``: projects in the
        seeded order, bodies round-robin."""
        return self.inputs.order[i % N_PROJECTS], i % self.bodies

    def _judge(self, i: int, status: int, body: bytes) -> str | None:
        if status != 200:
            return f"http {status}: {body[:120]!r}"
        return self.inputs.check(*self.target(i), json.loads(body)["data"])


class SdkClassify(ClassifyWorkload):
    """One client through ``repro.client.Client.classify`` — a new
    connection per request, as the SDK does today."""

    def attach(self, server: Server) -> None:
        super().attach(server)
        self.client = TimedClient(server)

    def step(self, i: int) -> Unit:
        project, body = self.target(i)
        pid = self.server.projects[project]
        payload = self.inputs.payloads[body]
        self.client.request_s = 0.0
        start = time.perf_counter()
        try:
            data = self.client.classify(pid, **payload)
            error = None
        except ClientError as exc:
            data, error = None, str(exc)
        end = time.perf_counter()
        if error is None:
            error = self.inputs.check(project, body, data)
        return Unit(start, end, [end - start], failed=int(error is not None),
                    request_s=self.client.request_s,
                    errors=[error] if error else [])


class ClassifySingle(SdkClassify):
    name = "classify_single"
    server_args = dict(workers=1, backend="thread", warm="int8")


class ClassifyBatch(SdkClassify):
    name = "classify_batch"
    precision, rows, bodies = "float32", 16, 16
    server_args = dict(workers=2, backend="process", warm="float32")


class ClassifyKeepalive(ClassifyWorkload):
    """The same requests over one persistent HTTP/1.1 connection."""

    name = "classify_keepalive"
    server_args = dict(workers=1, backend="thread", warm="int8")

    def attach(self, server: Server) -> None:
        super().attach(server)
        self.sock = connect(server.address)
        self.requests = {
            (p, b): request_bytes(server, self.paths[p], body, close=False)
            for p in range(N_PROJECTS)
            for b, body in enumerate(self.inputs.bodies)
        }

    def close(self) -> None:
        self.sock.close()

    def step(self, i: int) -> Unit:
        request = self.requests[self.target(i)]
        start = time.perf_counter()
        self.sock.sendall(request)
        status, body = read_response(self.sock)
        end = time.perf_counter()
        error = self._judge(i, status, body)
        return Unit(start, end, [end - start], failed=int(error is not None),
                    request_s=end - start, errors=[error] if error else [])


class ClassifyConcurrent(ClassifyWorkload):
    """Two requests in flight from one generator thread: two sockets,
    connect-connect-send-send-read-read, a new connection each."""

    name = "classify_concurrent"
    server_args = dict(workers=2, backend="thread", warm="int8")

    def attach(self, server: Server) -> None:
        super().attach(server)
        self.requests = {
            (p, b): request_bytes(server, self.paths[p], body, close=True)
            for p in range(N_PROJECTS)
            for b, body in enumerate(self.inputs.bodies)
        }

    def target(self, k: int) -> tuple[int, int]:
        # Whether a pair shares a shard decides if it runs in parallel or
        # is coalesced, so the 16 cycles of a round walk the whole 4x4
        # grid of project pairs: every seed sees the same mix, in its
        # own order.
        cycle, second = divmod(k, 2)
        slot = (cycle // N_PROJECTS if second else cycle) % N_PROJECTS
        return self.inputs.order[slot], k % self.bodies

    def step(self, i: int) -> Unit:
        pair = (2 * i, 2 * i + 1)
        starts, socks = [], []
        try:
            for k in pair:
                starts.append(time.perf_counter())
                socks.append(connect(self.server.address))
            for k, sock in zip(pair, socks):
                sock.sendall(self.requests[self.target(k)])
            replies, ends = [], []
            for sock in socks:
                replies.append(read_response(sock))
                ends.append(time.perf_counter())
        finally:
            for sock in socks:
                sock.close()
        errors = [e for k, (status, body) in zip(pair, replies)
                  if (e := self._judge(k, status, body))]
        latencies = [end - start for start, end in zip(starts, ends)]
        return Unit(starts[0], ends[-1], latencies, failed=len(errors),
                    request_s=sum(latencies), errors=errors)


#: MFCC -> conv1d_stack; sized so 20 epochs reach the holdout-accuracy
#: floor on every seed tried (see README, "build_pipeline oracle").
BUILD_IMPULSE = {
    "input": {"type": "time-series", "window_size_ms": 1000,
              "window_increase_ms": 1000, "frequency_hz": 8000, "axes": 1},
    "dsp": [{"type": "mfcc", "config": {
        "sample_rate": 8000, "frame_length": 0.02, "frame_stride": 0.02,
        "n_filters": 32, "n_coefficients": 13}}],
    "learn": {"type": "classification", "architecture": "conv1d_stack",
              "arch_kwargs": {"n_layers": 3, "first_filters": 16,
                              "last_filters": 32},
              "training": {"epochs": 20, "batch_size": 8,
                           "learning_rate": 5e-3, "seed": 0}},
}
#: Eight tuner candidates of equal training cost (only the mel filter
#: count differs), so which four a seed draws does not move build time.
TUNER_SPACE = {
    "dsp_templates": [{
        "type": "mfcc", "sample_rate": 8000, "frame_length": 0.02,
        "frame_stride": 0.02, "n_coefficients": 13,
        "n_filters": [24, 28, 32, 36, 40, 44, 48, 52]}],
    "model_templates": [{
        "architecture": "conv1d_stack", "n_layers": 2,
        "first_filters": 8, "last_filters": 16}],
}
BUILD_KEYWORDS = ["yes", "no", "up"]
BUILD_MIN_ACCURACY = 0.9
TUNER_TRIALS = 4
TERMINAL = ("succeeded", "failed", "cancelled")


class BuildFailed(Exception):
    """The build finished but the oracle rejects its outcome."""


class BuildPipeline:
    """The paper's Fig. 1 developer loop through the SDK against a
    durable platform; one operation is one whole build."""

    name = "build_pipeline"
    server_args = dict(projects=0, warm=None, durable=True)

    def __init__(self, seed: int):
        self.seed = seed
        dataset = keyword_dataset(
            keywords=BUILD_KEYWORDS, samples_per_class=25, sample_rate=8000,
            snr_db=20.0, include_noise=True, include_unknown=False, seed=seed)
        self.uploads = []
        for n, sample in enumerate(dataset.samples()):
            buf = io.BytesIO()
            write_wav(buf, sample.data, 8000)
            # Every fifth clip is holdout: a fixed split keeps the
            # accuracy floor a statement about the pipeline, not the draw.
            self.uploads.append((buf.getvalue(), sample.label,
                                 "test" if n % 5 == 4 else "train"))
        self.labels = sorted({label for _, label, _ in self.uploads})
        self.rng = np.random.default_rng([seed, 7])

    def request_bodies(self) -> list[bytes]:
        return [wav for wav, _, _ in self.uploads]

    def attach(self, server: Server) -> None:
        self.client = TimedClient(server)

    def close(self) -> None:
        pass

    def step(self, i: int) -> Unit:
        self.client.request_s = 0.0
        stages: dict[str, float] = {}
        start = time.perf_counter()
        try:
            self._build(i, stages)
            error = None
        except (ClientError, BuildFailed) as exc:
            error = f"build {i}: {exc}"
        end = time.perf_counter()
        return Unit(start, end, [end - start], failed=int(error is not None),
                    request_s=self.client.request_s, stages=stages,
                    errors=[error] if error else [])

    def _settle(self, fetch) -> dict:
        """Long-poll ``fetch(wait_s)`` until the job is terminal."""
        deadline = time.monotonic() + 120.0
        while True:
            view = fetch(10.0)
            if view["job_status"] in TERMINAL:
                break
            if time.monotonic() > deadline:
                raise BuildFailed(f"job {view['job_id']} never settled")
        if view["job_status"] != "succeeded":
            raise BuildFailed(
                f"job {view['job_id']} {view['job_status']}: {view['error']}")
        return view

    def _build(self, i: int, stages: dict[str, float]) -> None:
        client, clock = self.client, time.perf_counter
        pid = client.create_project(f"build-{i}")["project_id"]

        upload_ms = []
        for wav, label, category in self.uploads:
            t0 = clock()
            client.upload_data(pid, wav, label=label, fmt="wav",
                               category=category)
            upload_ms.append((clock() - t0) * 1e3)
        stages["data.ingestion.upload_ms"] = float(np.median(upload_ms))
        summary = client.request("GET", f"/v1/projects/{pid}/data/summary")
        if sorted(summary["distribution"]) != self.labels:
            raise BuildFailed(f"labels {sorted(summary['distribution'])}")
        shape = client.set_impulse(pid, BUILD_IMPULSE)["feature_shape"]

        t0 = clock()
        jid = client.train(pid, seed=0)["job_id"]
        self._settle(lambda wait: client.job(pid, jid, wait_s=wait))
        stages["nn.train_job_ms"] = (clock() - t0) * 1e3
        if client.get_project(pid)["samples"] != len(self.uploads):
            raise BuildFailed("sample count differs after training")

        t0 = clock()
        report = client.request("POST", f"/v1/projects/{pid}/test",
                                {"precision": "int8"})
        stages["evaluate.test_ms"] = (clock() - t0) * 1e3
        if report["accuracy"] < BUILD_MIN_ACCURACY:
            raise BuildFailed(f"int8 holdout accuracy {report['accuracy']:.3f}")

        t0 = clock()
        tuner_jid = client.request(
            "POST", f"/v1/projects/{pid}/tuner",
            {"n_trials": TUNER_TRIALS, "epochs": 4, "max_inflight": 2,
             "seed": int(self.rng.integers(2**31)),
             "space": TUNER_SPACE})["job_id"]
        view = self._settle(lambda wait: client.request(
            "GET", f"/v1/projects/{pid}/tuner/{tuner_jid}", {"wait_s": wait}))
        stages["automl.tuner_job_ms"] = (clock() - t0) * 1e3
        if view["trials_completed"] != TUNER_TRIALS:
            raise BuildFailed(
                f"{view['trials_completed']}/{TUNER_TRIALS} tuner trials")

        t0 = clock()
        client.request("POST", f"/v1/projects/{pid}/profile", {})
        stages["profile.estimate_ms"] = (clock() - t0) * 1e3
        t0 = clock()
        client.request("POST", f"/v1/projects/{pid}/deploy", {"target": "cpp"})
        stages["deploy.cpp_ms"] = (clock() - t0) * 1e3

        reply = client.classify(
            pid, features=self.rng.standard_normal(int(np.prod(shape))).tolist())
        probs = reply["classification"]
        # int8 outputs dequantise in steps of 1/256 per class.
        if sorted(probs) != self.labels or reply["top"] not in probs \
                or abs(sum(probs.values()) - 1.0) > len(probs) / 256:
            raise BuildFailed(f"malformed classification {reply}")


WORKLOADS = {w.name: w for w in (ClassifySingle, ClassifyKeepalive,
                                 ClassifyConcurrent, ClassifyBatch,
                                 BuildPipeline)}
