"""The server under test, in its own process.

Builds a :class:`repro.core.Platform`, installs the deterministic
paper-scale KWS graphs into ``--projects`` projects, wraps it with
``serve_http(ApiGateway(platform, rate limits raised))`` — everything
else default, telemetry on — warms the serving tier, and prints one JSON
``ready`` line.  The generator then drives it over the socket and asks
for counters over this process's stdin/stdout:

- ``stats`` -> one JSON line: serving ``snapshot()``, WAL ``stats()``,
  job queue/run times, peak RSS (this process + serving workers);
- ``quit``  -> dump the trace (if any), stop workers, exit 0.

The control channel is a private duplicate of stdout; fd 1 itself is
pointed at stderr so a stray print from a worker process or a library
cannot corrupt a JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: The default 100 req/s refill would 429 a single identity; raised
#: through ApiGateway's public constructor.
RATE_LIMIT = 1e9

BENCH_USER = "bench"
KWS_CLASSES = 12


def project_labels(index: int) -> dict[str, int]:
    """Per-project label names, so a reply routed to the wrong project
    cannot pass the generator's oracle even though weights are shared."""
    return {f"p{index}.kw{c:02d}": c for c in range(KWS_CLASSES)}


def peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def collect_stats(platform) -> dict:
    serving = platform.serving.snapshot()
    pids = [os.getpid()] + [
        shard["worker_pid"] for shard in serving.get("per_shard", ())
        if shard.get("worker_pid") and shard.get("worker_alive")
    ]
    jobs = []
    for project in list(platform.projects.values()):
        for job in project.jobs.list_jobs():
            if job.started_at is not None and job.ended_at is not None:
                jobs.append({
                    "name": job.name, "status": job.status,
                    "queue_ms": (job.started_at - job.created_at) * 1e3,
                    "run_ms": (job.ended_at - job.started_at) * 1e3,
                })
    durable = platform._durable
    return {
        "serving": serving,
        "storage": durable.stats() if durable is not None else None,
        "jobs": jobs,
        "peak_rss_kb": sum(peak_rss_kb(pid) for pid in pids),
        "processes": len(pids),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cpu", type=int, default=None,
                        help="confine this process and its workers to one CPU")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--backend", default="thread")
    parser.add_argument("--projects", type=int, default=0)
    parser.add_argument("--warm", default=None,
                        help="precision to compile and warm per project")
    parser.add_argument("--state-dir", default=None)
    parser.add_argument("--trace", default=None,
                        help="record spans and dump them here at exit")
    args = parser.parse_args()

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    control = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    from repro.api import ApiGateway, serve_http
    from repro.core import Platform
    from repro.experiments.tasks import paper_scale_graphs

    platform = Platform(serving_workers=args.workers,
                        serving_backend=args.backend,
                        state_dir=args.state_dir)
    recorder = None
    if args.trace:
        import tracing

        recorder = tracing.SpanRecorder()
        tracing.install(recorder, platform)

    platform.register_user(BENCH_USER)
    token = platform.issue_token(BENCH_USER)
    pids = []
    if args.projects:
        kws = paper_scale_graphs("kws")
        for i in range(args.projects):
            project = platform.create_project(f"kws-{i}", owner=BENCH_USER)
            project.float_graph = kws.float_graph
            project.int8_graph = kws.int8_graph
            project.label_map = project_labels(i)
            pids.append(project.project_id)
            if args.warm:
                platform.serving.get_model(project.project_id, args.warm)

    gateway = ApiGateway(platform, rate_limit_capacity=RATE_LIMIT,
                         rate_limit_refill_per_s=RATE_LIMIT)
    server = serve_http(gateway, port=0, background=True)

    def reply(payload: dict) -> None:
        control.write(json.dumps(payload) + "\n")
        control.flush()

    reply({"event": "ready", "url": server.url, "token": token,
           "projects": pids})
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                reply(collect_stats(platform))
            elif command == "quit":
                break
    finally:
        server.shutdown()
        server.server_close()
        close = getattr(platform.serving, "close", None)
        if close is not None:
            close()
        if recorder is not None:
            recorder.dump(args.trace)
        reply({"event": "bye"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
