"""Command-line tooling over directory-persisted projects.

The paper's CLI (``edge-impulse-cli``) drives data ingestion, training and
deployment against the hosted API; this offline equivalent operates on a
project directory (see :mod:`repro.core.storage`).

Usage::

    python -m repro.cli create  --dir proj --name kws
    python -m repro.cli ingest  --dir proj --label yes clip1.wav clip2.wav
    python -m repro.cli set-impulse --dir proj --spec impulse.json
    python -m repro.cli train   --dir proj --seed 0
    python -m repro.cli test    --dir proj --precision int8
    python -m repro.cli profile --dir proj --device nano33ble
    python -m repro.cli classify --dir proj --precision int8 clip.wav
    python -m repro.cli serve   --dir proj --workers 4 clip.wav clip2.wav
    python -m repro.cli monitor --dir proj --auto-retrain
    python -m repro.cli fleet-rollout --dir proj --devices 8 --canary 0.25
    python -m repro.cli deploy  --dir proj --target cpp --out build/
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys

from repro.core.impulse import Impulse
from repro.core.project import Project
from repro.core.storage import load_project, save_project


def _cmd_create(args) -> int:
    project = Project(name=args.name, owner=args.owner)
    save_project(project, args.dir)
    print(f"created project {args.name!r} in {args.dir}")
    return 0


def _cmd_ingest(args) -> int:
    project = load_project(args.dir)
    count = 0
    for filename in args.files:
        payload = pathlib.Path(filename).read_bytes()
        sample_id = project.ingestion.ingest(
            payload, label=args.label, fmt=args.format, category=args.category
        )
        count += 1
        print(f"  {filename} -> sample {sample_id}")
    save_project(project, args.dir)
    print(f"ingested {count} file(s) as {args.label!r}")
    return 0


def _cmd_set_impulse(args) -> int:
    project = load_project(args.dir)
    spec = json.loads(pathlib.Path(args.spec).read_text())
    project.set_impulse(Impulse.from_dict(spec))
    save_project(project, args.dir)
    print(f"impulse set: {project.impulse.render()}")
    return 0


def _cmd_train(args) -> int:
    project = load_project(args.dir)
    job = project.train_async(seed=args.seed, retries=args.retries).wait()
    if job.status == "succeeded":
        save_project(project, args.dir)
    else:
        for line in job.logs:
            print(f"  {line}")
    print(f"job {job.job_id} {job.status}: {job.result if job.error is None else job.error}")
    return 0 if job.status == "succeeded" else 1


def _cmd_test(args) -> int:
    project = load_project(args.dir)
    report = project.test(precision=args.precision)
    print(report.render())
    return 0


def _stream_job_logs(job) -> None:
    """Print a job's log lines as they land, until it is terminal."""
    offset = 0
    while True:
        done = job.wait(0.5).done
        lines, offset = job.read_logs(offset)
        for line in lines:
            print(f"  {line}")
        if done:
            return


def _cmd_tune(args) -> int:
    """Run the EON Tuner as a distributed job: one child job per trial,
    ``--parallel`` trials in flight on the project's executor."""
    from repro.automl import TunerConstraints

    project = load_project(args.dir)
    constraints = TunerConstraints(device_key=args.device)
    job = project.tune_async(
        n_trials=args.trials,
        max_inflight=max(1, args.parallel),
        seed=args.seed,
        constraints=constraints,
        train_epochs=args.epochs,
    )
    print(f"tuner job {job.job_id}: {args.trials} trials, "
          f"{max(1, args.parallel)} in flight (target {args.device})")
    _stream_job_logs(job)
    if job.status != "succeeded":
        print(f"tuner job {job.status}: {job.error}")
        return 1
    tuner = project.tuners[job.job_id]
    print(tuner.results_table())
    if args.apply:
        try:
            project.apply_tuner_result(job.job_id)
        except (IndexError, RuntimeError) as exc:
            print(f"cannot apply a configuration: {exc}")
            return 1
        save_project(project, args.dir)
        print("applied best configuration to the project impulse "
              "(retrain to refresh graphs)")
    return 0


def _cmd_compress(args) -> int:
    """Run a joint compression search (per-layer precision + sparsity)
    over the project's current impulse and print the Pareto front."""
    from repro.automl import TunerConstraints

    project = load_project(args.dir)
    constraints = TunerConstraints(device_key=args.device)
    job = project.compress_async(
        n_trials=args.trials,
        max_inflight=max(1, args.parallel),
        seed=args.seed,
        constraints=constraints,
        train_epochs=args.epochs,
        placement=args.placement,
    )
    print(f"compress job {job.job_id}: {args.trials} trials, "
          f"{max(1, args.parallel)} in flight (target {args.device})")
    _stream_job_logs(job)
    if job.status != "succeeded":
        print(f"compress job {job.status}: {job.error}")
        return 1
    tuner = project.tuners[job.job_id]
    header = (f"{'Acc.':>5} {'RAM kB':>8} {'Flash kB':>9} {'Total ms':>9} "
              f"{'Reduction':>10}  Spec")
    print(header)
    print("-" * len(header))
    for row in tuner.front():
        spec = "int8 baseline" if row["baseline"] else ", ".join(
            f"{k.split('.', 1)[1]}={v}" for k, v in sorted(row["spec"].items())
        )
        print(f"{row['accuracy'] * 100:>4.0f}% {row['nn_ram_kb']:>8.1f} "
              f"{row['flash_kb']:>9.1f} {row['total_ms']:>9.1f} "
              f"{row.get('ram_flash_reduction', 0) * 100:>9.1f}%  {spec}")
    best = tuner.smallest_within()
    if best is not None:
        print(f"best within 2pp of baseline: "
              f"{best['ram_flash_reduction'] * 100:.1f}% smaller at "
              f"{best['accuracy'] * 100:.0f}% accuracy")
    return 0


@contextlib.contextmanager
def _platform_for(project):
    """A :class:`repro.core.Platform` that adopts ``project`` (its serving
    tier, monitor, fleet and rollout executor); the serving tier is
    closed when the block ends."""
    from repro.core import Platform

    platform = Platform()
    platform.register_user(project.owner)
    platform.adopt_project(project)
    try:
        yield platform
    finally:
        platform.serving.close()


def _cmd_fleet_rollout(args) -> int:
    """Simulate a staged OTA rollout: register a virtual fleet and put
    the project's model on it canary-first as a job, stamped with the
    project's model version."""
    from repro.device import VirtualDevice

    project = load_project(args.dir)
    inject = {d for d in (args.inject_failures or "").split(",") if d}
    with _platform_for(project) as platform:
        for i in range(args.devices):
            platform.fleet.register(VirtualDevice(f"dev-{i}", args.device))
        try:
            job = platform.monitor.rollout(
                project,
                canary_fraction=args.canary,
                failure_threshold=args.threshold,
                max_inflight=args.parallel,
                retries=args.retries,
                engine=args.engine,
                precision=args.precision,
                inject_failures=inject or None,
            )
        except (ValueError, RuntimeError) as exc:
            print(f"cannot start the rollout: {exc}")
            return 1
        _stream_job_logs(job)
        versions = platform.fleet.versions()
    report = job.result or {}
    print(f"rollout {job.status}: {len(report.get('updated', []))} updated, "
          f"{len(report.get('failed', []))} failed, "
          f"{len(report.get('rolled_back', []))} rolled back, "
          f"{len(report.get('skipped', []))} skipped"
          + (" [ABORTED at canary]" if report.get("aborted") else ""))
    for did, version in sorted(versions.items()):
        print(f"  {did}: {version}")
    return 0 if job.status == "succeeded" and not report.get("aborted") else 1


def _cmd_profile(args) -> int:
    project = load_project(args.dir)
    result = project.profile(args.device, precision=args.precision,
                             engine=args.engine)
    for key, value in result.items():
        print(f"  {key}: {value:.2f}" if isinstance(value, float) else f"  {key}: {value}")
    return 0


def _cmd_deploy(args) -> int:
    project = load_project(args.dir)
    artifact = project.deploy(target=args.target, engine=args.engine,
                              precision=args.precision)
    out = pathlib.Path(args.out)
    for name, data in artifact.files.items():
        target = out / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
        print(f"  wrote {target} ({len(data)} bytes)")
    print(f"deployed {artifact.target}: {artifact.total_bytes()} bytes total")
    return 0


def _classify_files(project, server, args) -> bool:
    """Ingest each recording, classify its windows as one batch through
    ``server`` and print the mean over windows (as live classification
    does).  False — after printing why — on the first file that fails."""
    from repro.data.dataset import Dataset
    from repro.data.ingestion import IngestionService
    from repro.dsp.base import extract_features
    from repro.serve import ServingError

    scratch = IngestionService(Dataset(name="classify-scratch"))
    for filename in args.files:
        try:
            payload = pathlib.Path(filename).read_bytes()
            sample_id = scratch.ingest(payload, label="?", fmt=args.format)
            sample = scratch.dataset.get(sample_id)
            windows = project.impulse.input_block.windows(sample.data)
            features = extract_features(project.impulse.dsp_blocks, windows)
            results = server.classify_batch(
                project.project_id, list(features), precision=args.precision,
            )
        except (OSError, ValueError, ServingError) as exc:
            print(f"  {filename}: error: {exc}")
            return False
        labels = results[0]["classification"].keys()
        mean = {
            label: sum(r["classification"][label] for r in results) / len(results)
            for label in labels
        }
        top = max(mean, key=mean.get)
        detail = ", ".join(f"{label}={p:.3f}" for label, p in
                           sorted(mean.items(), key=lambda kv: -kv[1]))
        print(f"  {filename}: {top} ({detail}) [{len(results)} window(s)]")
    return True


def _cmd_classify(args) -> int:
    """Classify raw recordings through the serving layer (compiled model,
    micro-batched over each file's windows)."""
    project = load_project(args.dir)
    if project.impulse is None:
        print("project has no impulse; run set-impulse and train first")
        return 1

    from repro.serve import ModelServer

    with ModelServer.for_project(project) as server:
        if not _classify_files(project, server, args):
            return 1
        stats = server.snapshot()
    print(f"served {stats['requests']} window(s) in {stats['batches']} batch(es), "
          f"mean batch size {stats['mean_batch_size']:.1f}")
    return 0


def _cmd_serve_http(args) -> int:
    """Expose the project over the real HTTP gateway: load it into a
    Platform, issue an API token for the owner, and serve every /v1/
    route over sockets until interrupted.

    With ``--state-dir`` the platform is durable: tokens, project
    metadata and job lifecycles are journaled through the WAL + snapshot
    engine, and a restart with the same directory reopens the prior
    world (the ``--dir`` project is only imported on first boot)."""
    from repro.api import serve_http
    from repro.core import Platform

    platform = Platform(
        serving_workers=max(1, args.workers),
        serving_backend="process" if args.process else "thread",
        state_dir=args.state_dir,
        resume_jobs=args.resume_jobs,
    )
    if args.state_dir and len(platform.projects):
        # Restarting into recovered state: the --dir tree was already
        # imported (and has been checkpointed since) on a prior boot.
        pid = sorted(platform.projects.keys())[0]
        project = platform.get_project(pid)
        print(f"recovered {len(platform.projects)} project(s) and "
              f"{len(platform.api_tokens)} token(s) from {args.state_dir}")
    else:
        project = load_project(args.dir)
        if project.owner not in platform.users:
            platform.register_user(project.owner)
        platform.adopt_project(project)
    if args.token:
        token = platform.adopt_token(args.token, project.owner)
    else:
        token = platform.issue_token(project.owner)

    server = serve_http(platform.gateway, host=args.host, port=args.http)
    pid = project.project_id
    print(f"API gateway v1 listening on {server.url} "
          f"(project {pid}: {project.name!r})")
    print(f"  token: {token}")
    print("  try:")
    print(f"    curl -H 'Authorization: Bearer {token}' "
          f"{server.url}/v1/projects/{pid}")
    print(f"    curl {server.url}/v1/openapi.json")
    print(f"    POST /v1/projects/{pid}/train  then  "
          f"GET /v1/projects/{pid}/jobs/<jid>/logs  (chunked stream)")
    print(f"    POST /v1/projects/{pid}/classify   GET /v1/serving/stats   "
          f"GET /v1/projects/{pid}/monitor")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.shutdown()
        server.server_close()
        # Graceful shutdown: checkpoint loaded projects + compact the
        # WAL (a hard kill instead relies on replay at next boot).
        platform.flush()
    return 0


def _cmd_serve(args) -> int:
    """Classify recordings through the multi-worker sharded serving tier.

    Each file's windows are admitted to the owning shard's queue as one
    group and its worker drains them in batched gulps.  Shards partition
    the model cache by (project, precision), so a single project's
    traffic lands on one shard — the other ``--workers``
    shards are capacity for *other* models, which is where the
    multi-worker speedup shows (see
    ``benchmarks/bench_serving_throughput.py``); the per-shard stats
    printed at the end make the placement visible.

    With ``--process`` the shards run as worker *processes* over the
    frame protocol (``repro.core.workers``), so batched invokes execute
    on real cores; with ``--http PORT`` the command instead serves the
    project over the real HTTP gateway (every ``/v1/`` route, chunked
    job-log streaming, OpenAPI at ``/v1/openapi.json``).
    """
    if args.http is not None:
        return _cmd_serve_http(args)
    if not args.files:
        print("serve needs recordings to classify (or --http PORT "
              "to expose the /v1/ HTTP gateway)")
        return 1
    project = load_project(args.dir)
    if project.impulse is None:
        print("project has no impulse; run set-impulse and train first")
        return 1

    from repro.serve import ModelServer

    with ModelServer.for_project(
        project, placement="process" if args.process else "thread",
        workers=args.workers,
    ) as server:
        if not _classify_files(project, server, args):
            return 1
        stats = server.snapshot()
    print(f"served {stats['requests']} window(s) across {stats['workers']} worker shard(s): "
          f"{stats['batches']} batch(es), mean batch size {stats['mean_batch_size']:.1f}")
    for shard in stats["per_shard"]:
        if shard["requests"]:
            print(f"  {shard['name']}: {shard['requests']} request(s), "
                  f"{shard['drains']} drain(s), {shard['cache_size']} cached model(s)")
    return 0


def _cmd_monitor(args) -> int:
    """Offline closed-loop demo over a directory project: serve baseline
    traffic through the monitored serving layer, pin it as the reference,
    inject drifted traffic (raw-domain drift, pushed device-style so the
    raw windows are retained as drift-loop candidates), then run one
    monitor sweep and print the alerts (optionally letting the
    auto-retrain loop route the drift windows back and retrain)."""
    import numpy as np

    project = load_project(args.dir)
    if project.impulse is None or project.float_graph is None:
        print("project has no trained model; run set-impulse and train first")
        return 1
    samples = project.dataset.samples()[: args.windows]
    if not samples:
        print("project has no data to replay")
        return 1

    from repro.active.embeddings import feature_sketch
    from repro.dsp.base import extract_features
    from repro.monitor import TelemetryRecord, model_version_of
    from repro.monitor.telemetry import SKETCH_DIM

    pid = project.project_id
    print(f"monitoring project {pid} offline "
          f"(live twin over HTTP: GET /v1/projects/{pid}"
          f"/monitor via `serve --http PORT`)")

    def first_window(data) -> np.ndarray:
        windows = project.impulse.input_block.windows(data)[:1]
        return extract_features(project.impulse.dsp_blocks, windows).reshape(-1)

    with _platform_for(project) as platform:
        service, server = platform.monitor, platform.serving
        service.set_policy(pid, {
            "reference_size": len(samples), "min_records": min(8, len(samples)),
            "window": 2 * len(samples), "auto_retrain": args.auto_retrain,
            "auto_rollout": False,
        })
        baseline = [first_window(s.data) for s in samples]
        server.classify_batch(pid, baseline, precision=args.precision)
        service.set_reference(pid)
        print(f"baseline: served {len(baseline)} window(s), reference pinned")

        # Drift in the raw domain, classify through the serving layer, and
        # push one device-style record per input that *retains the raw
        # recording* — exactly what a monitored fleet device emits, and what
        # the auto-retrain loop routes back through the ingestion service.
        server.telemetry = None  # the push below is the drift-phase record
        rng = np.random.default_rng(0)
        version = model_version_of(project)
        for s in samples:
            drifted = (s.data * args.drift_gain
                       + rng.normal(0, args.drift_noise, size=s.data.shape)
                       ).astype(np.float32)
            row = first_window(drifted)
            result = server.classify(pid, row, precision=args.precision)
            service.telemetry.extend((TelemetryRecord(
                pid, model_version=version, top=result["top"],
                confidence=max(result["classification"].values()),
                sketch=feature_sketch(row.reshape(1, -1), dim=SKETCH_DIM)[0],
                raw=drifted, source="cli-replay",
            ),))
        print(f"injected {len(samples)} drifted recording(s) "
              f"(gain {args.drift_gain}, noise {args.drift_noise})")

        sweep = service.sweep(pid).wait()
        for line in sweep.logs:
            print(f"  {line}")
        snapshot = service.snapshot(pid)
        print(f"monitor status: {snapshot['health']}")
        for result in snapshot["detectors"]:
            flag = "TRIGGERED" if result["triggered"] else "ok"
            print(f"  {result['detector']:<22} score={result['score']:.3f} "
                  f"threshold={result['threshold']:.3f} [{flag}]")
        for alert in service.alerts(pid):
            print(f"  ALERT #{alert['alert_id']} {alert['severity']}: "
                  f"{alert['message']}"
                  + (f" -> {alert['action']}" if alert['action'] else ""))
        if not (args.auto_retrain and snapshot.get("loop_jobs")):
            return 0
        loop = service.monitor(pid).loop_jobs[-1].wait()
    for line in loop.logs:
        print(f"  {line}")
    if loop.status != "succeeded":
        print(f"closed loop {loop.status}: {loop.error}")
        return 1
    save_project(project, args.dir)
    print(f"closed loop complete: model revision "
          f"{project.model_revision} saved back to {args.dir}")
    return 0


def _cmd_summary(args) -> int:
    project = load_project(args.dir)
    print(project.dataset.summary())
    if project.impulse is not None:
        print(project.impulse.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-cli",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("create", help="create a project directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--owner", default="cli")
    p.set_defaults(fn=_cmd_create)

    p = sub.add_parser("ingest", help="upload data files")
    p.add_argument("--dir", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--format", default=None)
    p.add_argument("--category", default=None, choices=(None, "train", "test"))
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("set-impulse", help="configure the impulse from JSON")
    p.add_argument("--dir", required=True)
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=_cmd_set_impulse)

    p = sub.add_parser("train", help="run a training job")
    p.add_argument("--dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=0,
                   help="re-queue the job this many times on failure")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("test", help="evaluate on the holdout split")
    p.add_argument("--dir", required=True)
    p.add_argument("--precision", default="float32", choices=("float32", "int8"))
    p.set_defaults(fn=_cmd_test)

    p = sub.add_parser("tune", help="distributed EON Tuner search")
    p.add_argument("--dir", required=True)
    p.add_argument("--trials", type=int, default=6)
    p.add_argument("--parallel", type=int, default=4,
                   help="max trials in flight (1 = serial order, same result)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--device", default="nano33ble")
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--apply", action="store_true",
                   help="apply the best configuration to the project impulse")
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("compress",
                       help="joint precision/sparsity compression search")
    p.add_argument("--dir", required=True)
    p.add_argument("--trials", type=int, default=6)
    p.add_argument("--parallel", type=int, default=4,
                   help="max trials in flight (1 = serial order, same result)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--device", default="nano33ble")
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--placement", choices=("thread", "process"),
                   default="thread", help="run trials in threads or "
                   "worker processes")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("fleet-rollout",
                       help="staged OTA rollout job over a virtual fleet")
    p.add_argument("--dir", required=True)
    p.add_argument("--devices", type=int, default=8)
    p.add_argument("--device", default="nano33ble",
                   help="device profile for the virtual fleet")
    p.add_argument("--canary", type=float, default=0.25)
    p.add_argument("--threshold", type=float, default=0.0,
                   help="abort when the canary failure rate exceeds this")
    p.add_argument("--parallel", type=int, default=4,
                   help="max concurrent device flashes")
    p.add_argument("--retries", type=int, default=0,
                   help="per-device flash retry budget")
    p.add_argument("--engine", default="eon", choices=("eon", "tflm"))
    p.add_argument("--precision", default="int8", choices=("float32", "int8"))
    p.add_argument("--inject-failures", default=None,
                   help="comma-separated device ids whose transfer corrupts")
    p.set_defaults(fn=_cmd_fleet_rollout)

    p = sub.add_parser("profile", help="estimate on-device resources")
    p.add_argument("--dir", required=True)
    p.add_argument("--device", default="nano33ble")
    p.add_argument("--precision", default="int8", choices=("float32", "int8"))
    p.add_argument("--engine", default="eon", choices=("eon", "tflm"))
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("deploy", help="export a deployment artifact")
    p.add_argument("--dir", required=True)
    p.add_argument("--target", default="cpp",
                   choices=("cpp", "arduino", "eim", "firmware", "wasm"))
    p.add_argument("--engine", default="eon", choices=("eon", "tflm"))
    p.add_argument("--precision", default="int8", choices=("float32", "int8"))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_deploy)

    p = sub.add_parser("classify",
                       help="classify raw recordings via the serving layer")
    p.add_argument("--dir", required=True)
    p.add_argument("--precision", default="int8", choices=("float32", "int8"))
    p.add_argument("--format", default=None)
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("serve",
                       help="classify recordings via multi-worker sharded "
                            "serving, or expose the /v1/ HTTP gateway",
                       epilog="With --http PORT the project is served over "
                              "the v1 HTTP API: GET /v1/openapi.json, "
                              "POST /v1/projects/<pid>/train, "
                              "GET /v1/projects/<pid>/jobs/<jid>/logs "
                              "(chunked log stream), "
                              "POST /v1/projects/<pid>/classify, "
                              "GET /v1/projects/<pid>/monitor — see "
                              "docs/api.md and the repro.client SDK.")
    p.add_argument("--dir", required=True)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--process", action="store_true",
                   help="run serving shards as worker processes "
                        "(repro.core.workers) instead of threads")
    p.add_argument("--http", type=int, default=None, metavar="PORT",
                   help="serve the /v1/ HTTP gateway on this port "
                        "(0 = ephemeral) instead of classifying files")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address for --http")
    p.add_argument("--token", default=None,
                   help="use this API token instead of minting one")
    p.add_argument("--state-dir", default=None, metavar="DIR",
                   help="durable control-plane state: journal tokens, "
                        "project metadata and job lifecycles under DIR "
                        "(WAL + snapshots) and recover them on restart")
    p.add_argument("--resume-jobs", action="store_true",
                   help="with --state-dir: resubmit re-runnable jobs "
                        "(train) that a crash interrupted")
    p.add_argument("--precision", default="int8", choices=("float32", "int8"))
    p.add_argument("--format", default=None)
    p.add_argument("files", nargs="*")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("monitor",
                       help="replay traffic with drift injection through "
                            "the monitored serving layer",
                       epilog="The same monitor is queryable over HTTP via "
                              "`serve --http`: GET /v1/projects/<pid>/monitor, "
                              "GET /v1/projects/<pid>/monitor/alerts, "
                              "POST /v1/projects/<pid>/monitor/policy.")
    p.add_argument("--dir", required=True)
    p.add_argument("--windows", type=int, default=32,
                   help="windows replayed per phase (baseline + drifted)")
    p.add_argument("--drift-gain", type=float, default=2.5,
                   help="gain applied to the drifted traffic")
    p.add_argument("--drift-noise", type=float, default=0.5,
                   help="noise stddev added to the drifted traffic")
    p.add_argument("--precision", default="int8", choices=("float32", "int8"))
    p.add_argument("--auto-retrain", action="store_true",
                   help="let the closed loop retrain on the drift window "
                        "and save the new revision")
    p.set_defaults(fn=_cmd_monitor)

    p = sub.add_parser("summary", help="show dataset + impulse state")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=_cmd_summary)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
