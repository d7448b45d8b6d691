"""Worker-process entry point: ``python -m repro.core.workers --fd N``.

Spawned by :class:`repro.core.workers.client.WorkerHandle`, which passes
its end of a socketpair as the inherited file descriptor ``N``.
"""

from __future__ import annotations

import argparse
import socket
import sys

from repro.core.workers.worker import worker_main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.core.workers")
    parser.add_argument(
        "--fd", type=int, required=True, help="inherited socket file descriptor"
    )
    args = parser.parse_args(argv)
    worker_main(socket.socket(fileno=args.fd))
    return 0


if __name__ == "__main__":
    sys.exit(main())
