"""Serve one archive over HTTP in its own process, for the benchmark's clients.

Run as ``python3 perfbench/server.py --archive A.xfa --id ID --cache-bytes N
[--trace]`` from the repository root.  The process prints ``READY <url>``
once the socket is bound, then reads commands from standard input, one per
line:

- ``begin`` / ``end`` mark the traced window (with ``--trace``);
- ``stop`` (or end of input) shuts the server down and prints
  ``STATS <json>``: peak resident memory, shared-cache counters, the reader's
  decode count and, with ``--trace``, the per-layer analysis of the window.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import Tracer, analyse  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--archive", required=True)
    parser.add_argument("--id", required=True)
    parser.add_argument("--cache-bytes", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.serve import ArchiveService
    from repro.serve.http import serve_in_thread
    from repro.store import SharedChunkCache

    tracer = Tracer().install() if args.trace else None
    cache = SharedChunkCache(max_bytes=args.cache_bytes)
    service = ArchiveService({args.id: args.archive}, cache=cache)
    server, thread = serve_in_thread(service)
    print(f"READY {server.url}", flush=True)

    marks = {}
    for line in sys.stdin:
        command = line.strip()
        if command in ("begin", "end"):
            marks[command] = time.perf_counter()
        elif command == "stop":
            break
    server.shutdown()
    server.server_close()
    thread.join(timeout=30)
    with service.handle(args.id).reader() as reader:
        chunks_decoded = reader.cache_stats()["chunks_decoded"]
    service.close()
    if tracer is not None:
        tracer.uninstall()
    stats = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache": {key: int(value) for key, value in cache.stats.items()},
        "chunks_decoded": int(chunks_decoded),
    }
    if tracer is not None and "begin" in marks and "end" in marks:
        stats["trace"] = analyse(tracer.spans, [(marks["begin"], marks["end"])])
    print("STATS " + json.dumps(stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
