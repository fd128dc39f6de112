"""The benchmark's workloads: set-up, timed phases and output checks.

Every workload has the same two parts, weighted differently:

- *round trips*: compress the seeded field set into a fresh archive with
  :class:`~repro.pipeline.CompressionPipeline`, then read every field back
  through a new, cold :class:`~repro.store.ArchiveReader` and check each
  field against the absolute error bound its manifest records;
- *serving*: the archive is served by ``perfbench/server.py`` in its own
  process (an :class:`~repro.serve.ArchiveService` over a
  :class:`~repro.store.SharedChunkCache` behind the stdlib HTTP server), and
  :data:`CLIENTS` closed-loop clients on persistent connections send a
  seeded mix of region, preview and manifest-revalidation requests (see
  :class:`RequestMix`).  A seeded sample of region and preview bodies is
  compared byte for byte with a direct read of the same archive afterwards.

``snapshot-roundtrip`` and ``cross-field-cfnn`` spend most of the run on
round trips and finish with a short serving phase over their last archive;
``dashboard-http`` does its round trip during set-up and spends the run
serving.  Library defaults are used throughout (``jobs=None``).
"""

from __future__ import annotations

import hashlib
import http.client
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.stats import TAIL_BEYOND, summary, tail_percentile
from perfbench.tracing import Tracer, analyse, merge

#: Closed-loop HTTP clients (one persistent connection each).
CLIENTS = 2
#: Set-up is repeated this many times; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` the round-trip workloads spend serving.
SERVE_SHARE = 0.25
#: Share of ``--seconds`` the traced run's untraced reference pass gets; the
#: traced pass repeats exactly its work.
TRACE_REFERENCE_SHARE = 0.35
#: Requests in every block of ten: region reads, coarse previews, manifest
#: revalidations.
MIX = (("region", 7), ("preview", 2), ("manifest", 1))
PREVIEW_FRACTION = 0.25
#: Share of region/preview responses whose bodies are checked afterwards.
BODY_SAMPLE_SHARE = 0.05
MAX_BODY_CHECKS = 60
#: Responses the ``dashboard-http`` serving phase waits for (up to twice its
#: length), so that p99 has 10 samples beyond it.
P99_REQUESTS = 100 * TAIL_BEYOND


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    shape: Tuple[int, ...]
    fields: Tuple[str, ...]
    codec: str
    chunk: Tuple[int, ...]
    #: ``(target, anchors)`` for a cross-field target stored from anchors.
    cross_field: Optional[Tuple[str, Tuple[str, ...]]] = None
    round_trip_in_setup: bool = False
    #: Exponent of the Zipf law that picks request windows (0: uniform).
    zipf: float = 0.0

    def config(self, jobs: Optional[int] = None):
        from repro.pipeline import FieldRule, PipelineConfig

        rules = {}
        if self.cross_field is not None:
            target, anchors = self.cross_field
            rules[target] = FieldRule(
                codec="cross-field", anchors=anchors, codec_params={"epochs": 2, "n_patches": 8}
            )
        return PipelineConfig(
            codec=self.codec, error_bound=1e-3, chunk_shape=self.chunk, jobs=jobs, fields=rules
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="snapshot-roundtrip",
            why=(
                "Default SZ/Huffman config on 4 CESM 512x1024 fields: entropy-heavy, "
                "scheduler in both directions, no chunk reused so every cache is bypassed"
            ),
            dataset="cesm",
            shape=(512, 1024),
            fields=("FLNT", "FLNTC", "LWCF", "FLUT"),
            codec="sz",
            chunk=(64, 64),
        ),
        Workload(
            name="cross-field-cfnn",
            why=(
                "The paper's method: Hurricane Wf stored by the cross-field codec from "
                "Uf/Vf/Pf; CFNN training dominates, so core/nn get the work here only"
            ),
            dataset="hurricane",
            shape=(16, 64, 64),
            fields=("Uf", "Vf", "Pf", "Wf"),
            codec="sz",
            chunk=(16, 32, 32),
            cross_field=("Wf", ("Uf", "Vf", "Pf")),
        ),
        Workload(
            name="dashboard-http",
            why=(
                "Zipf-skewed HTTP reads of a grouped-ZFP CESM archive over a shared cache "
                "of 1/4 its decoded size: serve and cache paths, no writes, no nn work"
            ),
            dataset="cesm",
            shape=(512, 1024),
            fields=("FLNT", "FLNTC", "LWCF"),
            codec="zfp",
            chunk=(64, 64),
            round_trip_in_setup=True,
            zipf=1.1,
        ),
    )
}


def make_inputs(workload: Workload, seed: int):
    """The workload's fields for ``seed``: one fixed snapshot under a seeded symmetry.

    Every seed starts from the generator's default snapshot and moves it by a
    symmetry that keeps its statistics: a periodic shift on both axes for
    CESM (its fields are sums of periodic random fields) and a flip or
    transpose of the horizontal plane for the Hurricane vortex.  The inputs
    differ per seed, but the compression ratio they allow does not, so
    ``ratio`` moves with the code and not with the draw.
    """
    from repro.data import FieldSet, make_dataset

    base = make_dataset(workload.dataset, shape=workload.shape).subset(list(workload.fields))
    rng = np.random.default_rng([seed, 0])
    if workload.dataset == "cesm":
        shift = tuple(int(rng.integers(n)) for n in workload.shape)

        def move(data):
            return np.roll(data, shift, axis=(0, 1))
    else:
        flip_y, flip_x, swap = (bool(b) for b in rng.integers(2, size=3))
        swap = swap and workload.shape[-1] == workload.shape[-2]

        def move(data):
            data = data[..., ::-1, :] if flip_y else data
            data = data[..., ::-1] if flip_x else data
            return data.swapaxes(-1, -2) if swap else data

    return FieldSet(
        (f.with_data(np.ascontiguousarray(move(f.data))) for f in base), name=base.name
    )


# ---------------------------------------------------------------------- #
# round trips
# ---------------------------------------------------------------------- #
@dataclass
class Compressed:
    seconds: float
    raw_bytes: int
    archive_bytes: int
    field_ratios: Dict[str, float]


@dataclass
class ReadBack:
    seconds: float
    psnr_db: float
    violations: List[str]
    cache: Dict[str, int]


def compress(workload: Workload, fieldset, path: Path, jobs=None) -> Compressed:
    """Compress the workload's fields into a fresh archive at ``path``."""
    from repro.pipeline import CompressionPipeline

    start = time.perf_counter()
    result = CompressionPipeline(workload.config(jobs)).compress(
        fieldset, path, fields=workload.fields
    )
    return Compressed(
        seconds=time.perf_counter() - start,
        raw_bytes=result.original_nbytes,
        archive_bytes=os.path.getsize(path),
        field_ratios={report.name: report.ratio for report in result.fields},
    )


def read_back(workload: Workload, fieldset, path: Path, jobs=None, tracer=None) -> ReadBack:
    """Read every field through a new, cold reader and check its error bound."""
    from repro.metrics import psnr
    from repro.store import ArchiveReader

    start = time.perf_counter()
    with ArchiveReader(path, jobs=jobs) as reader:
        decoded = {name: reader.read_field(name) for name in workload.fields}
        bounds = {name: reader.field(name).abs_error_bound for name in workload.fields}
        cache = {k: v for k, v in reader.cache_stats().items() if not isinstance(v, dict)}
    seconds = time.perf_counter() - start
    violations, quality = [], []
    with tracer.span("bench.check") if tracer is not None else nullcontext():
        for name, data in decoded.items():
            original = fieldset[name].data
            error = float(np.max(np.abs(data.astype(np.float64) - original)))
            if data.shape != original.shape or not error <= bounds[name] * (1 + 1e-9):
                violations.append(f"{name}: max error {error:.6g} > bound {bounds[name]:.6g}")
            quality.append(psnr(original, data))
    return ReadBack(seconds, float(np.mean(quality)), violations, cache)


# ---------------------------------------------------------------------- #
# serving
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Request:
    kind: str
    path: str
    headers: Tuple[Tuple[str, str], ...]
    field: str = ""
    region: Tuple[slice, ...] = ()
    sampled: bool = False


def _windows(shape, chunk, span: int) -> List[Tuple[slice, ...]]:
    """Chunk-aligned 2-D tiles ``span`` chunks wide on the last two axes.

    Leading axes (levels of 3-D data) are one index deep, so a tile's body
    stays a few tens of KiB on every workload.
    """
    lead = len(shape) - 2
    size = [1] * lead + [min(n, c * span) for n, c in zip(shape[lead:], chunk[lead:])]
    step = [1] * lead + list(chunk[lead:])
    starts = [range(0, n - w + 1, d) for n, w, d in zip(shape, size, step)]
    return [
        tuple(slice(a, a + w) for a, w in zip(corner, size))
        for corner in itertools.product(*starts)
    ]


def _region_text(region: Sequence[slice]) -> str:
    return ",".join(f"{s.start}:{s.stop}" for s in region)


class RequestMix:
    """A seeded request stream per client over one archive.

    Every block of ten requests holds :data:`MIX` exactly, in a seeded order.
    ``(field, window)`` pairs are ranked by a seeded permutation and drawn with
    weights ``1 / rank ** workload.zipf`` (uniform at exponent 0).
    """

    def __init__(self, archive_id: str, workload: Workload, etag: str, seed: int) -> None:
        self.archive_id, self.etag, self.seed = archive_id, etag, seed
        rng = np.random.default_rng([seed, 1])
        self.tables = {
            "region": self._table(rng, workload, _windows(workload.shape, workload.chunk, 1)),
            "preview": self._table(rng, workload, _windows(workload.shape, workload.chunk, 2)),
        }
        self.block = [kind for kind, count in MIX for _ in range(count)]

    @staticmethod
    def _table(rng, workload: Workload, windows):
        items = [(name, window) for name in workload.fields for window in windows]
        order = rng.permutation(len(items))
        weights = 1.0 / np.arange(1, len(items) + 1) ** workload.zipf
        return [items[i] for i in order], np.cumsum(weights) / weights.sum()

    def stream(self, client: int):
        rng = np.random.default_rng([self.seed, 2, client])
        base = f"/archives/{self.archive_id}"
        while True:
            for kind in rng.permutation(self.block):
                kind = str(kind)
                sampled = bool(rng.random() < BODY_SAMPLE_SHARE)
                if kind == "manifest":
                    yield Request(kind, f"{base}/manifest", (("If-None-Match", self.etag),))
                    continue
                items, cumulative = self.tables[kind]
                name, region = items[int(np.searchsorted(cumulative, rng.random(), side="right"))]
                query = f"region={_region_text(region)}"
                if kind == "preview":
                    query += f"&fraction={PREVIEW_FRACTION:g}"
                yield Request(kind, f"{base}/fields/{name}/{kind}?{query}", (), name, region, sampled)


@dataclass
class ClientLog:
    latencies: List[float] = field(default_factory=list)
    completions: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    samples: List[Tuple[Request, str]] = field(default_factory=list)
    sent: int = 0


def _client(host: str, port: int, requests, log: ClientLog, more) -> None:
    """Send ``requests`` in a closed loop while ``more()`` holds."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        for request in requests:
            if not more():
                break
            log.sent += 1
            start = time.perf_counter()
            try:
                conn.request("GET", request.path, headers=dict(request.headers))
                response = conn.getresponse()
                body = response.read()
            except (OSError, http.client.HTTPException) as exc:
                log.failures.append(f"{request.path}: {exc!r}")
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=60)
                continue
            done = time.perf_counter()
            log.latencies.append(done - start)
            log.completions.append(done)
            expected = 304 if request.kind == "manifest" else 200
            if response.status != expected:
                log.failures.append(f"{request.path}: status {response.status}")
            elif expected == 304 and body:
                log.failures.append(f"{request.path}: 304 with a {len(body)}-byte body")
            elif request.sampled:
                log.samples.append((request, hashlib.sha256(body).hexdigest()))
    finally:
        conn.close()


class ServerProcess:
    """``perfbench/server.py`` serving one archive, stopped by :meth:`stop`."""

    def __init__(self, root: Path, archive: Path, archive_id: str, cache_bytes: int, trace: bool) -> None:
        command = [
            sys.executable, str(root / "perfbench" / "server.py"), "--archive", str(archive),
            "--id", archive_id, "--cache-bytes", str(int(cache_bytes)),
        ]
        if trace:
            command.append("--trace")
        self.archive_id = archive_id
        self.proc = subprocess.Popen(
            command, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(f"server did not start (first line {line!r})")
        url = line.split()[1]
        host, port = url.split("://", 1)[1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def command(self, word: str) -> None:
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.flush()

    def get(self, path: str):
        """One GET on a connection of its own: ``(response, body)``."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response, response.read()
        finally:
            conn.close()

    def etag(self) -> str:
        response, _ = self.get(f"/archives/{self.archive_id}/manifest")
        if response.status != 200:
            raise RuntimeError(f"manifest request answered {response.status}")
        return response.getheader("ETag")

    def fill_cache(self, workload: Workload) -> List[str]:
        """Read every field in full once, so that the cache holds the archive."""
        region = _region_text([slice(0, n) for n in workload.shape])
        failures = []
        for name in workload.fields:
            path = f"/archives/{self.archive_id}/fields/{name}/region?region={region}"
            response, _ = self.get(path)
            if response.status != 200:
                failures.append(f"{path}: status {response.status}")
        return failures

    def stop(self) -> Dict:
        out, _ = self.proc.communicate("stop\n", timeout=120)
        for line in out.splitlines():
            if line.startswith("STATS "):
                return json.loads(line[len("STATS "):])
        raise RuntimeError(f"server exited with {self.proc.returncode} and no stats")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@dataclass
class ServeResult:
    wall_s: float
    latencies: List[float]
    completions: List[float]
    start: float
    failures: List[str]
    sent_per_client: List[int]
    stats: Dict


def serve(
    server: ServerProcess, mix: RequestMix, archive: Path, seconds=None, counts=None, min_requests=0
) -> ServeResult:
    """Drive ``server`` with :data:`CLIENTS` clients, then stop it and check bodies.

    Runs for ``seconds`` (and on, up to twice that, until ``min_requests``
    responses arrived), or replays exactly ``counts[i]`` requests on client
    ``i``.  The server is stopped (and its stats collected) in every case.
    """
    logs = [ClientLog() for _ in range(CLIENTS)]

    def more(i: int):
        if counts is not None:
            return lambda: logs[i].sent < counts[i]
        deadline, limit = start + seconds, start + 2 * seconds

        def more_timed() -> bool:
            now = time.perf_counter()
            answered = sum(len(log.latencies) for log in logs)
            return now < deadline or (now < limit and answered < min_requests)

        return more_timed

    try:
        start = time.perf_counter()
        server.command("begin")
        threads = [
            threading.Thread(
                target=_client, args=(server.host, server.port, mix.stream(i), logs[i], more(i))
            )
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        server.command("end")
        stats = server.stop()
    finally:
        server.kill()
    failures = [f for log in logs for f in log.failures]
    failures += check_bodies(archive, [s for log in logs for s in log.samples])
    return ServeResult(
        wall_s=wall,
        latencies=[x for log in logs for x in log.latencies],
        completions=sorted(x for log in logs for x in log.completions),
        start=start,
        failures=failures,
        sent_per_client=[log.sent for log in logs],
        stats=stats,
    )


def check_bodies(archive: Path, samples) -> List[str]:
    """Compare sampled response bodies with a direct read of ``archive``."""
    from repro.store import ArchiveReader

    failures = []
    with ArchiveReader(archive) as reader:
        for request, digest in samples[:MAX_BODY_CHECKS]:
            if request.kind == "preview":
                data, _ = reader.read_region_preview(
                    request.field, request.region, fraction=PREVIEW_FRACTION
                )
            else:
                data = reader.read_region(request.field, request.region)
            buffer = io.BytesIO()
            np.save(buffer, data, allow_pickle=False)
            if hashlib.sha256(buffer.getvalue()).hexdigest() != digest:
                failures.append(f"{request.path}: body differs from a direct read")
    return failures


# ---------------------------------------------------------------------- #
# one benchmark run
# ---------------------------------------------------------------------- #
class Run:
    """One invocation of the benchmark on one workload."""

    def __init__(self, workload: Workload, root: Path, work: Path, seed: int, seconds: float) -> None:
        self.workload, self.root, self.work = workload, root, work
        self.seed, self.seconds = seed, float(seconds)
        self.samples: Dict[str, List[float]] = {}
        self.notes: Dict[str, object] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self._archives = 0
        self.fieldset = None
        self.server: Optional[ServerProcess] = None
        self.served: Optional[Path] = None
        self.etag = ""
        self.setup_compressed: List[Compressed] = []
        self.generate_s: List[float] = []

    # -- bookkeeping --------------------------------------------------- #
    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(float(value))

    def fresh_archive(self) -> Path:
        self._archives += 1
        return self.work / f"archive-{self._archives}.xfa"

    def raw_bytes(self) -> int:
        return sum(self.fieldset[name].data.nbytes for name in self.workload.fields)

    def note_compress(self, done: Compressed) -> None:
        self.add("compress_MBps", done.raw_bytes / 1e6 / done.seconds)
        self.add("ratio", done.raw_bytes / done.archive_bytes)

    def note_read(self, done: ReadBack, record: bool = True) -> None:
        self.attempted += len(self.workload.fields)
        self.failures.extend(done.violations)
        if record:
            self.add("decompress_MBps", self.raw_bytes() / 1e6 / done.seconds)
            self.add("psnr_db", done.psnr_db)

    def start_server(self, trace: bool = False) -> None:
        """Serve the current archive.

        ``dashboard-http`` gets a cache of 1/4 of the archive's decoded bytes,
        so that its tail misses into decode.  The round-trip workloads' short
        serving phase gets twice the decoded bytes, so nothing is evicted, and
        the whole archive is read once before timing: it measures the serve
        path itself.  Their decode cost is measured by
        ``decompress_MBps``; under HTTP it swamped the serve path and made
        the cross-field workload's tail latency swing by a quarter between
        runs, as each miss there runs CFNN inference.
        """
        hot = not self.workload.round_trip_in_setup
        cache_bytes = 2 * self.raw_bytes() if hot else self.raw_bytes() // 4
        self.server = ServerProcess(self.root, self.served, "bench", cache_bytes, trace)
        self.etag = self.server.etag()
        if hot:
            self.attempted += len(self.workload.fields)
            self.failures.extend(self.server.fill_cache(self.workload))

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()
            self.server = None

    # -- phases -------------------------------------------------------- #
    def setup(self) -> None:
        """Generate the inputs; serving workloads also build and serve the archive."""
        w = self.workload
        for _ in range(SETUP_REPEATS):
            self.close()
            start = time.perf_counter()
            self.fieldset = make_inputs(w, self.seed)
            self.generate_s.append(time.perf_counter() - start)
            if w.round_trip_in_setup:
                self.served = self.fresh_archive()
                self.setup_compressed.append(compress(w, self.fieldset, self.served))
                self.start_server()
            self.add("setup_s", time.perf_counter() - start)
        for done in self.setup_compressed:
            self.note_compress(done)

    def round_trips(self, budget=None, count=None, jobs=None, tracer=None, record=True):
        """Compress and read back until ``budget`` seconds or ``count`` trips."""
        trips: List[Tuple[Compressed, ReadBack]] = []
        start = time.perf_counter()
        while True:
            path = self.fresh_archive()
            done = compress(self.workload, self.fieldset, path, jobs=jobs)
            read = read_back(self.workload, self.fieldset, path, jobs=jobs, tracer=tracer)
            trips.append((done, read))
            self.note_read(read, record)
            if record:
                self.note_compress(done)
            if self.served is not None:
                self.served.unlink()
            self.served = path
            if (count is not None and len(trips) >= count) or (
                budget is not None and time.perf_counter() - start >= budget
            ):
                return trips

    def warm_up(self) -> None:
        """One unrecorded round trip, so first-use costs are not counted as throughput."""
        self.round_trips(count=1, record=False)

    def serve(self, seconds=None, counts=None, min_requests=0, trace=False, record=True) -> ServeResult:
        """One serving phase on the running server (or a new one), which it stops."""
        if self.server is None:
            self.start_server(trace=trace)
        mix = RequestMix(self.server.archive_id, self.workload, self.etag, self.seed)
        server, self.server = self.server, None
        result = serve(server, mix, self.served, seconds, counts, min_requests)
        self.attempted += sum(result.sent_per_client)
        self.failures.extend(result.failures)
        if record:
            latencies_ms = [x * 1e3 for x in result.latencies]
            self.samples["http_p50_ms"] = latencies_ms
            if len(latencies_ms) > TAIL_BEYOND:
                percentile, tail = tail_percentile(latencies_ms)
                self.notes["http_p99_ms"] = f"p{percentile} of {len(latencies_ms)} requests"
            else:
                tail = max(latencies_ms)
                self.notes["http_p99_ms"] = f"max of only {len(latencies_ms)} requests"
            self.samples["http_p99_ms"] = [tail]
            elapsed = result.completions[-1] - result.start
            self.samples["serve_rps"] = [len(result.completions) / elapsed]
            self.notes["serve_rps"] = f"{len(result.completions)} requests in {elapsed:.2f} s"
        return result

    # -- the two kinds of run ------------------------------------------ #
    def measure(self) -> None:
        """The end-to-end run: every metric, tracing off."""
        self.setup()
        if self.workload.round_trip_in_setup:
            rss = self.serve(seconds=self.seconds, min_requests=P99_REQUESTS).stats["peak_rss_mb"]
            self.notes["peak_rss_mb"] = "serving process"
            self.note_read(read_back(self.workload, self.fieldset, self.served))
            self.notes["decompress_MBps"] = "cold read of the served archive after serving"
        else:
            start = time.perf_counter()
            self.warm_up()
            self.round_trips(budget=self.seconds * (1 - SERVE_SHARE) - (time.perf_counter() - start))
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.notes["peak_rss_mb"] = "benchmark process"
            self.serve(seconds=self.seconds * SERVE_SHARE)
        self.add("peak_rss_mb", rss)

    def trace(self) -> Dict:
        """The traced run: an untraced reference pass, a ``jobs=1`` pass, and a
        traced pass that repeats exactly the reference pass's work."""
        w = self.workload
        self.setup()
        budget = self.seconds * TRACE_REFERENCE_SHARE
        count, reference_rt_wall = 0, 0.0
        if w.round_trip_in_setup:
            reference_serve = self.serve(seconds=budget, record=False)
            reference = [(self.setup_compressed[-1], read_back(w, self.fieldset, self.served))]
            self.note_read(reference[0][1], record=False)
        else:
            self.warm_up()
            start = time.perf_counter()
            reference = self.round_trips(budget=budget * (1 - SERVE_SHARE), record=False)
            reference_rt_wall = time.perf_counter() - start
            count = len(reference)
            reference_serve = self.serve(seconds=budget * SERVE_SHARE, record=False)
        serial = []
        for _ in range(max(count, 1)):
            path = self.fresh_archive()
            serial.append((compress(w, self.fieldset, path, jobs=1),
                           read_back(w, self.fieldset, path, jobs=1)))
            self.note_read(serial[-1][1], record=False)
            path.unlink()

        reports, traced_rt_wall, traced = [], 0.0, []
        if count:
            tracer = Tracer().install()
            try:
                start = time.perf_counter()
                traced = self.round_trips(count=count, tracer=tracer, record=False)
                end = time.perf_counter()
            finally:
                tracer.uninstall()
            traced_rt_wall = end - start
            reports.append(analyse(tracer.spans, [(start, end)]))
        traced_serve = self.serve(counts=reference_serve.sent_per_client, trace=True, record=False)
        reports.append(traced_serve.stats["trace"])

        target_ratio = ratio_vs_sz = 0.0
        if w.cross_field is not None:
            target = w.cross_field[0]
            target_ratio = traced[0][0].field_ratios[target]
            ratio_vs_sz = target_ratio / self.plain_sz_ratio(target)
        reads = [read.cache for _, read in traced]
        shared = traced_serve.stats["cache"]
        hits = sum(c["hits"] for c in reads) + shared["hits"]
        lookups = hits + sum(c["misses"] for c in reads) + shared["misses"]
        return {
            "report": merge(reports),
            "overhead": (traced_rt_wall + traced_serve.wall_s)
            / (reference_rt_wall + reference_serve.wall_s)
            - 1.0,
            "speedup_compress": _median([c.seconds for c, _ in serial])
            / _median([c.seconds for c, _ in reference]),
            "speedup_decompress": _median([r.seconds for _, r in serial])
            / _median([r.seconds for _, r in reference]),
            "target_ratio": target_ratio,
            "ratio_vs_sz": ratio_vs_sz,
            "chunks_decoded": sum(c["chunks_decoded"] for c in reads)
            + traced_serve.stats["chunks_decoded"],
            "hit_ratio": hits / lookups if lookups else 0.0,
            "coalesced": shared["coalesced"],
            "generate_s": _median(self.generate_s),
        }

    def plain_sz_ratio(self, name: str) -> float:
        """``name``'s ratio when stored with plain SZ in the same chunk grid."""
        from repro.pipeline import CompressionPipeline, PipelineConfig

        config = PipelineConfig(codec="sz", error_bound=1e-3, chunk_shape=self.workload.chunk)
        result = CompressionPipeline(config).compress(
            self.fieldset, self.fresh_archive(), fields=[name]
        )
        return result.fields[0].ratio


def _median(values: Sequence[float]) -> float:
    return summary(values)["median"]
