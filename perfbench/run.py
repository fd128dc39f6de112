"""The repository's end-to-end benchmark: one command, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload snapshot-roundtrip --seed 1 --seconds 20 --trace 0

``--trace 0`` measures every end-to-end metric with tracing off.  ``--trace 1``
is the traced run: an untraced reference pass, a ``jobs=1`` pass, and a traced
pass that repeats the reference pass's work, reporting per-layer self time,
parallel efficiency and the tracing overhead.  Inputs come from ``--seed``
only.  Human-readable tables and a ``REPORT`` line (machine fingerprint, seed,
per-metric quartiles and sample counts) are printed first; the last line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("compress_MBps", "MB/s"),
    ("decompress_MBps", "MB/s"),
    ("ratio", "x"),
    ("psnr_db", "dB"),
    ("serve_rps", "1/s"),
    ("http_p50_ms", "ms"),
    ("http_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: ``(name, unit, value from the traced run)`` of every per-layer metric.
PER_LAYER = (
    ("encoding.entropy.encode_s", "s", lambda t: t["self"]("encoding.entropy.encode")),
    ("encoding.entropy.decode_s", "s", lambda t: t["self"]("encoding.entropy.decode")),
    ("encoding.entropy.calls", "count", lambda t: t["count"]("encoding.entropy.encode.calls")
     + t["count"]("encoding.entropy.decode.calls")),
    ("sz.compress.self_s", "s", lambda t: t["self"]("sz.compress")),
    ("sz.decompress.self_s", "s", lambda t: t["self"]("sz.decompress")),
    ("zfp.decompress.self_s", "s", lambda t: t["self"]("zfp.decompress")),
    ("zfp.preview.self_s", "s", lambda t: t["self"]("zfp.preview")),
    ("core.train_s", "s", lambda t: t["self"]("core.train")),
    ("core.predict_s", "s", lambda t: t["self"]("core.predict")),
    ("core.compress.self_s", "s", lambda t: t["self"]("core.compress")),
    ("core.target_ratio", "x", lambda t: t["target_ratio"]),
    ("core.ratio_vs_sz", "x", lambda t: t["ratio_vs_sz"]),
    ("parallel.tasks", "count", lambda t: t["count"]("parallel.tasks")),
    ("parallel.task_s", "s", lambda t: t["count"]("parallel.task_s")),
    ("parallel.efficiency", "share", lambda t: _share(t["count"]("parallel.task_s"),
                                                      t["count"]("parallel.capacity_s"))),
    ("parallel.speedup_vs_serial.compress", "x", lambda t: t["speedup_compress"]),
    ("parallel.speedup_vs_serial.decompress", "x", lambda t: t["speedup_decompress"]),
    ("parallel.scheduler.self_s", "s", lambda t: t["self"]("parallel.scheduler")),
    ("parallel.task.self_s", "s", lambda t: t["self"]("parallel.task")),
    ("store.fetch.self_s", "s", lambda t: t["self"]("store.fetch")),
    ("store.io.self_s", "s", lambda t: t["self"]("store.io")),
    ("store.io.bytes", "bytes", lambda t: t["count"]("store.io.bytes")),
    ("store.writer.self_s", "s", lambda t: t["self"]("store.writer")),
    ("store.reader.self_s", "s", lambda t: t["self"]("store.reader")),
    ("store.chunks_decoded", "count", lambda t: t["chunks_decoded"]),
    ("store.cache.hit_ratio", "share", lambda t: t["hit_ratio"]),
    ("store.cache.coalesced", "count", lambda t: t["coalesced"]),
    ("serve.dispatch.self_s", "s", lambda t: t["self"]("serve.dispatch")),
    ("serve.requests", "count", lambda t: t["count"]("serve.dispatch.calls")),
    ("serve.status.200", "count", lambda t: t["count"]("serve.status.200")),
    ("serve.status.304", "count", lambda t: t["count"]("serve.status.304")),
    ("serve.bytes_out", "bytes", lambda t: t["count"]("serve.bytes_out")),
    ("bench.check.self_s", "s", lambda t: t["self"]("bench.check")),
    ("data.generate_s", "s", lambda t: t["generate_s"]),
    ("trace.wall_s", "s", lambda t: t["report"]["wall_s"]),
    ("trace.other_s", "s", lambda t: t["report"]["other_s"]),
    ("trace.unaccounted", "share", lambda t: t["unaccounted"]),
    ("trace.overhead", "share", lambda t: t["overhead"]),
)

#: The additivity criterion: layer rows plus ``other`` within this share of wall.
MAX_UNACCOUNTED = 0.05


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def fingerprint() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(run) -> tuple:
    from perfbench.stats import summary

    metrics, rows = {}, []
    for name, unit in END_TO_END:
        stats = summary(run.samples[name])
        metrics[name] = {"value": stats["median"], "unit": unit}
        rows.append({"metric": name, "unit": unit, **stats, "note": run.notes.get(name, "")})
    return metrics, rows


def per_layer(traced: dict) -> tuple:
    """Every :data:`PER_LAYER` metric, the rows' sum, and its miss of the wall."""
    report = traced["report"]
    accounted = sum(report["self_s"].values()) + report["other_s"]
    unaccounted = abs(accounted - report["wall_s"]) / report["wall_s"]
    view = dict(
        traced,
        unaccounted=unaccounted,
        self=lambda name: report["self_s"].get(name, 0.0),
        count=lambda name: report["counts"].get(name, 0.0),
    )
    metrics = {name: {"value": float(value(view)), "unit": unit} for name, unit, value in PER_LAYER}
    return metrics, accounted, unaccounted


def print_table(rows, columns) -> None:
    widths = [max(len(str(c)), *(len(str(r[c])) for r in rows)) for c in columns]
    print("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
    for row in rows:
        print("  ".join(str(row[c]).ljust(w) for c, w in zip(columns, widths)))


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS, Run

    parser = argparse.ArgumentParser(description="End-to-end benchmark of the repro library")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    run = Run(WORKLOADS[args.workload], ROOT, work, args.seed, args.seconds)
    try:
        traced = run.trace() if args.trace else run.measure()
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": fingerprint(),
    }
    print(" ".join(f"{k}={v}" for k, v in header.items() if k != "machine"))
    print("machine " + json.dumps(header["machine"]))
    fail_rate = len(run.failures) / run.attempted
    if args.trace:
        metrics, accounted, unaccounted = per_layer(traced)
        report = traced["report"]
        wall = report["wall_s"]
        rows = [
            {"layer": name, "self_s": _fmt(seconds), "share": f"{seconds / wall:.1%}"}
            for name, seconds in sorted(report["self_s"].items(), key=lambda kv: -kv[1])
        ]
        rows.append({"layer": "other", "self_s": _fmt(report["other_s"]),
                     "share": f"{report['other_s'] / wall:.1%}"})
        print_table(rows, ("layer", "self_s", "share"))
        print(f"rows sum {_fmt(accounted)} s vs traced wall {_fmt(wall)} s "
              f"(unaccounted {unaccounted:.2%}, limit {MAX_UNACCOUNTED:.0%}); "
              f"tracing overhead {traced['overhead']:+.1%} over the untraced pass")
        print_table(
            [{"metric": k, "unit": v["unit"], "value": _fmt(v["value"])} for k, v in metrics.items()],
            ("metric", "unit", "value"),
        )
        header["per_layer"] = metrics
    else:
        metrics, rows = end_to_end(run)
        for row in rows:
            for key in ("median", "q1", "q3"):
                row[key] = _fmt(row[key])
        print_table(rows, ("metric", "unit", "median", "q1", "q3", "n", "note"))
        header["end_to_end"] = rows
    print(f"fail_rate {fail_rate:.6g} ({len(run.failures)} failed of {run.attempted} attempted)")
    for failure in run.failures[:20]:
        print(f"  failure: {failure}")
    header.update(attempted=run.attempted, failed=len(run.failures), fail_rate=fail_rate)
    print("REPORT " + json.dumps(header))
    correct = not run.failures and (not args.trace or unaccounted <= MAX_UNACCOUNTED)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no library source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
