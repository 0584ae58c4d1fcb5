"""The serving benchmark: the real ``repro serve`` driven over loopback HTTP.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot_keepalive --seed 1 --seconds 10 --trace 0

For the chosen workload the command generates (or reuses) a seeded
community, spawns ``python -m repro.cli serve`` from the checkout's
``src`` and drives it with one load-generator process over at most two
connections for ``--seconds`` seconds.  Every distinct answer is checked
bit for bit (ids and scores) against a serial ``FusionRecommender`` over
the same inputs; in ``interact_mix`` the server's interaction log is
replayed into the oracle up to the ``applied_seq`` each answer reports.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
same workload once untraced and once through ``traced_serve.py`` and
prints the per-layer metrics instead (tracing never feeds an end-to-end
number).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import sys
import threading
import time

import numpy as np

# Sibling modules: the script's own directory leads sys.path.
import inputs
import layers
import load
import oracle
from server import Server

#: Server spawns per untraced run; ``setup_s`` is their median.
SETUP_SPAWNS = 3
TOP_K = 10

WORKLOADS = {
    # Returning users on reused connections asking for hot videos: the
    # HTTP write path and the response cache/memo carry most requests.
    "hot_keepalive": dict(
        videos=2000, shards=1, keepalive=True, deadline_ms=None,
        apply_every=0, write_share=0.0,
    ),
    # Every query a different video under a generous deadline, over
    # fresh connections: the scan, the kappa-J kernel and scatter-gather
    # do the work, keep-alive and the caches are bypassed.
    "cold_deadline_sharded": dict(
        videos=4000, shards=2, keepalive=False, deadline_ms=10000,
        apply_every=0, write_share=0.0,
    ),
    # The reads of hot_keepalive with interactions alongside; every 8
    # fold into Eq.-8 maintenance, publish an epoch and invalidate the
    # cache and memo.
    "interact_mix": dict(
        videos=2000, shards=1, keepalive=True, deadline_ms=None,
        apply_every=8, write_share=0.3,
    ),
}

#: Queries of the post-drain oracle sample in ``interact_mix``.
FINAL_SAMPLE = 16


class _Locked:
    """Thread-safe ``next()`` over one shared iterator."""

    def __init__(self, iterator) -> None:
        self._iterator = iterator
        self._lock = threading.Lock()

    def __iter__(self):
        return self

    def __next__(self):
        with self._lock:
            return next(self._iterator)


def zipf_sampler(video_ids: list[str], rng: np.random.Generator):
    """Zipf(s=1) over a seeded permutation of the catalogue."""
    order = rng.permutation(len(video_ids))
    weights = 1.0 / np.arange(1, len(video_ids) + 1)
    cdf = np.cumsum(weights / weights.sum())

    def draw(count: int) -> list[str]:
        ranks = np.minimum(np.searchsorted(cdf, rng.random(count)), len(cdf) - 1)
        return [video_ids[order[r]] for r in ranks]

    return draw


def _mixed_stream(video_ids, seed: int, client: int, write_share: float):
    """One client's Zipf reads, with exactly ``write_share`` interactions.

    Requests come in blocks of ten holding ``round(10 * write_share)``
    interactions at seeded positions, so every seed offers the same mix.
    An interaction comes from a pool of 64 users (32 existing, 32 new)
    onto a Zipf-drawn video.
    """
    rng = np.random.default_rng([seed, 1, client])
    draw = zipf_sampler(video_ids, rng)
    num_users = max(60, len(video_ids) // 8)
    users = [f"u{j:05d}" for j in rng.choice(num_users, 32, replace=False)]
    users += [f"w{j:03d}" for j in range(32)]
    writes = round(10 * write_share)
    n = 0
    while True:
        is_write = np.zeros(10, dtype=bool)
        is_write[rng.permutation(10)[:writes]] = True
        for key, write in zip(draw(10), is_write):
            n += 1
            if not write:
                yield load.Request("get", key)
                continue
            doc = {
                "user_id": users[int(rng.integers(len(users)))],
                "video_id": key,
                "watched_percent": int(rng.integers(0, 101)),
                "liked": int(rng.integers(-1, 2)),
                "interaction_id": f"bench-{seed}-{client}-{n}",
            }
            yield load.Request("post", key, json.dumps(doc).encode("utf-8"))


def drive(spec, server: Server, video_ids, seed: int, seconds: float):
    """Run the workload's traffic for *seconds*; returns the window record."""
    if spec["deadline_ms"] is None:
        streams = [
            _mixed_stream(video_ids, seed, c, spec["write_share"]) for c in range(2)
        ]
    else:
        order = np.random.default_rng([seed, 2]).permutation(len(video_ids))
        shared = _Locked(
            load.Request("get", video_ids[i], deadline_ms=spec["deadline_ms"])
            for i in order
        )
        streams = [shared, shared]
    before = server.stats()
    cpu_before = server.cpu_seconds()
    start = time.monotonic()
    result = load.closed_loop(
        server.host, server.port, streams, spec["keepalive"], start + seconds
    )
    stop = time.monotonic()
    cpu = server.cpu_seconds() - cpu_before
    after = server.stats()
    return dict(
        load=result, start=start, stop=stop, cpu=cpu,
        counters=layers.counter_delta(before, after),
    )


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (failed requests count as infinitely slow)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ok(sample) -> bool:
    return 200 <= sample.status < 300


def e2e_metrics(window) -> tuple[dict, dict]:
    samples = window["load"].samples
    reads = [s for s in samples if s.kind == "get"]
    latencies = [(s.done - s.sent) * 1000.0 if _ok(s) else math.inf for s in reads]
    completed = sum(1 for s in samples if _ok(s))
    metrics = {
        "throughput_rps": (
            sum(1 for s in reads if _ok(s)) / (window["stop"] - window["start"]),
            "1/s",
        ),
        "p50_ms": (_percentile(latencies, 0.50), "ms"),
        "p90_ms": (_percentile(latencies, 0.90), "ms"),
        "cpu_ms_per_request": (window["cpu"] * 1000.0 / max(1, completed), "ms"),
    }
    report = {
        "failures": [s.error or f"HTTP {s.status}" for s in samples if not _ok(s)][:5],
        "read_samples": len(reads),
        "write_samples": len(samples) - len(reads),
        "p90_supported": len(reads) * 0.1 >= 10,
        "connections": window["load"].connections,
        "threads": window["load"].threads,
    }
    writes = [(s.done - s.sent) * 1000.0 for s in samples if s.kind == "post"]
    if writes:
        report["write_p50_ms"] = _percentile(writes, 0.5)
        report["write_max_ms"] = max(writes)
    return metrics, report


def setup_only(spec, root, run_dir, archive, tag: str) -> float:
    """Spawn a server, wait for ``/readyz``, stop it; returns its set-up time."""
    workdir = run_dir / tag
    workdir.mkdir()
    server = Server(root, inputs.fresh_copy(archive, workdir), workdir, spec)
    try:
        server.start()
    finally:
        server.stop()
    return server.setup_s


def measure(spec, args, root, run_dir, archive, video_ids, traced: bool, tag: str):
    """One server spawn + one timed window; returns the window record."""
    workdir = run_dir / tag
    workdir.mkdir()
    target = inputs.fresh_copy(archive, workdir)
    spans = workdir / "spans.json" if traced else None
    server = Server(root, target, workdir, spec, spans)
    try:
        server.start()
        window = drive(spec, server, video_ids, args.seed, args.seconds)
        if spec["apply_every"]:
            window["final"] = server.sample(
                oracle.final_sample(video_ids, args.seed, FINAL_SAMPLE), TOP_K
            )
        window["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
    window["setup_s"] = server.setup_s
    window["log"] = workdir / "interactions.wal"
    if spans is not None:
        window["spans"] = layers.load_spans(spans)
    return window


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(
            f"error: {root} holds no src/repro; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = WORKLOADS[args.workload]
    bench_dir = root / ".perfbench"
    run_dir = bench_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        series, descriptors = inputs.synthesize(spec["videos"], args.seed)
        archive = inputs.archive(
            bench_dir, spec["shards"], args.seed, series, descriptors
        )
        video_ids = sorted(series)
        windows = []
        if args.trace:
            windows.append(
                measure(spec, args, root, run_dir, archive, video_ids, False, "plain")
            )
            windows.append(
                measure(spec, args, root, run_dir, archive, video_ids, True, "traced")
            )
        else:
            setups = [
                setup_only(spec, root, run_dir, archive, f"setup{n}")
                for n in range(SETUP_SPAWNS - 1)
            ]
            windows.append(
                measure(spec, args, root, run_dir, archive, video_ids, False, "plain")
            )
            setups.append(windows[0]["setup_s"])

        problems = [
            problem
            for window in windows
            for problem in oracle.verify(spec, window, series, descriptors, TOP_K)
        ]
        plain = windows[0]
        metrics, report = e2e_metrics(plain)
        attempted = sum(len(w["load"].samples) for w in windows)
        failed = sum(not _ok(s) for w in windows for s in w["load"].samples)
        if args.trace:
            traced_metrics, _ = e2e_metrics(windows[1])
            out = layers.per_layer(windows[1])
            base = metrics["throughput_rps"][0]
            out["trace.overhead_ratio"] = (
                traced_metrics["throughput_rps"][0] / base if base else 0.0,
                "ratio",
            )
        else:
            out = dict(metrics)
            out["setup_s"] = (statistics.median(setups), "s")
            out["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
            report["setup_runs_s"] = setups
        report["workload"] = args.workload
        report["seed"] = args.seed
        report["problems"] = problems[:20]
        for name, (value, unit) in sorted(out.items()):
            print(f"{name:32s} {value:14.6f} {unit}")
        print("report " + json.dumps(report, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": not problems,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in out.items()
                    },
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
