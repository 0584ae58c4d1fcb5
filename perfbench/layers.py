"""Per-layer metrics from the traced server's spans and ``/stats`` counters.

A layer's *self* time is its span minus the part of it that its direct
child spans cover (a union, so overlapping pool-thread children count
once).  Times are means in milliseconds: per call for a layer's own
operation (``*.append_ms``, ``serving.publish_ms``, ...), per completed
read for the kernels (``content.*``, ``social.jaccard_ms``), so those add
up against the read latency.  A layer the workload never reaches reports
0.  Spans count when they start inside the timed window, except
``serving.publish_ms``, which averages every publish of the server's life
including the ones during set-up.
"""

from __future__ import annotations

import json
from collections import defaultdict

#: Parent layer -> the child layers its self time excludes.
CHILDREN = {
    "net.handle": ("serving.recommend", "sharding.recommend"),
    "serving.recommend": ("recommender.recommend",),
    "sharding.recommend": ("sharding.scatter",),
    "recommender.recommend": ("content.kappa_j", "social.jaccard"),
}


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    """Per-family counter increase between two ``/stats`` snapshots."""
    totals: dict[str, float] = defaultdict(float)
    for sign, snapshot in ((-1.0, before), (1.0, after)):
        for key, value in snapshot.get("counters", {}).items():
            totals[key.split("{", 1)[0]] += sign * float(value)
    return dict(totals)


def load_spans(path) -> list[dict]:
    """Flatten the launcher's per-thread span lists into linked records."""
    with open(path) as handle:
        threads = json.load(handle)["threads"]
    spans: list[dict] = []
    for records in threads:
        base = len(spans)
        for record in records:
            # A span still open at the drain keeps its slot, so the parent
            # indices of the others stay valid; it belongs to no layer.
            layer, start, end, parent, tag = record or (None, 0.0, 0.0, -1, None)
            spans.append(
                dict(
                    layer=layer, start=start, end=end, tag=tag,
                    parent=base + parent if parent >= 0 else None,
                    children=[],
                )
            )
    # A deadline scatter runs on pool threads: re-attach each orphaned
    # scatter span to the sharded request with its query id around it.
    open_requests = defaultdict(list)
    for n, span in enumerate(spans):
        if span["layer"] == "sharding.recommend":
            open_requests[span["tag"]].append(n)
    for n, span in enumerate(spans):
        if span["parent"] is None and span["layer"] == "sharding.scatter":
            for candidate in open_requests.get(span["tag"], ()):
                owner = spans[candidate]
                if owner["start"] <= span["start"] and span["end"] <= owner["end"]:
                    span["parent"] = candidate
                    break
    for n, span in enumerate(spans):
        if span["parent"] is not None:
            spans[span["parent"]]["children"].append(n)
    return spans


def _covered(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _self_time(spans, span) -> float:
    wanted = CHILDREN.get(span["layer"], ())
    kids = [
        (spans[c]["start"], spans[c]["end"])
        for c in span["children"]
        if spans[c]["layer"] in wanted
    ]
    return span["end"] - span["start"] - _covered(kids)


def _mean_ms(values) -> float:
    values = list(values)
    return 1000.0 * sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(window) -> dict[str, tuple[float, str]]:
    spans = window["spans"]
    start, stop = window["start"], window["stop"]
    inside = [s for s in spans if start <= s["start"] <= stop]
    by_layer = defaultdict(list)
    for span in inside:
        by_layer[span["layer"]].append(span)

    reads = [
        s for s in window["load"].samples
        if s.kind == "get" and 200 <= s.status < 300
    ]
    handles = {}
    for span in by_layer["net.handle"]:
        _, route, bench_id = span["tag"].split(" ", 2)
        if route == "recommend":
            handles[bench_id] = span
    wire = []
    for sample in reads:
        span = handles.get(sample.bench_id)
        if span is not None:
            wire.append((sample.done - sample.sent) - (span["end"] - span["start"]))
    read_count = max(1, len(reads))

    skews = []
    for span in by_layer["sharding.recommend"]:
        times = [
            spans[c]["end"] - spans[c]["start"]
            for c in span["children"]
            if spans[c]["layer"] == "sharding.scatter"
        ]
        if len(times) >= 2 and min(times) > 0:
            skews.append(max(times) / min(times))

    def self_ms(layer):
        return _mean_ms(_self_time(spans, s) for s in by_layer[layer])

    def per_read_ms(layer):
        return 1000.0 * sum(s["end"] - s["start"] for s in by_layer[layer]) / read_count

    c = window["counters"]
    publishes = [s for s in spans if s["layer"] == "serving.publish"]
    memo_hit = c.get("repro_serving_memo_hit_total", 0.0) + c.get(
        "repro_sharded_memo_hit_total", 0.0
    )
    memo_miss = c.get("repro_serving_memo_miss_total", 0.0) + c.get(
        "repro_sharded_memo_miss_total", 0.0
    )
    cache_hit = c.get("repro_http_cache_hit_total", 0.0)
    scored = c.get("repro_candidates_scored_total", 0.0)
    return {
        "net.wire_ms": (_mean_ms(wire), "ms"),
        "net.handle_self_ms": (
            _mean_ms(_self_time(spans, s) for s in handles.values()),
            "ms",
        ),
        "net.cache_hit_ratio": (
            _ratio(cache_hit, cache_hit + c.get("repro_http_cache_miss_total", 0.0)),
            "ratio",
        ),
        "interactions.append_ms": (
            _mean_ms(s["end"] - s["start"] for s in by_layer["interactions.append"]),
            "ms",
        ),
        "wal.append_ms": (
            _mean_ms(s["end"] - s["start"] for s in by_layer["wal.append"]),
            "ms",
        ),
        "serving.recommend_self_ms": (self_ms("serving.recommend"), "ms"),
        "serving.memo_hit_ratio": (_ratio(memo_hit, memo_hit + memo_miss), "ratio"),
        "serving.publish_ms": (
            _mean_ms(s["end"] - s["start"] for s in publishes),
            "ms",
        ),
        "serving.publishes": (float(len(by_layer["serving.publish"])), "count"),
        "serving.shed": (c.get("repro_serving_shed_total", 0.0), "count"),
        "sharding.recommend_self_ms": (self_ms("sharding.recommend"), "ms"),
        "sharding.scatter_ms": (
            _mean_ms(s["end"] - s["start"] for s in by_layer["sharding.scatter"]),
            "ms",
        ),
        "sharding.shard_skew": (
            sum(skews) / len(skews) if skews else 0.0,
            "ratio",
        ),
        "recommender.self_ms": (self_ms("recommender.recommend"), "ms"),
        "recommender.scored_fraction": (
            _ratio(scored, scored + c.get("repro_candidates_pruned_total", 0.0)),
            "ratio",
        ),
        "recommender.partial_ratio": (
            _ratio(
                c.get("repro_queries_partial_total", 0.0),
                c.get("repro_queries_total", 0.0),
            ),
            "ratio",
        ),
        "content.kappa_j_ms": (per_read_ms("content.kappa_j"), "ms"),
        "content.kappa_j_calls": (
            len(by_layer["content.kappa_j"]) / read_count,
            "count",
        ),
        "social.jaccard_ms": (per_read_ms("social.jaccard"), "ms"),
        "social.apply_comments_ms": (
            _mean_ms(s["end"] - s["start"] for s in by_layer["social.apply_comments"]),
            "ms",
        ),
    }
