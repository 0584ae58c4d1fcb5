"""``repro serve`` with span timers around the layers the benchmark reports.

Usage: ``python perfbench/traced_serve.py SPANS_OUT serve INDEX [serve flags]``

Wraps the public entry point of each layer with a timer that records a
span ``(layer, start, end, parent, tag)`` into a per-thread list, then
hands the remaining arguments to ``repro.cli.main``.  Spans stay in
memory; when the SIGTERM drain returns from ``main`` they are written to
``SPANS_OUT`` as JSON.  Times are ``time.monotonic()`` readings, which
share one clock with the benchmark process, so it can cut the spans to
its own timed window.

``parent`` is the index of the enclosing span on the same thread (-1 at
a thread's top level).  A call nested directly inside a span of the same
layer (``kappa_j_scores`` calling ``kappa_j_scores_at``) is folded into
the outer span.  ``tag`` identifies the request: the ``X-Bench-Id``
header for ``RecommendService.handle``, the query id for the sharded
gateway and its scatter calls (a deadline scatter runs on pool threads,
so the benchmark re-attaches those spans to their request by tag and
time).
"""

from __future__ import annotations

import json
import sys
import threading
import time

_local = threading.local()
_threads: list[list] = []
_threads_lock = threading.Lock()


def _state():
    state = getattr(_local, "state", None)
    if state is None:
        records: list = []
        with _threads_lock:
            _threads.append(records)
        state = _local.state = ([], records)
    return state


def _traced(fn, layer: str, tag=None):
    clock = time.monotonic

    def wrapper(*args, **kwargs):
        stack, records = _state()
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        parent = stack[-1][1] if stack else -1
        slot = len(records)
        records.append(None)
        stack.append((layer, slot))
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            records[slot] = (layer, start, end, parent, tag(args) if tag else None)

    wrapper.__wrapped__ = fn
    return wrapper


def _patch(owner, attr: str, layer: str, tag=None) -> None:
    setattr(owner, attr, _traced(getattr(owner, attr), layer, tag))


def _handle_tag(args) -> str:
    # RecommendService.handle(self, method, path, params, headers, ...)
    method, path = args[1], args[2]
    headers = args[4] if len(args) > 4 and args[4] is not None else {}
    return f"{method} {path.split('/')[1]} {headers.get('X-Bench-Id', '')}"


def install() -> None:
    """Wrap every traced layer; call once per process."""
    from repro.core import pipeline, recommender
    from repro.io import wal
    from repro.measures import content
    from repro.net import interactions, server
    from repro.serving import epoch, gateway
    from repro.sharding import gateway as sharded

    _patch(server.RecommendService, "handle", "net.handle", _handle_tag)
    _patch(gateway.ServingGateway, "recommend", "serving.recommend")
    _patch(sharded.ShardedGateway, "recommend", "sharding.recommend", lambda a: a[1])
    _patch(
        sharded.ShardServingGateway,
        "scatter_recommend",
        "sharding.scatter",
        lambda a: a[2],
    )
    _patch(recommender.FusionRecommender, "recommend", "recommender.recommend")
    _patch(content.SignatureBank, "kappa_j_scores_at", "content.kappa_j")
    _patch(content.SignatureBank, "kappa_j_scores", "content.kappa_j")
    # The recommender calls the Jaccard kernel through its own module
    # global, so the name is patched where it is looked up.
    _patch(recommender, "approx_jaccard_batch", "social.jaccard")
    _patch(interactions.InteractionLog, "append", "interactions.append")
    _patch(wal.WriteAheadLog, "append", "wal.append")
    _patch(epoch.EpochManager, "publish", "serving.publish")
    _patch(pipeline.LiveCommunityIndex, "apply_comments", "social.apply_comments")


def dump(path: str) -> None:
    """Write every thread's spans; a span still open is written as null."""
    with _threads_lock:
        threads = [list(records) for records in _threads]
    with open(path, "w") as handle:
        json.dump({"threads": threads}, handle, separators=(",", ":"))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS_OUT serve INDEX [flags]", file=sys.stderr)
        return 2
    from repro import cli

    install()
    code = cli.main(argv[1:])
    dump(argv[0])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
