"""Output check: every served answer against a serial ``FusionRecommender``.

The oracle is one single-index :class:`~repro.core.LiveCommunityIndex`
built in process from the same seeded community the server loaded, and
a plain ``FusionRecommender`` over it (CSF with SAR-H, kappa-J, the
index's omega) — no epochs, gateway, shards, memo or cache.  Every
distinct ``(video, applied_seq)`` answer must equal the oracle's ids and
scores bit for bit.  With interactions, the server's log is read back
after the drain and replayed into the oracle in the server's own batches
of ``apply_every`` records, up to the ``applied_seq`` each answer reports.
"""

from __future__ import annotations

import numpy as np

import inputs


def final_sample(video_ids: list[str], seed: int, count: int) -> list[str]:
    """The fixed seeded queries asked after the window (``interact_mix``)."""
    rng = np.random.default_rng([seed, 5])
    return [video_ids[i] for i in rng.choice(len(video_ids), count, replace=False)]


def _answers(window) -> tuple[dict, list[str]]:
    """Distinct ``(video, applied_seq) -> ranking`` plus protocol problems."""
    problems: list[str] = []
    seen: dict = {}
    last_seq: dict = {}
    samples = sorted(window["load"].samples, key=lambda s: (s.client, s.sent))
    final = [(vid, status, body, None) for vid, status, body in window.get("final", [])]
    observed = [(s.key, s.status, s.body, s) for s in samples] + final
    for key, status, body, sample in observed:
        if not 200 <= status < 300 or body is None:
            continue
        if sample is not None:
            # applied_seq never decreases on one client's request stream.
            previous = last_seq.get(sample.client, 0)
            if body.get("applied_seq", 0) < previous:
                problems.append(
                    f"client {sample.client}: applied_seq went back from "
                    f"{previous} to {body.get('applied_seq')}"
                )
            last_seq[sample.client] = max(previous, body.get("applied_seq", 0))
            if sample.kind == "post":
                if body.get("status") != "logged" or body.get("duplicate"):
                    problems.append(f"interaction on {key} not logged once: {body}")
                continue
        if body.get("partial") or body.get("degraded"):
            problems.append(f"{key}: served a partial or degraded ranking")
        ranking = tuple(
            (entry["videoId"], entry["score"]) for entry in body["recommendations"]
        )
        slot = (key, int(body["applied_seq"]))
        if seen.setdefault(slot, ranking) != ranking:
            problems.append(f"{key}@{slot[1]}: two different answers on one state")
    return seen, problems


def verify(spec, window, series, descriptors, top_k: int) -> list[str]:
    """Problems found in one window's answers (empty when all match)."""
    from repro.core import FusionRecommender
    from repro.net.interactions import interaction_pairs, read_interactions

    seen, problems = _answers(window)
    index = inputs.build_index(series, descriptors)
    records = read_interactions(window["log"]) if spec["apply_every"] else []
    batch = spec["apply_every"]
    applied = 0
    by_level: dict[int, list[str]] = {}
    for key, level in seen:
        by_level.setdefault(level, []).append(key)
    for level in sorted(by_level):
        if level > len(records) or (batch and level % batch):
            problems.append(f"applied_seq {level} does not match the log")
            continue
        while applied < level:
            index.apply_comments(interaction_pairs(records[applied : applied + batch]))
            applied += batch
        recommender = FusionRecommender(index, num_workers=0)
        for key in sorted(by_level[level]):
            result = recommender.recommend(key, top_k)
            expected = tuple(zip(result, result.scores))
            if seen[(key, level)] != expected:
                problems.append(
                    f"{key}@{level}: served {seen[(key, level)][:2]}... "
                    f"oracle {expected[:2]}..."
                )
    return problems
