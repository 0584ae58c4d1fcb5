"""Seeded inputs of the serving benchmark: communities and their archives.

One synthetic community per ``(videos, seed)`` with the shape statistics
of the scan-scaling sweep (2-8 signatures of 3-23 cuboids per video, 2-6
fans per video drawn from ``max(60, N // 8)`` users).  The same seed
always yields the same community, so the server's archive and the
benchmark's in-process oracle are built from identical inputs.  The
generator mirrors ``benchmarks/bench_sharded_scan.py`` instead of
importing it, so a change to that bench cannot move this one.

Archives are written with the program's own persistence functions
(``save_index`` for one index, ``save_shards`` for a hash-sharded
deployment) and cached under ``.perfbench/cache/<N>-<S>-<seed>/``, so a
rerun with the same seed skips the generation; that time never counts
toward any metric.  Every server spawn gets a fresh copy of the archive
in its own run directory, so each starts from an empty interaction log.
"""

from __future__ import annotations

import os
import pathlib
import shutil

import numpy as np

#: Cached archives kept at most; the oldest are pruned first.
CACHE_ENTRIES = 8

INDEX_NAME = "index.json.gz"
DEPLOYMENT_NAME = "deployment"


def synthesize(num_videos: int, seed: int) -> tuple[dict, dict]:
    """``(series, descriptors)`` of one seeded synthetic community."""
    from repro.signatures.cuboid import CuboidSignature
    from repro.signatures.series import SignatureSeries
    from repro.social.descriptor import SocialDescriptor

    rng = np.random.default_rng(seed)
    num_users = max(60, num_videos // 8)
    users = [f"u{j:05d}" for j in range(num_users)]
    series: dict = {}
    descriptors: dict = {}
    for i in range(num_videos):
        vid = f"v{i:06d}"
        sigs = []
        for _ in range(int(rng.integers(2, 9))):
            ncub = int(rng.integers(3, 24))
            sigs.append(
                CuboidSignature(
                    values=rng.normal(0.0, 8.0, ncub),
                    weights=rng.random(ncub) + 0.05,
                )
            )
        series[vid] = SignatureSeries(video_id=vid, signatures=tuple(sigs))
        fans = rng.choice(num_users, size=int(rng.integers(2, 7)), replace=False)
        descriptors[vid] = SocialDescriptor.from_users(vid, (users[f] for f in fans))
    return series, descriptors


def config():
    """The recommender configuration every archive is built with."""
    from repro.core import RecommenderConfig

    return RecommenderConfig(k=12)


def _parts(series: dict, descriptors: dict, video_ids, cfg):
    from repro.core.stores import ContentStore, SocialStore

    content = ContentStore(cfg, build_lsb=False, build_global_features=False)
    for vid in video_ids:
        content.add_series(vid, series[vid])
    return content, SocialStore(dict(descriptors), k=cfg.k)


def _empty_dataset():
    from repro.community.models import CommunityDataset

    return CommunityDataset(records={}, users={}, comments=[], topics=())


def build_index(series: dict, descriptors: dict):
    """One live index over the whole community (the serial oracle's input)."""
    from repro.core import LiveCommunityIndex

    cfg = config()
    content, social = _parts(series, descriptors, sorted(series), cfg)
    return LiveCommunityIndex._from_parts(_empty_dataset(), cfg, content, social)


def build_sharded(series: dict, descriptors: dict, shards: int):
    """Hash-partition the content over *shards*; descriptors replicate."""
    from repro.sharding import ShardedIndex, ShardIndex, make_router

    cfg = config()
    router = make_router("hash", shards, cfg)
    owned: list[list[str]] = [[] for _ in range(shards)]
    for vid in sorted(series):
        owned[router.route(vid)].append(vid)
    built = []
    for shard_id, video_ids in enumerate(owned):
        content, social = _parts(series, descriptors, video_ids, cfg)
        shard = ShardIndex._from_parts(_empty_dataset(), cfg, content, social)
        shard.shard_id = shard_id
        shard.num_shards = shards
        built.append(shard)
    return ShardedIndex(built, router)


def _prune(cache: pathlib.Path, keep: pathlib.Path) -> None:
    entries = sorted(
        (p for p in cache.iterdir() if p.is_dir() and p != keep),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[: max(0, len(entries) - (CACHE_ENTRIES - 1))]:
        shutil.rmtree(stale, ignore_errors=True)


def archive(
    root: pathlib.Path, shards: int, seed: int, series: dict, descriptors: dict
) -> pathlib.Path:
    """The cached archive of ``synthesize(len(series), seed)`` over *shards*.

    Builds it if absent; returns the index file (``shards == 1``) or the
    deployment directory.
    """
    videos = len(series)
    cache = root / "cache"
    entry = cache / f"{videos}-{shards}-{seed}"
    target = entry / (INDEX_NAME if shards == 1 else DEPLOYMENT_NAME)
    if (entry / "complete").is_file():
        os.utime(entry)
        return target
    shutil.rmtree(entry, ignore_errors=True)
    entry.mkdir(parents=True)
    if shards == 1:
        from repro.io import save_index

        save_index(build_index(series, descriptors), target)
    else:
        from repro.sharding import save_shards

        save_shards(build_sharded(series, descriptors, shards), target)
    (entry / "complete").write_text("ok\n")
    _prune(cache, entry)
    return target


def fresh_copy(source: pathlib.Path, run_dir: pathlib.Path) -> pathlib.Path:
    """Copy an archive into *run_dir* (a server never touches the cache)."""
    target = run_dir / source.name
    if source.is_dir():
        shutil.copytree(source, target)
    else:
        shutil.copyfile(source, target)
    return target
