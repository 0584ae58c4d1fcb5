"""One serving contract, held by both gateway fronts.

:class:`ServingGateway` (one epoch) and :class:`ShardedGateway` (an
epoch vector over S=2 shards) share one gateway core, so every test here
runs against both: the memo (bit-identical hits, invalidation at
publish, a reconciling ledger), ``mutations()`` batching, publish
governance, singleflight coalescing, admission shedding, and the
deployment-wide gauges.  The last tests pin what a shard server is *not*:
it carries none of the core's machinery.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core import LiveCommunityIndex
from repro.defense import DefenseConfig
from repro.errors import OverloadedError
from repro.obs import MetricsRegistry, use_metrics
from repro.serving import GatewayConfig, ServingGateway
from repro.serving.gateway import SERVE_SOCIAL_POINT
from repro.sharding import ShardedGateway, ShardedIndex
from repro.testing.faults import FaultPlan

TOP_K = 8
FRONTS = ("single", "sharded")


def _build(front: str, workload, config):
    dataset = workload.dataset
    if front == "single":
        live = LiveCommunityIndex(dataset.subset(sorted(dataset.records)), config)
        live.dataset.comments = list(dataset.comments)
        return live
    return ShardedIndex.build(dataset, config, 2)


@pytest.fixture(scope="module", params=FRONTS)
def front_index(request, workload, config):
    """``(front, index)``: one index per front, shared by non-mutating tests."""
    return request.param, _build(request.param, workload, config)


@pytest.fixture()
def make(front_index):
    """Factory of gateways over the front's index; closes them after."""
    front, index = front_index
    made = []

    def make_gateway(index=index, **kwargs):
        cls = ServingGateway if front == "single" else ShardedGateway
        gateway = cls(index, **kwargs)
        made.append(gateway)
        return gateway

    yield make_gateway
    for gateway in made:
        gateway.close()


def _counters(registry) -> dict:
    return registry.snapshot()["counters"]


def _republish(gateway) -> None:
    """A no-op mutation: publishes a fresh view, changes no ranking."""
    gateway.apply_comments([])


def _wedge(gateway, attr: str):
    """Park the first call of ``gateway.<attr>`` until released.

    Returns ``(entered, hold)``: *entered* fires once the call is inside,
    *hold* lets it continue.
    """
    entered, hold = threading.Event(), threading.Event()
    original = getattr(gateway, attr)
    wedged = []

    def wrapper(*args, **kwargs):
        if not wedged:
            wedged.append(True)
            entered.set()
            hold.wait(10.0)
        return original(*args, **kwargs)

    setattr(gateway, attr, wrapper)
    return entered, hold


class TestMemo:
    def test_hit_is_bit_identical_and_publish_invalidates(
        self, front_index, make, workload, config
    ):
        front, _ = front_index
        registry = MetricsRegistry()
        with use_metrics(registry):
            # This test retires a video, so it gets an index of its own.
            gateway = make(
                _build(front, workload, config),
                config=GatewayConfig(default_deadline=None),
            )
            query = gateway.video_ids()[0]
            first = gateway.recommend(query, TOP_K)
            second = gateway.recommend(query, TOP_K)
            counters = _counters(registry)
            assert counters["repro_serving_memo_miss_total"] == 1
            assert counters["repro_serving_memo_hit_total"] == 1
            assert list(second) == list(first)
            assert second.scores == first.scores
            assert second.epoch_key == first.epoch_key

            victim = first[0]
            gateway.retire_video(victim)
            third = gateway.recommend(query, TOP_K)
            counters = _counters(registry)
            assert counters["repro_serving_memo_miss_total"] == 2
            assert counters["repro_serving_memo_invalidate_total"] == 1
            assert third.epoch_key != first.epoch_key
            assert victim not in list(third)

    def test_ledger_reconciles(self, make, front_index):
        """Clean misses = evictions + invalidations + resident entries."""
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = make(
                config=GatewayConfig(default_deadline=None, memo_capacity=2)
            )
            for query in gateway.video_ids()[:4]:
                result = gateway.recommend(query, TOP_K)
                assert not result.degraded and not result.partial
            gateway.recommend(query, TOP_K)  # one hit: no new entry

            def ledger() -> tuple[float, float]:
                counters = _counters(registry)
                return counters["repro_serving_memo_miss_total"], (
                    counters.get("repro_serving_memo_evict_total", 0)
                    + counters.get("repro_serving_memo_invalidate_total", 0)
                    + len(gateway._memo)
                )

            assert ledger() == (4, 4)
            _republish(gateway)
            assert len(gateway._memo) == 0
            assert ledger() == (4, 4)
            assert _counters(registry)["repro_serving_memo_evict_total"] == 2
            assert _counters(registry)["repro_serving_memo_invalidate_total"] == 2


class TestPublication:
    def test_mutations_block_publishes_once(self, make, front_index):
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = make()
            before = gateway.epoch_key
            published = _counters(registry)["repro_serving_publish_total"]
            with gateway.mutations():
                _republish(gateway)
                _republish(gateway)
                # Readers keep the pre-block view mid-batch.
                assert gateway.epoch_key == before
            assert gateway.epoch_key != before
            assert _counters(registry)["repro_serving_publish_total"] == published + 1

    def test_governor_defers_and_timer_flushes(self, make, front_index):
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = make(
                config=GatewayConfig(
                    defense=DefenseConfig(min_publish_interval=0.3)
                )
            )
            before = gateway.epoch_key
            _republish(gateway)  # inside the interval: deferred
            assert gateway.epoch_key == before
            assert _counters(registry)["repro_defense_deferred_publishes_total"] == 1
            deadline = time.monotonic() + 5.0
            while gateway.epoch_key == before and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gateway.epoch_key != before

    def test_deployment_gauges_report_the_deployment(self, make, front_index):
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = make()
            gateway.recommend(gateway.video_ids()[0], TOP_K)
            _republish(gateway)
        gauges = registry.snapshot()["gauges"]
        servers = gateway.gateways if isinstance(gateway, ShardedGateway) else [gateway]
        assert gauges["repro_serving_epoch_videos"] == len(gateway.video_ids())
        assert gauges["repro_serving_epochs_published"] == sum(
            server.epochs.published_total for server in servers
        )
        assert gauges["repro_serving_epochs_live"] == sum(
            server.epochs.live_count for server in servers
        )
        assert gauges["repro_serving_epoch_id"] == max(
            epoch.epoch_id for epoch in gateway.current_epochs
        )


class TestCoalescing:
    def test_followers_get_bit_identical_flagged_copies(self, make, front_index):
        registry = MetricsRegistry()
        with use_metrics(registry):
            # A generous follower budget: the follower must never give up
            # on a leader that is merely slow to be rescheduled.
            gateway = make(
                config=GatewayConfig(
                    defense=DefenseConfig(coalesce=True, coalesce_wait=10.0)
                )
            )
            query = gateway.video_ids()[0]
            entered, hold = _wedge(gateway, "_serve")
            parked = threading.Event()
            original_wait = gateway._flights.wait

            def wait(flight, timeout):
                parked.set()
                return original_wait(flight, timeout)

            gateway._flights.wait = wait
            results = {}
            leader = threading.Thread(
                target=lambda: results.update(lead=gateway.recommend(query, TOP_K))
            )
            leader.start()
            assert entered.wait(5.0)
            follower = threading.Thread(
                target=lambda: results.update(follow=gateway.recommend(query, TOP_K))
            )
            follower.start()
            assert parked.wait(5.0)  # joined the flight before admission
            hold.set()
            leader.join(5.0)
            follower.join(5.0)
        lead, follow = results["lead"], results["follow"]
        assert follow is not lead
        assert list(follow) == list(lead)
        assert follow.scores == lead.scores
        assert follow.epoch_key == lead.epoch_key
        assert follow.omega_served == lead.omega_served
        assert getattr(follow, "coalesced", False) is True
        assert not getattr(lead, "coalesced", False)
        counters = _counters(registry)
        assert counters["repro_defense_coalesce_leaders_total"] == 1
        assert counters["repro_defense_coalesced_followers_total"] == 1
        assert counters["repro_serving_queries_total"] == 2


class TestAdmission:
    def test_full_queue_sheds_with_retry_hint(self, make, front_index):
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = make(
                config=GatewayConfig(
                    max_concurrency=1, queue_depth=0, queue_timeout=0.01
                )
            )
            query = gateway.video_ids()[0]
            entered, hold = _wedge(gateway, "_serve_view")
            thread = threading.Thread(target=lambda: gateway.recommend(query))
            thread.start()
            try:
                assert entered.wait(5.0)
                with pytest.raises(OverloadedError) as info:
                    gateway.recommend(query)
            finally:
                hold.set()
                thread.join(5.0)
        assert info.value.retry_after_ms is not None
        assert info.value.retry_after_ms >= 1.0
        counters = _counters(registry)
        assert counters['repro_serving_shed_total{reason="queue_full"}'] == 1


class TestShardServers:
    def test_shard_server_owns_no_core_machinery(self, workload, config):
        gateway = ShardedGateway(ShardedIndex.build(workload.dataset, config, 2))
        try:
            for server in gateway.gateways:
                assert not isinstance(server, ServingGateway)
                for attr in ("_gate", "_memo", "_flights", "_governor", "_write_lock"):
                    assert not hasattr(server, attr), attr
                assert not hasattr(server, "recommend")
        finally:
            gateway.close()

    def test_shard_breaker_and_epoch_state_are_labelled(self, workload, config):
        plans = [None, FaultPlan()]
        plans[1].arm_failures(SERVE_SOCIAL_POINT, -1)
        registry = MetricsRegistry()
        with use_metrics(registry):
            sharded = ShardedIndex.build(workload.dataset, config, 2)
            gateway = ShardedGateway(
                sharded,
                config=GatewayConfig(
                    retry_attempts=0,
                    breaker_failure_threshold=1,
                    breaker_cooldown=60.0,
                ),
                faults=plans,
            )
            try:
                gateway.recommend(sharded.video_ids[0], TOP_K)
            finally:
                gateway.close()
        gauges = registry.snapshot()["gauges"]
        assert gauges['repro_shard_breaker_state{shard="1"}'] == 1  # open
        assert 'repro_shard_breaker_state{shard="0"}' not in gauges
        assert "repro_serving_breaker_state" not in gauges
        for shard in range(2):
            assert gauges[f'repro_shard_videos{{shard="{shard}"}}'] == len(
                sharded.shards[shard].video_ids
            )
            assert f'repro_shard_epoch_id{{shard="{shard}"}}' in gauges
