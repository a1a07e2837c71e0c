"""Admission queue and brownout ladder (unit level, injected clocks)."""

import pytest

from repro.service.admission import (
    BROWNOUT_TIERS,
    SERVICE_SCOPE,
    AdmissionQueue,
    BrownoutController,
    ShedRequest,
)


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAdmissionQueue:
    def test_free_permits_admit_even_with_zero_queue_depth(self):
        queue = AdmissionQueue(2, max_queue_depth=0)
        queue.acquire()
        queue.acquire()
        assert queue.admitted == 2
        assert queue.snapshot()["inflight"] == 2
        queue.release(0.1)
        queue.release(0.1)
        assert queue.snapshot()["inflight"] == 0

    def test_full_permits_and_zero_depth_shed_queue_full(self):
        queue = AdmissionQueue(1, max_queue_depth=0)
        queue.acquire()
        with pytest.raises(ShedRequest) as info:
            queue.acquire()
        assert info.value.reason == "queue_full"
        assert queue.shed_counts["queue_full"] == 1
        queue.release()

    def test_expired_deadline_is_shed_before_queueing(self):
        clock = FakeClock()
        queue = AdmissionQueue(1, clock=clock)
        queue.acquire()
        with pytest.raises(ShedRequest) as info:
            queue.acquire(deadline=clock.now - 0.5)
        assert info.value.reason == "deadline"
        queue.release()

    def test_queue_timeout_sheds_after_the_wait_cap(self):
        queue = AdmissionQueue(
            1, max_queue_depth=4, max_queue_wait_seconds=0.05
        )
        queue.acquire()
        with pytest.raises(ShedRequest) as info:
            queue.acquire()
        assert info.value.reason == "queue_timeout"
        queue.release()
        # A freed permit admits the next request immediately.
        queue.acquire()
        queue.release()

    def test_deadline_tighter_than_wait_cap_sheds_as_deadline(self):
        queue = AdmissionQueue(
            1, max_queue_depth=4, max_queue_wait_seconds=5.0
        )
        queue.acquire()
        import time

        with pytest.raises(ShedRequest) as info:
            queue.acquire(deadline=time.perf_counter() + 0.05)
        assert info.value.reason == "deadline"
        queue.release()

    def test_retry_after_is_load_derived(self):
        queue = AdmissionQueue(2, max_queue_depth=4)
        # No observations yet: conservative floor of 1s.
        assert queue.retry_after_seconds() == 1.0
        queue.acquire()
        queue.acquire()
        queue.release(2.0)  # EWMA seeds at 2s per request
        queue.acquire()
        # backlog=2, ewma=2.0, permits=2 -> ~2s estimate.
        assert queue.retry_after_seconds() == 2.0
        queue.release(2.0)
        queue.release(2.0)
        # Idle again: floor.
        assert queue.retry_after_seconds() == 1.0

    def test_retry_after_is_clamped_to_30s(self):
        queue = AdmissionQueue(1, max_queue_depth=64)
        queue.acquire()
        queue.release(120.0)
        queue.acquire()
        assert queue.retry_after_seconds() == 30.0
        queue.release()

    def test_out_of_band_shed_counts_and_raises(self):
        queue = AdmissionQueue(1)
        with pytest.raises(ShedRequest) as info:
            queue.shed("cache_only")
        assert info.value.reason == "cache_only"
        assert info.value.retry_after >= 1.0
        assert queue.shed_counts["cache_only"] == 1

    def test_ewma_blends_observations(self):
        queue = AdmissionQueue(1)
        queue.acquire()
        queue.release(1.0)
        queue.acquire()
        queue.release(2.0)  # 0.8*1.0 + 0.2*2.0 = 1.2
        assert queue._service_ewma == pytest.approx(1.2)


class TestBrownoutController:
    def make(self, clock, **kw):
        kw.setdefault("step_up_sheds", 3)
        kw.setdefault("window_seconds", 5.0)
        kw.setdefault("cooldown_seconds", 10.0)
        return BrownoutController(clock=clock, **kw)

    def test_sustained_sheds_climb_one_rung_at_a_time(self):
        clock = FakeClock()
        controller = self.make(clock)
        for _ in range(2):
            controller.record_shed()
        assert controller.level == 0
        assert not controller.cache_only
        controller.record_shed()
        assert controller.level == 1
        assert controller.tier == "cache_only"
        assert controller.cache_only
        # The ladder tops out.
        for _ in range(6):
            controller.record_shed()
        assert controller.level == 1

    def test_sheds_outside_the_window_do_not_accumulate(self):
        clock = FakeClock()
        controller = self.make(clock)
        controller.record_shed()
        clock.advance(6.0)  # past the 5s window
        controller.record_shed()
        clock.advance(6.0)
        controller.record_shed()
        assert controller.level == 0

    def test_quiet_cooldown_steps_down_one_rung_per_period(self):
        clock = FakeClock()
        controller = self.make(clock)
        for _ in range(6):
            controller.record_shed()
        assert controller.level == 1
        clock.advance(9.0)
        assert controller.observe() == 1  # cooldown not yet elapsed
        clock.advance(2.0)
        assert controller.observe() == 0
        assert controller.tier == "normal"

    def test_transitions_are_audited_with_service_scope(self):
        clock = FakeClock()
        controller = self.make(clock)
        for _ in range(3):
            controller.record_shed()
        assert controller.transitions == 1
        record = controller.audit[-1]
        assert (record.row, record.attribute) == SERVICE_SCOPE
        assert record.from_tier == "normal"
        assert record.to_tier == "cache_only"
        assert "sheds" in record.reason

    def test_snapshot_shape(self):
        clock = FakeClock()
        controller = self.make(clock)
        for _ in range(3):
            controller.record_shed()
        snapshot = controller.snapshot()
        assert snapshot["level"] == 1
        assert snapshot["tier"] == BROWNOUT_TIERS[1]
        assert snapshot["enabled"] is True
        assert snapshot["transitions"] == 1
        assert snapshot["recent"][-1]["to"] == "cache_only"

    def test_disabled_controller_never_moves(self):
        clock = FakeClock()
        controller = self.make(clock, enabled=False)
        for _ in range(20):
            controller.record_shed()
        assert controller.level == 0
        assert controller.observe() == 0
