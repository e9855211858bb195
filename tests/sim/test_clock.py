"""Tests for the discrete-event scheduler."""

import pytest

from repro.sim.clock import EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(0.3, fired.append, "late")
        scheduler.schedule(0.1, fired.append, "early")
        scheduler.schedule(0.2, fired.append, "middle")
        scheduler.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_fires_in_scheduling_order(self):
        scheduler = EventScheduler()
        fired = []
        for index in range(5):
            scheduler.schedule(1.0, fired.append, index)
        scheduler.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        scheduler = EventScheduler()
        times = []
        scheduler.schedule(0.5, lambda: times.append(scheduler.now))
        scheduler.run()
        assert times == [0.5]
        assert scheduler.now == 0.5

    def test_negative_delay_rejected(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(-0.1, lambda: None)

    def test_scheduling_into_the_past_rejected(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        with pytest.raises(ValueError):
            scheduler.schedule_at(0.5, lambda: None)

    def test_nan_time_rejected(self):
        """No heap can order NaN: it never reaches one."""
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule_at(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            scheduler.schedule(float("nan"), lambda: None)
        with pytest.raises(ValueError):
            scheduler.run_until(float("nan"))
        assert scheduler.pending() == 0
        assert scheduler.now == 0.0

    def test_events_can_schedule_events(self):
        scheduler = EventScheduler()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                scheduler.schedule(0.1, chain, n + 1)

        scheduler.schedule(0.0, chain, 0)
        scheduler.run()
        assert fired == [0, 1, 2, 3]
        assert scheduler.now == pytest.approx(0.3)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        event = scheduler.schedule(0.1, fired.append, "no")
        scheduler.schedule(0.2, fired.append, "yes")
        event.cancel()
        scheduler.run()
        assert fired == ["yes"]

    def test_pending_excludes_cancelled(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda: None)
        drop = scheduler.schedule(1.0, lambda: None)
        drop.cancel()
        assert scheduler.pending() == 1


class TestRunControls:
    def test_run_until(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(0.1, fired.append, 1)
        scheduler.schedule(0.9, fired.append, 2)
        scheduler.run(until=0.5)
        assert fired == [1]
        assert scheduler.now == 0.5
        scheduler.run()
        assert fired == [1, 2]

    def test_run_until_advances_idle_clock(self):
        scheduler = EventScheduler()
        scheduler.run(until=2.0)
        assert scheduler.now == 2.0

    def test_max_events(self):
        scheduler = EventScheduler()
        fired = []
        for index in range(10):
            scheduler.schedule(0.1 * (index + 1), fired.append, index)
        scheduler.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_spent_budget_with_only_cancelled_events_left_still_idles(self):
        """The clock's answer depends on live events alone, never on
        cancelled entries the heap has not discarded yet."""
        scheduler = EventScheduler()
        scheduler.schedule(0.1, lambda: None)
        scheduler.schedule(0.2, lambda: None).cancel()
        assert scheduler.run(until=1.0, max_events=1) == 1.0

    def test_step_returns_false_when_empty(self):
        assert not EventScheduler().step()

    def test_events_fired_counter(self):
        scheduler = EventScheduler()
        scheduler.schedule(0.1, lambda: None)
        scheduler.schedule(0.2, lambda: None)
        scheduler.run()
        assert scheduler.events_fired == 2


class TestNextTime:
    def test_reports_earliest_live_event(self):
        scheduler = EventScheduler()
        scheduler.schedule(0.7, lambda: None)
        scheduler.schedule(0.2, lambda: None)
        assert scheduler.next_time() == 0.2

    def test_empty_queue_is_none(self):
        assert EventScheduler().next_time() is None

    def test_skips_cancelled_heads(self):
        scheduler = EventScheduler()
        first = scheduler.schedule(0.1, lambda: None)
        second = scheduler.schedule(0.2, lambda: None)
        scheduler.schedule(0.3, lambda: None)
        first.cancel()
        second.cancel()
        assert scheduler.next_time() == 0.3

    def test_all_cancelled_is_none(self):
        scheduler = EventScheduler()
        scheduler.schedule(0.1, lambda: None).cancel()
        assert scheduler.next_time() is None


class TestRunUntil:
    def test_window_is_half_open(self):
        """Events strictly before the horizon fire; one *at* it waits."""
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(0.1, fired.append, "before")
        scheduler.schedule(0.5, fired.append, "at")
        assert scheduler.run_until(0.5) == 1
        assert fired == ["before"]
        assert scheduler.now == 0.5
        # The boundary event belongs to the next window.
        assert scheduler.run_until(0.5 + 0.5) == 1
        assert fired == ["before", "at"]

    def test_clock_lands_exactly_on_horizon(self):
        scheduler = EventScheduler()
        scheduler.run_until(0.25)
        assert scheduler.now == 0.25

    def test_zero_width_window_is_noop(self):
        scheduler = EventScheduler()
        scheduler.run_until(1.0)
        assert scheduler.run_until(1.0) == 0
        assert scheduler.now == 1.0

    def test_backwards_horizon_rejected(self):
        scheduler = EventScheduler()
        scheduler.run_until(1.0)
        with pytest.raises(ValueError):
            scheduler.run_until(0.5)

    def test_events_scheduled_inside_window_fire(self):
        scheduler = EventScheduler()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 4:
                scheduler.schedule(0.1, chain, n + 1)

        scheduler.schedule(0.0, chain, 0)
        # 0.0, 0.1, 0.2 fire; 0.3 is past the horizon and waits.
        assert scheduler.run_until(0.25) == 3
        assert fired == [0, 1, 2]
        assert scheduler.next_time() == pytest.approx(0.3)
