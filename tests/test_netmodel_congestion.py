"""Tests for the congestion model."""

import numpy as np
import pytest
from lane_oracles import interval_delay_scalar, shared_delay_scalar

from repro.errors import MeasurementError
from repro.netmodel import CongestionConfig, CongestionModel


@pytest.fixture
def model():
    return CongestionModel(seed=3, config=CongestionConfig(horizon_hours=240.0))


@pytest.fixture
def busy():
    """Long, frequent events: most keys have overlapping intervals."""
    config = CongestionConfig(
        horizon_hours=72.0, event_rate_per_day=40.0, event_mean_duration_hours=3.0
    )
    return CongestionModel(seed=11, config=config)


def _grid(model, n, seed=0):
    """A sorted random grid that overshoots the horizon on both sides."""
    horizon = model.config.horizon_hours
    return np.sort(np.random.default_rng(seed).uniform(-5.0, horizon + 5.0, n))


class TestConfigValidation:
    def test_positive_horizon_required(self):
        with pytest.raises(MeasurementError):
            CongestionConfig(horizon_hours=0.0)

    def test_negative_delays_rejected(self):
        with pytest.raises(MeasurementError):
            CongestionConfig(horizon_hours=24.0, diurnal_peak_ms=-1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(MeasurementError):
            CongestionConfig(horizon_hours=24.0, event_rate_per_day=-0.1)


class TestEvents:
    def test_deterministic_per_key(self, model):
        assert model.events("link:a") == model.events("link:a")

    def test_different_keys_differ(self, model):
        # With a 10-day horizon the event lists almost surely differ.
        keys = [f"link:{i}" for i in range(20)]
        lists = [tuple(model.events(k)) for k in keys]
        assert len(set(lists)) > 1

    def test_same_seed_same_events_across_instances(self):
        cfg = CongestionConfig(horizon_hours=240.0)
        a = CongestionModel(5, cfg).events("x")
        b = CongestionModel(5, cfg).events("x")
        assert a == b

    def test_different_seed_differs(self):
        cfg = CongestionConfig(horizon_hours=2400.0, event_rate_per_day=2.0)
        a = CongestionModel(1, cfg).events("x")
        b = CongestionModel(2, cfg).events("x")
        assert a != b

    def test_events_within_horizon(self, model):
        events = model.events("link:z")
        assert events == sorted(events)
        for start, duration, magnitude in events:
            assert 0.0 <= start <= 240.0
            assert duration > 0
            assert magnitude > 0

    def test_event_delay_matches_events(self, model):
        events = model.events("link:y")
        if not events:
            pytest.skip("no events drawn for this key")
        start, duration, magnitude = events[0]
        inside = model.event_delay_batch(["link:y"], np.array([start + duration / 2]))
        outside = model.event_delay_batch(["link:y"], np.array([start - 1e-6]))
        assert inside[0, 0] >= magnitude - 1e-9
        assert outside[0, 0] < inside[0, 0]

    def test_zero_rate_no_events(self):
        cfg = CongestionConfig(horizon_hours=240.0, event_rate_per_day=0.0)
        model = CongestionModel(0, cfg)
        assert model.events("anything") == []
        times = np.linspace(0, 240, 100)
        assert np.all(model.event_delay_batch(["anything"], times) == 0.0)


class TestDiurnal:
    def test_peaks_at_local_evening(self, model):
        times = np.linspace(0.0, 24.0, 24 * 60, endpoint=False)
        delay = model.diurnal_delay_batch(times, [0.0])[0]
        peak_time = times[np.argmax(delay)]
        assert peak_time == pytest.approx(20.0, abs=0.1)

    def test_longitude_shifts_peak(self, model):
        times = np.linspace(0.0, 24.0, 24 * 60, endpoint=False)
        # 90 degrees east = 6 hours ahead: local 20:00 is 14:00 UTC.
        delay = model.diurnal_delay_batch(times, [90.0])[0]
        peak_time = times[np.argmax(delay)]
        assert peak_time == pytest.approx(14.0, abs=0.1)

    def test_bounded_by_peak(self, model):
        times = np.linspace(0.0, 48.0, 1000)
        delay = model.diurnal_delay_batch(times, [30.0])[0]
        assert delay.max() <= model.config.diurnal_peak_ms + 1e-9
        assert delay.min() >= 0.0


class TestBaselineShifts:
    def test_deterministic(self, model):
        assert model.baseline_shifts("p") == model.baseline_shifts("p")

    def test_delay_nonnegative(self, model):
        times = np.linspace(0, 240, 500)
        assert (model.shift_delay_batch(["p"], times) >= 0).all()


class TestComposites:
    def test_shared_delay_is_sum(self, model):
        times = np.linspace(0, 48, 200)
        shared = model.shared_delay_batch(["dest:p1"], [10.0], times)
        diurnal = model.diurnal_delay_batch(times, [10.0])
        events = model.event_delay_batch(["dest:p1"], times)
        assert np.array_equal(shared, diurnal + events)


class TestBatchKernels:
    """The kernel equals the per-event loop in ``lane_oracles`` exactly."""

    def test_event_delay_batch_matches_scalar(self, model):
        keys = [f"link:{i}" for i in range(12)]
        times = np.linspace(0.0, 240.0, 973)
        batch = model.event_delay_batch(keys, times)
        assert batch.shape == (len(keys), times.size)
        for row, key in enumerate(keys):
            assert np.array_equal(
                batch[row], interval_delay_scalar(model.events(key), times)
            )

    def test_overlapping_events_match_scalar(self, busy):
        keys = [f"link:{i}" for i in range(40)]
        times = _grid(busy, 3000)
        batch = busy.event_delay_batch(keys, times)
        overlaps = 0
        for row, key in enumerate(keys):
            events = busy.events(key)
            overlaps += sum(
                later[0] < start + duration
                for (start, duration, _), later in zip(events, events[1:])
            )
            assert np.array_equal(batch[row], interval_delay_scalar(events, times))
        assert overlaps > 100

    def test_event_delay_batch_handles_edges(self, busy):
        # The grid holds every start and end exactly, and one point just
        # either side: an event is active at its start, not at its end.
        keys = ["link:edge", "link:other"]
        events = busy.events("link:edge")
        edges = np.array([x for s, d, _ in events for x in (s, s + d)])
        below, above = np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)
        times = np.unique(np.concatenate([edges, below, above]))
        batch = busy.event_delay_batch(keys, times)
        for row, key in enumerate(keys):
            assert np.array_equal(
                batch[row], interval_delay_scalar(busy.events(key), times)
            )
        # A grid inside the horizon: events straddling either end stay
        # active up to it and from it.
        inner = np.linspace(30.0, 40.0, 101)
        batch = busy.event_delay_batch(keys, inner)
        for row, key in enumerate(keys):
            assert np.array_equal(
                batch[row], interval_delay_scalar(busy.events(key), inner)
            )

    def test_coinciding_edges(self, model, monkeypatch):
        # Hand-made intervals with shared starts, an end that is another
        # interval's start, equal ends and a zero duration.
        tied = [
            (0.5, 4.0, 1e-3),
            (1.0, 2.0, 0.1),
            (1.0, 2.0, 5.0),
            (2.0, 1.0, 0.3),
            (3.0, 1.0, 7.0),
            (4.0, 0.0, 9.0),
        ]
        drawn = model._intervals

        def intervals(kind, key):
            if key == "tied":
                return tuple(np.array(column) for column in zip(*tied))
            return drawn(kind, key)

        monkeypatch.setattr(model, "_intervals", intervals)
        assert model.events("tied") == tied
        edges = np.array([x for s, d, _ in tied for x in (s, s + d)])
        below, above = np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)
        grid = np.linspace(0.0, 6.0, 61)
        times = np.unique(np.concatenate([edges, below, above, grid]))
        batch = model.event_delay_batch(["link:a", "tied", "link:b"], times)
        for row, key in enumerate(["link:a", "tied", "link:b"]):
            expected = interval_delay_scalar(model.events(key), times)
            assert np.array_equal(batch[row], expected)
        assert np.array_equal(model.shift_delay_batch(["tied"], times), batch[1:2])

    def test_event_delay_batch_empty(self, model):
        assert model.event_delay_batch([], np.linspace(0, 1, 5)).shape == (0, 5)
        assert model.event_delay_batch(["k"], np.array([])).shape == (1, 0)
        assert model.shift_delay_batch([], np.array([])).shape == (0, 0)
        cfg = CongestionConfig(horizon_hours=24.0, event_rate_per_day=0.0)
        quiet = CongestionModel(0, cfg)
        times = np.linspace(0.0, 24.0, 7)
        assert np.array_equal(
            quiet.event_delay_batch(["a", "b"], times), np.zeros((2, 7))
        )

    def test_event_delay_batch_rejects_unsorted(self, model):
        with pytest.raises(MeasurementError):
            model.event_delay_batch(["k"], np.array([2.0, 1.0, 3.0]))

    def test_repeated_and_cached_keys(self, busy):
        times = _grid(busy, 500)
        first = busy.event_delay_batch(["a", "b"], times)
        again = busy.event_delay_batch(["b", "a", "b", "c"], times)
        assert np.array_equal(again[0], first[1])
        assert np.array_equal(again[1], first[0])
        assert np.array_equal(again[2], first[1])
        assert np.array_equal(again[3], interval_delay_scalar(busy.events("c"), times))

    def test_subgrid_matches_full_grid(self, model):
        # A delay depends only on (seed, key, t), never on which other
        # times share the query.
        keys = [f"link:{i}" for i in range(300)]
        times = _grid(model, 2000)
        full = model.event_delay_batch(keys, times)
        for step in (2, 3, 7):
            sub = model.event_delay_batch(keys, times[::step])
            assert np.array_equal(sub, full[:, ::step])
        single = model.event_delay_batch(keys, times[1000:1001])
        assert np.array_equal(single, full[:, 1000:1001])

    def test_delays_nonnegative(self, model, busy):
        for m in (model, busy):
            keys = [f"link:{i}" for i in range(300)]
            times = _grid(m, 2000)
            assert (m.event_delay_batch(keys, times) >= 0.0).all()
            assert (m.shift_delay_batch(keys, times) >= 0.0).all()

    def test_diurnal_batch_bit_identical(self, model):
        # Each row equals the single-longitude evaluation.
        times = np.linspace(0.0, 48.0, 500)
        lons = np.array([-120.0, -30.0, 0.0, 77.5, 151.2])
        batch = model.diurnal_delay_batch(times, lons)
        for row, lon in enumerate(lons):
            assert (batch[row] == model.diurnal_delay_batch(times, [lon])[0]).all()

    def test_shared_delay_batch_matches_scalar(self, model):
        times = np.linspace(0.0, 240.0, 401)
        keys = [f"dest:p{i}" for i in range(6)]
        lons = np.linspace(-150.0, 150.0, 6)
        batch = model.shared_delay_batch(keys, lons, times)
        for row, (key, lon) in enumerate(zip(keys, lons)):
            expected = shared_delay_scalar(model, key, lon, times)
            assert np.array_equal(batch[row], expected)

    def test_shared_delay_batch_alignment_checked(self, model):
        with pytest.raises(MeasurementError):
            model.shared_delay_batch(["a", "b"], np.array([1.0]), np.arange(3.0))

    def test_shift_delay_batch_matches_scalar(self, model):
        times = _grid(model, 1500)
        keys = [f"path:{i}" for i in range(40)]
        batch = model.shift_delay_batch(keys, times)
        overlaps = 0
        for row, key in enumerate(keys):
            shifts = model.baseline_shifts(key)
            overlaps += sum(
                later[0] < start + duration
                for (start, duration, _), later in zip(shifts, shifts[1:])
            )
            assert np.array_equal(batch[row], interval_delay_scalar(shifts, times))
        assert overlaps > 0
