"""Time-varying congestion delay, deterministic per (seed, entity key).

Two ingredients, matching the structure Section 3.1.1 of the paper
infers from the Facebook data:

* **Diurnal load** — a smooth daily cycle peaking in the local evening,
  applied to last-mile and destination-network entities.  Because it is
  keyed to the *destination*, every route to a client degrades together
  during the client's evening peak — which is exactly why dynamic
  performance-aware routing finds no better alternative then.
* **Transient events** — Poisson-arriving episodes of extra queueing
  delay with exponential durations and log-normal magnitudes, keyed to
  individual entities.  Events keyed to an interdomain link hurt only
  routes crossing that link; those are the opportunities an omniscient
  controller can exploit.

Every entity key gets its own deterministic random stream derived from
``(seed, crc32(key))``, so adding entities never perturbs existing ones.

A third interval process, slow **baseline shifts**, models interdomain
path churn.  Events and shifts share one exact kernel: each key's
intervals become a step table, and the delay at time *t* is the sum of
the magnitudes of the intervals active at *t*, added in start order
from 0.0.  It depends only on ``(seed, key, t)``, never on the rest of
the query grid.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.obs.trace import counter


@dataclass(frozen=True)
class CongestionConfig:
    """Parameters of the congestion processes.

    Attributes:
        horizon_hours: Simulated horizon; events are generated over it.
        diurnal_peak_ms: Added delay at the top of the daily cycle.
        diurnal_peak_hour: Local hour of the daily maximum (evening).
        event_rate_per_day: Expected transient events per entity per day.
        event_mean_duration_hours: Mean event duration (exponential).
        event_magnitude_median_ms: Median added delay during an event
            (log-normal).
        event_magnitude_sigma: Log-scale spread of event magnitudes.
    """

    horizon_hours: float
    diurnal_peak_ms: float = 3.0
    diurnal_peak_hour: float = 20.0
    event_rate_per_day: float = 0.6
    event_mean_duration_hours: float = 0.75
    event_magnitude_median_ms: float = 8.0
    event_magnitude_sigma: float = 0.6

    def __post_init__(self) -> None:
        if self.horizon_hours <= 0:
            raise MeasurementError("horizon_hours must be positive")
        if self.diurnal_peak_ms < 0 or self.event_magnitude_median_ms < 0:
            raise MeasurementError("delays must be non-negative")
        if self.event_rate_per_day < 0:
            raise MeasurementError("event rate must be non-negative")
        if self.event_mean_duration_hours <= 0:
            raise MeasurementError("event duration must be positive")


#: The baseline-shift process: rate per day, mean duration (hours),
#: median magnitude (ms) and log-scale spread of magnitudes.
_SHIFT_PROCESS = (0.12, 48.0, 8.0, 0.7)

#: One key's step table: ascending breakpoints ``b`` and the delays
#: ``v`` with ``v[0] = 0.0`` before ``b[0]`` and ``v[i + 1]`` on
#: ``[b[i], b[i + 1])``.
_Table = Tuple[np.ndarray, np.ndarray]


def _as_tuples(columns: Tuple[np.ndarray, ...]) -> List[Tuple[float, float, float]]:
    """Interval columns as a list of ``(start_h, duration_h, extra_ms)``."""
    return list(zip(*(column.tolist() for column in columns)))


class CongestionModel:
    """Deterministic congestion delay series for named entities.

    Args:
        seed: Master seed; combined with each entity key.
        config: Process parameters.
    """

    def __init__(self, seed: int, config: CongestionConfig) -> None:
        self.seed = seed
        self.config = config
        # kind ("events" or "shifts") -> key -> step table.
        self._tables: Dict[str, Dict[str, _Table]] = {"events": {}, "shifts": {}}

    def _rng(self, key: str) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed & 0xFFFFFFFF, zlib.crc32(key.encode("utf-8"))]
        )

    # --- interval processes -------------------------------------------------

    def _intervals(
        self, kind: str, key: str
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One key's ``(start_h, duration_h, extra_ms)`` columns, sorted.

        ``kind`` is ``"events"`` (the transient process of the config) or
        ``"shifts"`` (:data:`_SHIFT_PROCESS`).  One array draw per
        attribute, in a fixed order, from the key's own stream.
        """
        cfg = self.config
        if kind == "events":
            rate, mean_duration, median_ms, sigma = (
                cfg.event_rate_per_day,
                cfg.event_mean_duration_hours,
                cfg.event_magnitude_median_ms,
                cfg.event_magnitude_sigma,
            )
        else:
            rate, mean_duration, median_ms, sigma = _SHIFT_PROCESS
        rng = self._rng(f"{kind}:{key}")
        count = int(rng.poisson(rate * cfg.horizon_hours / 24.0))
        starts = rng.uniform(0.0, cfg.horizon_hours, size=count)
        durations = rng.exponential(mean_duration, size=count)
        magnitudes = median_ms * np.exp(rng.normal(0.0, sigma, size=count))
        order = np.lexsort((magnitudes, durations, starts))
        return starts[order], durations[order], magnitudes[order]

    def events(self, key: str) -> List[Tuple[float, float, float]]:
        """Transient events for an entity: (start_h, duration_h, extra_ms).

        Sorted by start; identical for identical (seed, key).
        """
        return _as_tuples(self._intervals("events", key))

    def baseline_shifts(self, key: str) -> List[Tuple[float, float, float]]:
        """Slow level shifts for a path: (start_h, duration_h, extra_ms).

        Models interdomain path churn: a route changes and stays changed
        for days, unlike the transient queueing events.  This is what
        makes measurement-driven predictions go stale (the Figure 4
        scheme measures first and redirects later).
        """
        return _as_tuples(self._intervals("shifts", key))

    # --- the delay kernel ---------------------------------------------------

    def _build(self, kind: str, keys: List[str]) -> None:
        """Cache the step tables of ``keys`` (all new), in one pass."""
        draws = [self._intervals(kind, key) for key in keys]
        counts = np.array([starts.size for starts, _, _ in draws], dtype=np.intp)
        if kind == "events":
            counter("netmodel.congestion.entities", len(keys))
            counter("netmodel.congestion.events", int(counts.sum()))
        starts, durations, magnitudes = (
            np.concatenate(column) for column in zip(*draws)
        )
        # Breakpoints: each key's starts and ends, ascending.  A repeated
        # value leaves an empty segment, which no time reads.
        owner = np.repeat(np.arange(len(keys)), counts)
        edges = np.concatenate([starts, starts + durations])
        order = np.lexsort((edges, np.concatenate([owner, owner])))
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        # Interval i is active on segments first[i] .. stop[i] - 1.
        # bincount adds its weights in input order, so each segment sums
        # its intervals in start order from 0.0, as the definition says.
        first, stop = slot[: starts.size], slot[starts.size :]
        span = stop - first
        offset = np.repeat(first - (np.cumsum(span) - span), span)
        values = np.bincount(
            np.arange(offset.size) + offset,
            weights=np.repeat(magnitudes, span),
            minlength=edges.size,
        )
        bounds = np.zeros(len(keys) + 1, dtype=np.intp)
        np.cumsum(2 * counts, out=bounds[1:])
        values = np.insert(values, bounds[:-1], 0.0)  # v[0] of each table
        breakpoints = edges[order]
        tables = self._tables[kind]
        for i, key in enumerate(keys):
            lo, hi = bounds[i], bounds[i + 1]
            tables[key] = (breakpoints[lo:hi], values[lo + i : hi + i + 1])

    def _delay(self, kind: str, keys: Sequence[str], times_h: np.ndarray) -> np.ndarray:
        """Delay of ``kind`` intervals for each key on a sorted grid."""
        times = np.asarray(times_h, dtype=float)
        if times.size == 0 or not len(keys):
            return np.zeros((len(keys), times.size))
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise MeasurementError(f"{kind} delay needs sorted times")
        tables = self._tables[kind]
        fresh = [key for key in keys if key not in tables]
        if fresh:
            self._build(kind, list(dict.fromkeys(fresh)))
        rows = [tables[key] for key in keys]
        sizes = np.fromiter((b.size for b, _ in rows), np.intp, len(rows))
        breakpoints = np.concatenate([b for b, _ in rows])
        values = np.concatenate([v for _, v in rows])
        # Count each row's breakpoints at or before every grid time; the
        # count is the row's index into its own value table.
        width = times.size + 1
        cells = np.repeat(np.arange(len(rows)) * width, sizes)
        cells += np.searchsorted(times, breakpoints, side="left")
        index = np.bincount(cells, minlength=len(rows) * width)
        index = index.reshape(len(rows), width)
        np.cumsum(index, axis=1, out=index)
        index = index[:, :-1]
        index += (np.cumsum(sizes + 1) - (sizes + 1))[:, None]
        return values[index]

    def event_delay_batch(
        self, keys: Sequence[str], times_h: np.ndarray
    ) -> np.ndarray:
        """Transient-event delay (ms) for many entities, ``(len(keys), T)``.

        Entry ``[i, j]`` is the sum of the magnitudes of ``keys[i]``'s
        events active at ``times_h[j]`` (``start <= t < start +
        duration``), added in start order from 0.0.  Each key's step
        table is built once per model; evaluation is one
        ``searchsorted``/``bincount``/``cumsum`` gather over the grid.

        Raises:
            MeasurementError: if ``times_h`` is not sorted ascending.
        """
        return self._delay("events", keys, times_h)

    def shift_delay_batch(
        self, keys: Sequence[str], times_h: np.ndarray
    ) -> np.ndarray:
        """Baseline-shift delay (ms) for many paths, ``(len(keys), T)``.

        The :meth:`event_delay_batch` kernel over :meth:`baseline_shifts`.
        """
        return self._delay("shifts", keys, times_h)

    # --- diurnal load -------------------------------------------------------

    def diurnal_delay_batch(self, times_h: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Daily-cycle delay for many longitudes, shape ``(len(lons), T)``.

        The cycle peaks at ``diurnal_peak_hour`` *local* time; longitude
        sets the timezone (15° per hour).
        """
        cfg = self.config
        times = np.asarray(times_h, dtype=float)
        lons_arr = np.asarray(lons, dtype=float)
        local = (times[None, :] + lons_arr[:, None] / 15.0) % 24.0
        phase = 2.0 * np.pi * (local - cfg.diurnal_peak_hour) / 24.0
        # Raised-cosine bump, cubed to concentrate delay around the peak.
        # Explicit multiplication: numpy lowers ``** 3`` to the generic
        # pow loop, an order of magnitude slower on big grids.
        bump = (1.0 + np.cos(phase)) / 2.0
        return cfg.diurnal_peak_ms * bump * bump * bump

    # --- composites ---------------------------------------------------------

    def shared_delay_batch(
        self, keys: Sequence[str], lons: np.ndarray, times_h: np.ndarray
    ) -> np.ndarray:
        """Destination-side delay for many entities, ``(len(keys), T)``.

        Diurnal load at each entity's longitude plus the entity's own
        transient events (e.g. a congested access network) — the part
        shared by all routes to it.
        """
        if len(keys) != len(np.asarray(lons, dtype=float)):
            raise MeasurementError("keys and lons must be index-aligned")
        return self.diurnal_delay_batch(times_h, lons) + self.event_delay_batch(
            keys, times_h
        )
