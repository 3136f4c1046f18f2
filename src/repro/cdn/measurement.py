"""Beacon measurement campaign: clients measure anycast + nearby unicast.

The Bing study "instrumented millions of ... search results with
JavaScript to measure from the client to both the anycast address and to
a number of nearby unicast addresses".  Each simulated request issues
one RTT sample to the anycast address and to each of the client's k
nearby unicast front-ends (catchment included), sharing the request's
last-mile congestion across all targets — the beacons fire together.

Each path additionally carries slow baseline shifts (interdomain path
churn over days); a prediction trained before a shift and deployed after
it is wrong, which is one reason the Figure 4 scheme loses to anycast
for a slice of clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.faults.domain import FrontEndDrain
from repro.obs.trace import traced
from repro.geo import Region
from repro.netmodel import CongestionConfig, CongestionModel
from repro.workloads import ClientPrefix
from repro.cdn.deployment import CdnDeployment


@dataclass(frozen=True)
class BeaconConfig:
    """Parameters of a beacon campaign.

    Attributes:
        days: Campaign length in simulated days.
        requests_per_prefix: Beacon-carrying requests sampled per prefix.
        nearby_front_ends: Unicast targets per client (nearest-k).
        seed: Master randomness seed.
        rtt_noise_ms: Scale of the per-sample exponential RTT residual.
        last_mile_ms_range: Uniform range of per-prefix access RTT.
        congestion: Optional override of the congestion parameters.
        drain: Optional :class:`~repro.faults.FrontEndDrain` fault
            model.  A draining front-end answers no beacons, so its
            unicast samples during the drain window come back NaN —
            the same shape unreachability already takes in the
            dataset.  Drain decisions are independent of the
            measurement noise streams; all surviving samples are
            bit-identical to a drain-free campaign's.
    """

    days: float = 7.0
    requests_per_prefix: int = 120
    nearby_front_ends: int = 6
    seed: int = 0
    rtt_noise_ms: float = 2.0
    last_mile_ms_range: Tuple[float, float] = (2.0, 10.0)
    congestion: Optional[CongestionConfig] = None
    drain: Optional[FrontEndDrain] = None

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise MeasurementError("days must be positive")
        if self.requests_per_prefix < 2:
            raise MeasurementError("need at least two requests per prefix")
        if self.nearby_front_ends < 1:
            raise MeasurementError("need at least one unicast target")

    def congestion_config(self) -> CongestionConfig:
        """Effective congestion parameters."""
        if self.congestion is not None:
            return self.congestion
        return CongestionConfig(
            horizon_hours=self.days * 24.0,
            event_rate_per_day=0.8,
            event_magnitude_median_ms=9.0,
        )


@dataclass
class BeaconDataset:
    """Results of a beacon campaign, vectorized per prefix.

    Attributes:
        prefixes: Measured client prefixes (those with a routable anycast
            path), index-aligned with the arrays.
        catchments: Anycast catchment front-end code per prefix.
        fe_codes: Unicast target codes per prefix (length k each,
            catchment first).
        times_h: Request times per prefix, shape ``(P, R)``.
        anycast_rtt: Per-request anycast RTT (ms), shape ``(P, R)``.
        unicast_rtt: Per-request unicast RTTs (ms), shape ``(P, R, K)``
            over *all* front-ends (catchment first, then by distance);
            NaN where a front-end was unreachable.
        n_nearby: How many leading columns of ``unicast_rtt`` count as
            the "nearby" targets the Bing beacons measured (Figure 3
            compares anycast against the best of these).
    """

    prefixes: List[ClientPrefix]
    catchments: List[str]
    fe_codes: List[Tuple[str, ...]]
    times_h: np.ndarray
    anycast_rtt: np.ndarray
    unicast_rtt: np.ndarray
    n_nearby: int = 6

    @property
    def n_prefixes(self) -> int:
        return len(self.prefixes)

    @property
    def n_requests(self) -> int:
        return int(self.anycast_rtt.shape[1])

    def regions(self) -> List[Region]:
        """Region of each prefix's country, index-aligned."""
        return [p.city.region for p in self.prefixes]

    def weights(self) -> np.ndarray:
        """Traffic weight per prefix."""
        return np.array([p.weight for p in self.prefixes])

    def slash24_weights(self) -> np.ndarray:
        """Query-volume weight per prefix in /24 units (Figure 4)."""
        return np.array([p.weight * p.n_24s for p in self.prefixes])

    def best_nearby_unicast(self) -> np.ndarray:
        """Best per-request RTT among the nearby unicast targets, (P, R)."""
        with np.errstate(all="ignore"):
            return np.nanmin(self.unicast_rtt[:, :, : self.n_nearby], axis=2)

    def column_of(self, prefix_index: int, fe_code: str) -> Optional[int]:
        """Column index of a front-end for a prefix, or ``None``."""
        codes = self.fe_codes[prefix_index]
        try:
            return codes.index(fe_code)
        except ValueError:
            return None


@traced("cdn.beacon_campaign")
def run_beacon_campaign(
    deployment: CdnDeployment,
    prefixes: Sequence[ClientPrefix],
    config: Optional[BeaconConfig] = None,
) -> BeaconDataset:
    """Run the beacon campaign over a client population."""
    cfg = config or BeaconConfig()
    if not prefixes:
        raise MeasurementError("no client prefixes")
    rng = np.random.default_rng(cfg.seed)
    congestion = CongestionModel(cfg.seed, cfg.congestion_config())
    horizon = cfg.days * 24.0

    # Measure every front-end: the catchment first, then the rest by
    # distance.  Figure 3 only uses the nearest `nearby_front_ends`
    # columns; the full set lets a DNS-redirection policy send the
    # client anywhere (including somewhere bad, which is the failure
    # mode public-resolver aggregation produces).  Unreachable clients
    # are skipped like failed beacons.
    k = len(deployment.front_ends)
    paths = deployment.resolve(prefixes, nearby=k)
    rows = np.flatnonzero(paths.reachable)
    if not rows.size:
        raise MeasurementError("no prefix could reach the anycast prefix")
    kept = [prefixes[i] for i in rows]
    catchments = [paths.catchment[i] for i in rows]
    columns = np.empty((rows.size, k), dtype=np.intp)
    fe_codes: List[Tuple[str, ...]] = []
    for r, i in enumerate(rows):
        order = paths.front_ends[i]
        first = order.index(paths.catchment[i])
        columns[r] = [first, *range(first), *range(first + 1, k)]
        fe_codes.append(tuple(order[j] for j in columns[r]))
    base_any = paths.anycast_rtt_ms[rows]
    base_uni = np.take_along_axis(paths.unicast_rtt_ms[rows], columns, axis=1)

    n_p = len(kept)
    n_r = cfg.requests_per_prefix
    times = np.empty((n_p, n_r))
    anycast_rtt = np.empty((n_p, n_r))
    unicast_rtt = np.full((n_p, n_r, k), np.nan)
    lo, hi = cfg.last_mile_ms_range
    for i, prefix in enumerate(kept):
        t = np.sort(rng.uniform(0.0, horizon, size=n_r))
        times[i] = t
        last_mile = float(rng.uniform(lo, hi))
        shared = (
            last_mile
            + congestion.shared_delay_batch(
                [f"dest:{prefix.pid}"], [prefix.city.location.lon], t
            )[0]
            + rng.exponential(cfg.rtt_noise_ms, size=n_r)
        )
        # Delay rows: the anycast path, then the reachable front-ends in
        # column order.
        cols = np.flatnonzero(~np.isnan(base_uni[i]))
        keys = [f"cdnpath:{prefix.pid}->anycast"]
        keys += [f"cdnpath:{prefix.pid}->{fe_codes[i][j]}" for j in cols]
        link = congestion.event_delay_batch(keys, t)
        shift = congestion.shift_delay_batch(keys, t)
        anycast_rtt[i] = (
            base_any[i]
            + shared
            + link[0]
            + shift[0]
            + rng.exponential(cfg.rtt_noise_ms, size=n_r)
        )
        for row, j in enumerate(cols, start=1):
            unicast_rtt[i, :, j] = (
                base_uni[i, j]
                + shared
                + link[row]
                + shift[row]
                + rng.exponential(cfg.rtt_noise_ms, size=n_r)
            )
    if cfg.drain is not None:
        # Applied after every noise draw, so the drain only removes
        # samples — it never shifts the random streams under the
        # samples that survive.
        for i in range(n_p):
            for j, code in enumerate(fe_codes[i]):
                mask = cfg.drain.drained_mask(code, times[i])
                if mask.any():
                    unicast_rtt[i, mask, j] = np.nan
    return BeaconDataset(
        prefixes=kept,
        catchments=catchments,
        fe_codes=fe_codes,
        times_h=times,
        anycast_rtt=anycast_rtt,
        unicast_rtt=unicast_rtt,
        n_nearby=cfg.nearby_front_ends,
    )
