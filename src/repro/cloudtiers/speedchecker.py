"""Speedchecker-like measurement platform.

"Speedchecker exposes an API to issue measurements (e.g., ping,
traceroute, HTTP GET, etc.) based on credits, similar to RIPE Atlas."

The simulated platform exposes the same surface: an inventory of vantage
points in home routers across ⟨City, AS⟩ locations, credit-metered ping
and traceroute calls, and deterministic results derived from the routing
state, congestion processes, and measurement noise.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError, RoutingError
from repro.faults.domain import VantagePointChurn
from repro.geo import City
from repro.netmodel import CongestionConfig, CongestionModel
from repro.topology import ASRole
from repro.cloudtiers.tiers import CloudDeployment, Tier

#: Credit prices, mirroring a credits-based probe API.
PING_CREDITS = 1
TRACEROUTE_CREDITS = 2
HTTP_GET_CREDITS = 3


@dataclass(frozen=True)
class VantagePoint:
    """A measurement vantage point: a device in an eyeball AS at a city."""

    vp_id: str
    asn: int
    city: City

    @property
    def location_key(self) -> Tuple[str, int]:
        """The ⟨City, AS⟩ location the paper rotates over."""
        return (self.city.name, self.asn)


@dataclass(frozen=True)
class PingResult:
    """RTT samples from one ping burst."""

    vp_id: str
    tier: Tier
    time_h: float
    rtts_ms: Tuple[float, ...]

    @property
    def min_ms(self) -> float:
        return min(self.rtts_ms)

    @property
    def median_ms(self) -> float:
        return float(np.median(self.rtts_ms))


@dataclass(frozen=True)
class HttpGetResult:
    """A timed HTTP download from a tier's VM."""

    vp_id: str
    tier: Tier
    time_h: float
    size_mb: float
    duration_s: float

    @property
    def goodput_mbps(self) -> float:
        return self.size_mb * 8.0 / self.duration_s


@dataclass(frozen=True)
class TracerouteHop:
    """One traceroute hop: the AS and city the packet passed through."""

    asn: int
    city: City
    rtt_ms: float


@dataclass(frozen=True)
class TracerouteResult:
    """AS/city-level traceroute toward a tier's VM."""

    vp_id: str
    tier: Tier
    time_h: float
    hops: Tuple[TracerouteHop, ...]

    @property
    def as_path(self) -> Tuple[int, ...]:
        seen = []
        for hop in self.hops:
            if not seen or seen[-1] != hop.asn:
                seen.append(hop.asn)
        return tuple(seen)

    def ingress_city(self, provider_asn: int) -> Optional[City]:
        """Where the path first enters the provider's network."""
        for hop in self.hops:
            if hop.asn == provider_asn:
                return hop.city
        return None


class SpeedcheckerPlatform:
    """Credit-metered measurement API over a cloud deployment.

    Args:
        deployment: The tiers' routing state.
        credits: Measurement budget; each call debits its price.
        seed: Randomness seed for noise and VP inventory.
        congestion: Optional congestion parameter override.
        horizon_days: Campaign horizon for the congestion processes.
        churn: Optional :class:`~repro.faults.VantagePointChurn` fault
            model.  Home-router vantage points go offline for days at a
            time on the real platform; with churn enabled, the daily
            rotation silently skips unavailable VPs — exactly how the
            real API degrades (fewer results, no error).
    """

    def __init__(
        self,
        deployment: CloudDeployment,
        credits: int = 10_000_000,
        seed: int = 0,
        congestion: Optional[CongestionConfig] = None,
        horizon_days: float = 300.0,
        churn: Optional[VantagePointChurn] = None,
    ) -> None:
        if credits <= 0:
            raise MeasurementError("credit budget must be positive")
        self.deployment = deployment
        self.credits = credits
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        cfg = congestion or CongestionConfig(
            horizon_hours=horizon_days * 24.0,
            event_rate_per_day=0.5,
            event_magnitude_median_ms=8.0,
        )
        self._congestion = CongestionModel(seed, cfg)
        self.churn = churn
        self._vps = self._build_inventory()
        self._path_cache: Dict[Tuple[str, Tier], Optional[object]] = {}
        self._last_mile: Dict[str, float] = {}

    # --- inventory ----------------------------------------------------------

    def _build_inventory(self) -> List[VantagePoint]:
        vps: List[VantagePoint] = []
        graph = self.deployment.internet.graph
        for asys in graph.ases():
            if asys.role is not ASRole.EYEBALL:
                continue
            for city in asys.cities:
                vps.append(
                    VantagePoint(
                        vp_id=f"vp-{asys.asn}-{city.name.lower().replace(' ', '-')}",
                        asn=asys.asn,
                        city=city,
                    )
                )
        if not vps:
            raise MeasurementError("topology has no eyeball vantage points")
        return vps

    @property
    def vantage_points(self) -> List[VantagePoint]:
        """The full VP inventory (one per eyeball ⟨City, AS⟩)."""
        return list(self._vps)

    def select_vantage_points(self, day: int, count: int) -> List[VantagePoint]:
        """Daily rotation: a deterministic slice of the inventory.

        The paper selects ~800 VPs per day "to rotate across ⟨City, AS⟩
        locations over time"; we rotate a window over the shuffled
        inventory the same way.

        With a churn model installed, VPs offline that day are skipped
        silently — the selection may come back short, the way the real
        platform hands out fewer probes than requested.  Churn draws
        are independent of the measurement noise streams, so the VPs
        that remain measure exactly what they would have without churn.
        """
        if count <= 0:
            raise MeasurementError("count must be positive")
        order = np.random.default_rng(self.seed).permutation(len(self._vps))
        start = (day * count) % len(self._vps)
        picked = [
            self._vps[order[(start + i) % len(self._vps)]] for i in range(count)
        ]
        # A VP can repeat only if count exceeds the inventory.
        seen = set()
        unique = []
        for vp in picked:
            if vp.vp_id not in seen:
                seen.add(vp.vp_id)
                unique.append(vp)
        if self.churn is not None:
            unique = [
                vp for vp in unique if self.churn.available(day, vp.vp_id)
            ]
        return unique

    # --- measurement internals -----------------------------------------------

    def _spend(self, amount: int) -> None:
        if self.credits < amount:
            raise MeasurementError(
                f"credit budget exhausted (needed {amount}, have {self.credits})"
            )
        self.credits -= amount

    def _path(self, vp: VantagePoint, tier: Tier):
        key = (vp.vp_id, tier)
        if key not in self._path_cache:
            try:
                self._path_cache[key] = self.deployment.path(tier, vp.asn, vp.city)
            except RoutingError:
                self._path_cache[key] = None
        return self._path_cache[key]

    def _vp_last_mile(self, vp: VantagePoint) -> float:
        if vp.vp_id not in self._last_mile:
            rng = np.random.default_rng(
                [self.seed & 0xFFFFFFFF, zlib.crc32(vp.vp_id.encode("utf-8"))]
            )
            self._last_mile[vp.vp_id] = float(rng.uniform(2.0, 12.0))
        return self._last_mile[vp.vp_id]

    def _samples(
        self, vp: VantagePoint, tier: Tier, times: np.ndarray
    ) -> Optional[np.ndarray]:
        """One RTT sample per time; ``None`` (no noise drawn) if unrouted."""
        path = self._path(vp, tier)
        if path is None:
            return None
        base = 2.0 * path.one_way_ms + self._vp_last_mile(vp)
        shared = self._congestion.shared_delay_batch(
            [f"vp:{vp.vp_id}"], [vp.city.location.lon], times
        )[0]
        route = self._congestion.event_delay_batch(
            [f"tierpath:{vp.vp_id}:{tier.value}"], times
        )[0]
        noise = self._rng.exponential(1.2, size=times.size)
        return base + shared + route + noise

    # --- public API -----------------------------------------------------------

    def ping(
        self, vp: VantagePoint, tier: Tier, time_h: float, count: int = 5
    ) -> Optional[PingResult]:
        """Ping a tier's VM from a vantage point.

        Returns ``None`` if the VP has no route to the VM (the probe
        times out); credits are spent either way, as on the real
        platform.
        """
        if count < 1:
            raise MeasurementError("ping count must be >= 1")
        self._spend(PING_CREDITS * count)
        samples = self._samples(vp, tier, np.full(count, time_h))
        if samples is None:
            return None
        return PingResult(
            vp_id=vp.vp_id,
            tier=tier,
            time_h=time_h,
            rtts_ms=tuple(float(x) for x in samples),
        )

    def ping_burst(
        self,
        vp: VantagePoint,
        tier: Tier,
        times_h: Sequence[float],
        count: int = 5,
    ) -> Optional[np.ndarray]:
        """Many ping rounds in one call: RTTs of shape ``(rounds, count)``.

        The batched form of :meth:`ping` the campaign uses.  Credits for
        the whole burst are debited up front; the noise draw consumes
        exactly the stream positions the equivalent sequence of
        per-round :meth:`ping` calls would (one contiguous block in
        round order), so every sample is bit-identical to theirs.
        Returns ``None`` if the VP has no route to the
        VM — credits are spent, and no noise is drawn, matching the
        per-round behaviour.  Round times must be ascending (the
        congestion kernel evaluates sorted grids).
        """
        if count < 1:
            raise MeasurementError("ping count must be >= 1")
        times = np.asarray(times_h, dtype=float)
        if times.size == 0:
            raise MeasurementError("need at least one round time")
        self._spend(PING_CREDITS * count * times.size)
        samples = self._samples(vp, tier, np.repeat(times, count))
        if samples is None:
            return None
        return samples.reshape(times.size, count)

    def http_get(
        self,
        vp: VantagePoint,
        tier: Tier,
        time_h: float,
        size_mb: float = 10.0,
        bottleneck_mbps: float = 50.0,
    ) -> Optional["HttpGetResult"]:
        """Download ``size_mb`` from a tier's VM and time it.

        Uses the shared TCP completion model over the VP's current RTT
        (including congestion at ``time_h``).  The paper used exactly
        this probe type for its goodput footnote.
        """
        if size_mb <= 0:
            raise MeasurementError("size must be positive")
        self._spend(HTTP_GET_CREDITS)
        samples = self._samples(vp, tier, np.full(3, time_h))
        if samples is None:
            return None
        from repro.netmodel.tcp import TcpPath, transfer_time_s

        rtt = float(np.median(samples))
        duration = transfer_time_s(TcpPath(rtt, bottleneck_mbps), size_mb)
        return HttpGetResult(
            vp_id=vp.vp_id,
            tier=tier,
            time_h=time_h,
            size_mb=size_mb,
            duration_s=duration,
        )

    def traceroute(
        self, vp: VantagePoint, tier: Tier, time_h: float
    ) -> Optional[TracerouteResult]:
        """Traceroute to a tier's VM: AS/city hops with cumulative RTT."""
        self._spend(TRACEROUTE_CREDITS)
        path = self._path(vp, tier)
        if path is None:
            return None
        hops: List[TracerouteHop] = []
        cumulative = self._vp_last_mile(vp) / 2.0
        hops.append(TracerouteHop(asn=vp.asn, city=vp.city, rtt_ms=2.0 * cumulative))

        def add_hop(asn: int, city: City) -> None:
            last = hops[-1]
            if last.asn == asn and last.city == city:
                return
            hops.append(TracerouteHop(asn=asn, city=city, rtt_ms=2.0 * cumulative))

        for seg in path.segments:
            # Entry router of the carrying AS, then its exit router.
            add_hop(seg.asn, seg.from_city)
            cumulative += seg.one_way_ms
            add_hop(seg.asn, seg.to_city)
        provider = self.deployment.internet.provider_asn
        if all(h.asn != provider for h in hops):
            # Zero-length final carry: the handoff city is the ingress.
            add_hop(provider, path.ingress_city)
        return TracerouteResult(
            vp_id=vp.vp_id, tier=tier, time_h=time_h, hops=tuple(hops)
        )
