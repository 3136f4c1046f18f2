"""CDN deployment: anycast and unicast routing state over an Internet.

The CDN is the topology's provider AS; its PoPs are the front-ends.  The
anycast prefix is announced at every front-end; each front-end also gets
a unicast prefix announced only at its own city (this is what the Bing
study measured against).  Routing state for all of them is computed once
and shared by every study: :meth:`CdnDeployment.resolve` answers, for a
whole client population at once, which front-end anycast reaches and
how that compares with unicast to the nearby front-ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError, RoutingError
from repro.geo import City, great_circle_km
from repro.topology import Internet, PointOfPresence
from repro.bgp import PropagationRequest, propagate_many
from repro.bgp.propagation import RoutingTable
from repro.netmodel import ForwardingPath, trace
from repro.workloads import ClientPrefix


@dataclass(frozen=True)
class ClientPaths:
    """Anycast and nearby-unicast routing of a client population.

    Columns are index-aligned with the prefixes passed to
    :meth:`CdnDeployment.resolve`.

    Attributes:
        reachable: Clients with a route to the anycast prefix.
        anycast_rtt_ms: Anycast propagation RTT; NaN where unreachable.
        catchment: Front-end code anycast delivers to (the PoP nearest
            the ingress city); ``None`` where unreachable.
        entry_asn: The neighbor whose link the anycast path enters the
            CDN over (what a grooming action targets); ``None`` where
            unreachable.
        front_ends: Every front-end code, geographically nearest the
            client first, ties broken by code.
        unicast_rtt_ms: Propagation RTT to the unicast prefix of each of
            ``front_ends[:nearby]``, shape ``(P, nearby)`` with
            ``nearby`` clamped to the front-end count; NaN where there is
            no route, and on every unreachable client's row.
    """

    reachable: np.ndarray
    anycast_rtt_ms: np.ndarray
    catchment: Tuple[Optional[str], ...]
    entry_asn: Tuple[Optional[int], ...]
    front_ends: Tuple[Tuple[str, ...], ...]
    unicast_rtt_ms: np.ndarray

    def gap_ms(self) -> np.ndarray:
        """Anycast RTT minus the best traced unicast RTT, per client.

        0 where no traced front-end has a unicast route; NaN where the
        client is unreachable.
        """
        best = np.where(
            np.isnan(self.unicast_rtt_ms), np.inf, self.unicast_rtt_ms
        ).min(axis=1, initial=np.inf)
        return np.where(
            np.isfinite(best),
            self.anycast_rtt_ms - best,
            np.where(self.reachable, 0.0, np.nan),
        )


def traffic_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Traffic-weighted quantile: the smallest value whose cumulative
    weight share reaches ``q``."""
    order = np.argsort(values)
    cum = np.cumsum(weights[order]) / weights.sum()
    idx = min(int(np.searchsorted(cum, q)), len(values) - 1)
    return float(values[order][idx])


@dataclass
class CdnDeployment:
    """Routing state of an anycast CDN over a generated Internet.

    Args:
        internet: The topology; the provider AS plays the CDN.
        grooming: Optional grooming actions applied to the anycast
            prefix (Section 3.2.2's "nurture").
    """

    internet: Internet
    anycast_table: RoutingTable = field(init=False, repr=False)
    unicast_tables: Dict[str, RoutingTable] = field(
        init=False, repr=False, default_factory=dict
    )

    def __init__(self, internet: Internet, grooming=None) -> None:
        self.internet = internet
        origin_cities = None
        prepends = None
        suppressed = None
        if grooming is not None:
            origin_cities, prepends, suppressed = grooming.compile()
        # One anycast table plus one unicast table per PoP, batched over
        # a single propagate_many call (shared CSR adjacency build).
        pops = internet.wan.pops
        requests = [
            PropagationRequest(
                origin=internet.provider_asn,
                origin_cities=(
                    frozenset(origin_cities) if origin_cities else None
                ),
                prepends=dict(prepends or {}),
                suppressed=frozenset(suppressed or ()),
            )
        ]
        requests.extend(
            PropagationRequest(
                origin=internet.provider_asn,
                origin_cities=frozenset({pop.city}),
            )
            for pop in pops
        )
        tables = propagate_many(internet.graph, requests)
        self.anycast_table = tables[0]
        self.unicast_tables = {
            pop.code: table for pop, table in zip(pops, tables[1:])
        }

    @property
    def front_ends(self) -> List[PointOfPresence]:
        """All front-ends (the provider's PoPs)."""
        return self.internet.wan.pops

    # --- client-side routing ------------------------------------------------

    def anycast_path(self, prefix: ClientPrefix) -> ForwardingPath:
        """Forwarding path from a client to the anycast prefix.

        The path ends where traffic enters the CDN; the catchment
        front-end is the PoP at/nearest that ingress.
        """
        return trace(
            self.internet.graph,
            self.anycast_table,
            prefix.asn,
            prefix.city,
        )

    def unicast_path(
        self, prefix: ClientPrefix, pop_code: str
    ) -> Optional[ForwardingPath]:
        """Forwarding path from a client to one front-end's unicast prefix.

        Returns ``None`` when the client has no route to that unicast
        prefix (possible for site-scoped announcements on sparse graphs).
        """
        table = self.unicast_tables.get(pop_code)
        if table is None:
            raise RoutingError(f"unknown front-end {pop_code!r}")
        try:
            return trace(
                self.internet.graph,
                table,
                prefix.asn,
                prefix.city,
                dest_city=self.internet.wan.pop(pop_code).city,
                wan=self.internet.wan,
            )
        except RoutingError:
            return None

    def resolve(
        self, prefixes: Sequence[ClientPrefix], nearby: int = 0
    ) -> ClientPaths:
        """Resolve a client population's anycast and unicast paths.

        Args:
            prefixes: The clients; the result is index-aligned with them.
            nearby: Unicast prefixes to trace per reachable client, at
                its geographically nearest front-ends.  This is the
                measurement target set the Bing beacons used ("directing
                clients to fetch objects from multiple unicast server
                locations" at nearby front-ends).

        Only :class:`~repro.errors.RoutingError` marks a client
        unreachable; any other error propagates.
        """
        if nearby < 0:
            raise MeasurementError("nearby must be non-negative")
        wan = self.internet.wan
        n = len(prefixes)
        k = min(nearby, len(self.front_ends))
        reachable = np.zeros(n, dtype=bool)
        anycast = np.full(n, np.nan)
        unicast = np.full((n, k), np.nan)
        catchment: List[Optional[str]] = [None] * n
        entry_asn: List[Optional[int]] = [None] * n
        front_ends: List[Tuple[str, ...]] = []
        for i, prefix in enumerate(prefixes):
            order = self._by_distance(prefix.city)
            front_ends.append(order)
            try:
                path = self.anycast_path(prefix)
            except RoutingError:
                continue
            reachable[i] = True
            anycast[i] = path.rtt_ms
            catchment[i] = wan.nearest_pop(path.ingress_city.location).code
            entry_asn[i] = path.as_path[-2]
            for j, code in enumerate(order[:k]):
                uni = self.unicast_path(prefix, code)
                if uni is not None:
                    unicast[i, j] = uni.rtt_ms
        return ClientPaths(
            reachable=reachable,
            anycast_rtt_ms=anycast,
            catchment=tuple(catchment),
            entry_asn=tuple(entry_asn),
            front_ends=tuple(front_ends),
            unicast_rtt_ms=unicast,
        )

    def _by_distance(self, city: City) -> Tuple[str, ...]:
        """Front-end codes ordered by ``(great-circle km, code)``."""
        return tuple(
            p.code
            for p in sorted(
                self.front_ends,
                key=lambda p: (
                    great_circle_km(city.location, p.city.location),
                    p.code,
                ),
            )
        )
