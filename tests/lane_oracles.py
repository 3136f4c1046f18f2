"""Reference implementations the production kernels are tested against.

Each computation in :mod:`repro` has one production path.  Where an
older, simpler implementation of a kernel exists, it lives here as a
test oracle: a drop-in with the private production kernel's signature.
:func:`reference` swaps an oracle into its production module for the
duration of a block, so the public entry point runs end to end on the
reference kernel; ``tests/test_lane_agreement.py`` compares that against
production under the contracts in ``docs/performance.md``.  The
congestion-delay oracle is not swapped in: tests call it next to
``CongestionModel``'s kernel, and ``_synthesize_scalar`` uses it.

``benchmarks/perf.py`` times the same oracles, loading this module by
file path, so it imports only numpy and :mod:`repro`.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.bgp import propagation
from repro.bgp.propagation import RoutingTable
from repro.bgp.routes import Route, RoutePref
from repro.cdn import dns_redirection
from repro.cdn.dns_redirection import ANYCAST, RedirectionPolicy
from repro.cdn.measurement import BeaconDataset
from repro.cloudtiers import campaign
from repro.cloudtiers.speedchecker import SpeedcheckerPlatform, VantagePoint
from repro.cloudtiers.tiers import Tier
from repro.edgefabric import episodes, sampler
from repro.edgefabric.episodes import Episode
from repro.edgefabric.sampler import MeasurementConfig, MeasurementPlan
from repro.netmodel import CongestionModel
from repro.netmodel.rtt import median_min_rtt, median_min_rtt_ci_halfwidth
from repro.topology import generator

# --- bgp: propagation ----------------------------------------------------


def _propagate_scalar(table: RoutingTable) -> None:
    """Oracle for ``propagation._propagate_fast``: the heap/dict construction.

    Fills ``table._routes`` bit-identically to the CSR construction.
    """
    graph = table.graph
    origin = table.origin
    prepends = table.prepends
    routes = table._routes
    routes[origin] = Route(path=(origin,), pref=RoutePref.ORIGIN, advertised_length=0)

    def origin_allowed(neighbor: int) -> bool:
        return table._origin_export_allowed(graph.link(origin, neighbor))

    def origin_extra(neighbor: int) -> int:
        return int(prepends.get(neighbor, 0))

    # --- Phase 1: customer routes, origin upward through providers. -----
    heap: List[Tuple[int, int, int, Route]] = []

    def push_to_providers(asn: int, route: Route) -> None:
        for provider in graph.providers(asn):
            if provider in route.path:
                continue
            if asn == origin and not origin_allowed(provider):
                continue
            extra = origin_extra(provider) if asn == origin else 0
            offered = route.extended_to(provider, RoutePref.CUSTOMER, extra)
            heapq.heappush(
                heap, (offered.advertised_length, asn, provider, offered)
            )

    push_to_providers(origin, routes[origin])
    while heap:
        _, _, asn, offered = heapq.heappop(heap)
        if asn in routes:
            continue  # already holds an equal-or-better customer route
        routes[asn] = offered
        push_to_providers(asn, offered)

    # --- Phase 2: one round of peer routes. ------------------------------
    phase1_holders = list(routes)
    peer_offers: Dict[int, Route] = {}
    for asn in phase1_holders:
        route = routes[asn]
        for peer in graph.peers(asn):
            if peer in routes or peer in route.path:
                continue
            if asn == origin and not origin_allowed(peer):
                continue
            extra = origin_extra(peer) if asn == origin else 0
            offered = route.extended_to(peer, RoutePref.PEER, extra)
            incumbent = peer_offers.get(peer)
            if incumbent is None or _offer_key(offered) < _offer_key(incumbent):
                peer_offers[peer] = offered
    routes.update(peer_offers)

    # --- Phase 3: provider routes, downward through customers. ----------
    # Dijkstra over customer edges, seeded by every AS that already holds
    # a route.  Only routeless ASes adopt provider routes (lower pref than
    # anything assigned in phases 1-2), and they re-export downward.
    frontier: List[Tuple[int, int, int, Route]] = []
    for asn, route in list(routes.items()):
        for customer in graph.customers(asn):
            if customer in routes or customer in route.path:
                continue
            if asn == origin and not origin_allowed(customer):
                continue
            extra = origin_extra(customer) if asn == origin else 0
            offered = route.extended_to(customer, RoutePref.PROVIDER, extra)
            heapq.heappush(
                frontier, (offered.advertised_length, asn, customer, offered)
            )
    while frontier:
        _, _, asn, offered = heapq.heappop(frontier)
        if asn in routes:
            continue  # already adopted an equal-or-better offer
        routes[asn] = offered
        for customer in graph.customers(asn):
            if customer in routes or customer in offered.path:
                continue
            nxt = offered.extended_to(customer, RoutePref.PROVIDER)
            heapq.heappush(
                frontier, (nxt.advertised_length, asn, customer, nxt)
            )


def _offer_key(route: Route) -> Tuple[int, int]:
    """Ordering key among same-preference offers: shortest, lowest hop."""
    return (route.advertised_length, route.next_hop)


# --- netmodel: congestion delay ------------------------------------------


def interval_delay_scalar(intervals, times_h: np.ndarray) -> np.ndarray:
    """Oracle for ``CongestionModel``'s delay kernel: the per-event loop.

    ``intervals`` is ``model.events(key)`` or ``model.baseline_shifts(key)``;
    each active interval's magnitude is added in start order from 0.0.
    """
    times = np.asarray(times_h, dtype=float)
    delay = np.zeros_like(times)
    for start, duration, magnitude in intervals:
        active = (times >= start) & (times < start + duration)
        if active.any():
            delay[active] += magnitude
    return delay


def shared_delay_scalar(
    model: CongestionModel, key: str, lon: float, times_h: np.ndarray
) -> np.ndarray:
    """Oracle for one row of ``CongestionModel.shared_delay_batch``."""
    diurnal = model.diurnal_delay_batch(times_h, [lon])[0]
    return diurnal + interval_delay_scalar(model.events(key), times_h)


# --- edgefabric: synthesis ----------------------------------------------


def _synthesize_scalar(
    plan: MeasurementPlan,
    times: np.ndarray,
    sessions: np.ndarray,
    cfg: MeasurementConfig,
    rng: np.random.Generator,
    congestion: CongestionModel,
    dest_congestion: CongestionModel,
    medians: np.ndarray,
    ci_half: np.ndarray,
) -> None:
    """Oracle for ``sampler._synthesize_fast``: the per-pair, per-route loop.

    Draws the same noise distribution as production, interleaved per
    pair, so cells differ and statistics agree.
    """
    pairs = plan.pairs
    lo, hi = cfg.last_mile_ms_range
    for i, pair in enumerate(pairs):
        prefix = pair.prefix
        last_mile = float(rng.uniform(lo, hi))
        shared = shared_delay_scalar(
            dest_congestion, f"dest:{prefix.pid}", prefix.city.location.lon, times
        )
        n = sessions[i]
        sd = cfg.min_rtt_noise_ms / np.sqrt(n)
        # Vectorized form of median_min_rtt_ci_halfwidth over the window
        # axis: z * scale / sqrt(n).
        halfwidth = median_min_rtt_ci_halfwidth(cfg.min_rtt_noise_ms, 1) / np.sqrt(n)
        for j, route in enumerate(pair.routes):
            base = 2.0 * route.base_one_way_ms + last_mile
            specific = interval_delay_scalar(congestion.events(route.link_key), times)
            specific = specific + interval_delay_scalar(
                congestion.events(route.interior_key), times
            )
            floor = base + shared + specific
            medians[i, :, j] = median_min_rtt(
                floor, cfg.min_rtt_noise_ms
            ) + rng.normal(0.0, sd)
            ci_half[i, :, j] = halfwidth


# --- edgefabric: episode extraction --------------------------------------


def _runs(mask: np.ndarray, excess: np.ndarray, pair_index: int) -> List[Episode]:
    """One pair's maximal runs of ``mask``, peaks read from ``excess``."""
    episodes = []
    start: Optional[int] = None
    for w, active in enumerate(mask):
        if active and start is None:
            start = w
        elif not active and start is not None:
            episodes.append(
                Episode(
                    pair_index=pair_index,
                    start=start,
                    length=w - start,
                    peak_ms=float(np.nanmax(excess[start:w])),
                )
            )
            start = None
    if start is not None:
        episodes.append(
            Episode(
                pair_index=pair_index,
                start=start,
                length=mask.size - start,
                peak_ms=float(np.nanmax(excess[start:])),
            )
        )
    return episodes


def _extract_runs_scalar(
    bgp: np.ndarray, best_alt: np.ndarray, threshold_ms: float
) -> episodes._RunTally:
    """Oracle for ``episodes._extract_runs``: one pair at a time."""
    degradations: List[Episode] = []
    opportunities: List[Episode] = []
    degraded_windows = 0
    opportunity_windows = 0
    total_windows = 0
    escapes = 0
    for i in range(bgp.shape[0]):
        series = bgp[i]
        valid = ~np.isnan(series)
        if valid.sum() < 8:
            continue
        baseline = float(np.nanmedian(series))
        excess = series - baseline
        degraded = valid & (excess > threshold_ms)
        improvement = series - best_alt[i]
        opportunity = valid & ~np.isnan(best_alt[i]) & (improvement > threshold_ms)
        total_windows += int(valid.sum())
        degraded_windows += int(degraded.sum())
        opportunity_windows += int(opportunity.sum())
        pair_degradations = _runs(degraded, excess, i)
        degradations.extend(pair_degradations)
        opportunities.extend(_runs(opportunity, improvement, i))
        for episode in pair_degradations:
            window = slice(episode.start, episode.start + episode.length)
            if opportunity[window].mean() >= 0.5:
                escapes += 1
    return (
        degradations,
        opportunities,
        total_windows,
        degraded_windows,
        opportunity_windows,
        escapes,
    )


# --- cdn: redirection training -------------------------------------------


def _train_scalar(
    dataset: BeaconDataset,
    by_ldns: Dict[str, List[int]],
    sample_idx: np.ndarray,
    margin_ms: float,
    ecs_resolvers,
) -> RedirectionPolicy:
    """Oracle for ``dns_redirection._train_fast``: per-code concatenation."""
    choices: Dict[str, str] = {}
    prefix_choices: Dict[str, str] = {}
    for ldns, members in by_ldns.items():
        # Pool the resolver's clients: median anycast RTT and median RTT
        # per front-end over the sampled training measurements of all
        # members.
        any_samples = dataset.anycast_rtt[members][:, sample_idx].ravel()
        anycast_median = float(np.median(any_samples))
        fe_medians: Dict[str, float] = {}
        all_codes = dataset.fe_codes[members[0]]
        for code in all_codes:
            samples = []
            for m in members:
                col = dataset.column_of(m, code)
                if col is None:
                    continue
                s = dataset.unicast_rtt[m, sample_idx, col]
                s = s[~np.isnan(s)]
                if s.size:
                    samples.append(s)
            if samples:
                fe_medians[code] = float(np.median(np.concatenate(samples)))
        if not fe_medians:
            choices[ldns] = ANYCAST
            continue
        best_code = min(fe_medians, key=lambda c: (fe_medians[c], c))
        if fe_medians[best_code] + margin_ms < anycast_median:
            choices[ldns] = best_code
        else:
            choices[ldns] = ANYCAST

    # ECS-capable resolvers: decide per client prefix, not per pool.
    if ecs_resolvers:
        for ldns, members in by_ldns.items():
            if ldns not in ecs_resolvers:
                continue
            for m in members:
                anycast_median = float(
                    np.median(dataset.anycast_rtt[m, sample_idx])
                )
                fe_medians = {}
                for code in dataset.fe_codes[m]:
                    col = dataset.column_of(m, code)
                    if col is None:
                        continue
                    samples = dataset.unicast_rtt[m, sample_idx, col]
                    samples = samples[~np.isnan(samples)]
                    if samples.size:
                        fe_medians[code] = float(np.median(samples))
                if not fe_medians:
                    continue
                best_code = min(fe_medians, key=lambda c: (fe_medians[c], c))
                if fe_medians[best_code] + margin_ms < anycast_median:
                    prefix_choices[dataset.prefixes[m].pid] = best_code
    return RedirectionPolicy(
        choices=choices, margin_ms=margin_ms, prefix_choices=prefix_choices
    )


# --- cloudtiers: campaign pings -------------------------------------------


def _round_medians_scalar(
    platform: SpeedcheckerPlatform,
    vp: VantagePoint,
    tier: Tier,
    round_times: np.ndarray,
    cfg: campaign.CampaignConfig,
) -> List[float]:
    """Oracle for ``campaign._round_medians``: one ``ping`` per round."""
    medians: List[float] = []
    for t in round_times:
        result = platform.ping(vp, tier, float(t), count=cfg.pings_per_round)
        if result is not None:
            medians.append(result.median_ms)
    return medians


# --- topology: generator memo --------------------------------------------


class _PassThroughMemo:
    """Oracle for ``generator._BuildMemo``: recomputes every lookup.

    Distances come from one scalar haversine per call, so a build under
    this memo is the un-memoised construction.
    """

    km = staticmethod(generator._scalar_km)

    def get(self, table, key, compute):
        return compute()


# --- swapping an oracle in ------------------------------------------------

#: Computation name -> (production module, private kernel, oracle).
ORACLES = {
    "propagate": (propagation, "_propagate_fast", _propagate_scalar),
    "synthesize": (sampler, "_synthesize_fast", _synthesize_scalar),
    "episodes": (episodes, "_extract_runs", _extract_runs_scalar),
    "redirection": (dns_redirection, "_train_fast", _train_scalar),
    "campaign": (campaign, "_round_medians", _round_medians_scalar),
    "topology": (generator, "_build_memo", _PassThroughMemo),
}


@contextlib.contextmanager
def reference(*names: str) -> Iterator[None]:
    """Run the named computations on their oracles inside the block.

    Each name is a key of :data:`ORACLES`; the production kernel is
    restored on exit, also when the block raises.
    """
    saved = []
    try:
        for name in names:
            module, attr, oracle = ORACLES[name]
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, oracle)
        yield
    finally:
        for module, attr, production in reversed(saved):
            setattr(module, attr, production)
