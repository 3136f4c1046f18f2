"""Tests for the catchment-map operator view."""

import numpy as np
import pytest

from repro.errors import AnalysisError, RoutingError
from repro.bgp import Grooming
from repro.cdn import CatchmentEntry, CatchmentMap, CdnDeployment, catchment_map
from repro.geo import great_circle_km
from repro.workloads import generate_client_prefixes


def expected_catchment_map(deployment, prefixes) -> CatchmentMap:
    """:func:`catchment_map` computed one client at a time.

    Each client's anycast trace (a RoutingError means unreachable), the
    PoP nearest its ingress, the scalar distance to that catchment, and
    the nearest front-end by ``(km, code)``; then the same traffic
    weighting production applies.
    """
    wan = deployment.internet.wan
    total = unreachable = misdirected_weight = 0.0
    per_pop = {}
    all_km, all_weights = [], []
    for prefix in prefixes:
        total += prefix.weight
        try:
            path = deployment.anycast_path(prefix)
        except RoutingError:
            unreachable += prefix.weight
            continue
        catchment = wan.nearest_pop(path.ingress_city.location)
        nearest = min(
            deployment.front_ends,
            key=lambda p: (
                great_circle_km(prefix.city.location, p.city.location),
                p.code,
            ),
        )
        km = great_circle_km(prefix.city.location, catchment.city.location)
        missed = nearest.code != catchment.code
        per_pop.setdefault(catchment.code, []).append((prefix.weight, km, missed))
        all_km.append(km)
        all_weights.append(prefix.weight)
        if missed:
            misdirected_weight += prefix.weight

    def quantile(values, weights, q):
        order = np.argsort(values)
        cum = np.cumsum(weights[order]) / weights.sum()
        return float(values[order][min(np.searchsorted(cum, q), len(values) - 1)])

    entries = []
    for code, rows in per_pop.items():
        weights, kms, missed = (np.array(column) for column in zip(*rows))
        entries.append(
            CatchmentEntry(
                pop_code=code,
                traffic_share=float(weights.sum() / total),
                n_prefixes=len(rows),
                median_client_km=quantile(kms, weights, 0.5),
                p90_client_km=quantile(kms, weights, 0.9),
                frac_misdirected=float(weights[missed].sum() / weights.sum()),
            )
        )
    entries.sort(key=lambda e: (-e.traffic_share, e.pop_code))
    all_weights = np.array(all_weights)
    return CatchmentMap(
        entries=tuple(entries),
        frac_unreachable=unreachable / total,
        global_median_km=quantile(np.array(all_km), all_weights, 0.5),
        global_frac_misdirected=misdirected_weight / all_weights.sum(),
    )


@pytest.fixture(scope="module")
def cmap(small_internet):
    deployment = CdnDeployment(small_internet)
    prefixes = generate_client_prefixes(small_internet, 60, seed=23)
    return catchment_map(deployment, prefixes)


class TestCatchmentMap:
    def test_shares_partition(self, cmap):
        total = sum(e.traffic_share for e in cmap.entries)
        assert total + cmap.frac_unreachable == pytest.approx(1.0, abs=1e-9)

    def test_sorted_by_share(self, cmap):
        shares = [e.traffic_share for e in cmap.entries]
        assert shares == sorted(shares, reverse=True)

    def test_entries_reference_front_ends(self, cmap, small_internet):
        codes = set(small_internet.wan.pop_codes)
        for entry in cmap.entries:
            assert entry.pop_code in codes
            assert entry.n_prefixes >= 1
            assert entry.median_client_km <= entry.p90_client_km + 1e-9
            assert 0.0 <= entry.frac_misdirected <= 1.0

    def test_global_stats(self, cmap):
        assert cmap.global_median_km >= 0
        assert 0.0 <= cmap.global_frac_misdirected <= 1.0

    def test_entry_lookup(self, cmap):
        first = cmap.entries[0]
        assert cmap.entry(first.pop_code) is first
        with pytest.raises(AnalysisError):
            cmap.entry("zzz")

    def test_render(self, cmap):
        text = cmap.render(top=3)
        assert "front-end" in text
        assert cmap.entries[0].pop_code in text

    def test_requires_prefixes(self, small_internet):
        with pytest.raises(AnalysisError):
            catchment_map(CdnDeployment(small_internet), [])

    def test_misdirection_matches_pathologies(self, cmap):
        """Misdirected traffic exists iff some entry reports it."""
        any_misdirected = any(e.frac_misdirected > 0 for e in cmap.entries)
        assert (cmap.global_frac_misdirected > 0) == any_misdirected

    def test_unreachable_traffic_matches_per_client(self, small_internet):
        """With the prefix withheld from every transit, some clients have
        no route; the map still equals the per-client computation."""
        grooming = Grooming.ungroomed([p.city for p in small_internet.wan.pops])
        for asn in small_internet.graph.providers(small_internet.provider_asn):
            grooming.suppress_neighbor(asn)
        deployment = CdnDeployment(small_internet, grooming=grooming)
        prefixes = generate_client_prefixes(small_internet, 60, seed=11)
        got = catchment_map(deployment, prefixes)
        assert got.frac_unreachable > 0.0
        assert got == expected_catchment_map(deployment, prefixes)
