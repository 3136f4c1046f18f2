"""Tests for the CDN deployment: anycast and unicast routing state."""

import numpy as np
import pytest

import repro.cdn.deployment as deployment_module
from repro.errors import MeasurementError, RoutingError, TopologyError
from repro.geo import great_circle_km
from repro.bgp import Grooming
from repro.cdn import (
    BeaconConfig,
    CdnDeployment,
    catchment_map,
    groom_iteratively,
    run_beacon_campaign,
)
from repro.workloads import generate_client_prefixes


@pytest.fixture(scope="module")
def deployment(small_internet):
    return CdnDeployment(small_internet)


@pytest.fixture(scope="module")
def prefixes(small_internet):
    return generate_client_prefixes(small_internet, 30, seed=6)


@pytest.fixture(scope="module")
def cut_off(small_internet):
    """A deployment with a withdrawn city whose anycast prefix is also
    withheld from every transit provider, so clients outside the
    peers' customer cones have no route."""
    grooming = Grooming.ungroomed([p.city for p in small_internet.wan.pops])
    grooming.withdraw_city(small_internet.wan.pop("lhr").city)
    for asn in small_internet.graph.providers(small_internet.provider_asn):
        grooming.suppress_neighbor(asn)
    return CdnDeployment(small_internet, grooming=grooming)


class TestTables:
    def test_unicast_table_per_front_end(self, deployment, small_internet):
        assert set(deployment.unicast_tables) == set(
            small_internet.wan.pop_codes
        )

    def test_unicast_scoped_to_site(self, deployment, small_internet):
        for code, table in deployment.unicast_tables.items():
            assert table.origin_cities == frozenset(
                {small_internet.wan.pop(code).city}
            )

    def test_anycast_unscoped(self, deployment):
        assert deployment.anycast_table.origin_cities is None


class TestCatchment:
    def test_catchment_is_a_front_end(self, deployment, prefixes):
        codes = {p.code for p in deployment.front_ends}
        paths = deployment.resolve(prefixes)
        assert paths.reachable.all()
        assert set(paths.catchment) <= codes

    def test_anycast_path_ends_at_provider(self, deployment, prefixes):
        for prefix in prefixes[:10]:
            path = deployment.anycast_path(prefix)
            assert path.as_path[0] == prefix.asn
            assert path.as_path[-1] == deployment.internet.provider_asn

    def test_unicast_path_reaches_site(self, deployment, prefixes):
        target = deployment.front_ends[0]
        for prefix in prefixes[:10]:
            path = deployment.unicast_path(prefix, target.code)
            if path is None:
                continue
            assert path.as_path[-1] == deployment.internet.provider_asn

    def test_unknown_front_end_rejected(self, deployment, prefixes):
        with pytest.raises(RoutingError):
            deployment.unicast_path(prefixes[0], "zzz")


class TestNearbyFrontEnds:
    def test_sorted_by_distance(self, deployment, prefixes):
        prefix = prefixes[0]
        paths = deployment.resolve([prefix], nearby=5)
        assert paths.unicast_rtt_ms.shape == (1, 5)
        distances = [
            great_circle_km(
                prefix.city.location,
                deployment.internet.wan.pop(code).city.location,
            )
            for code in paths.front_ends[0]
        ]
        assert distances == sorted(distances)

    def test_k_larger_than_inventory(self, deployment, prefixes):
        paths = deployment.resolve(prefixes[:1], nearby=10_000)
        assert len(paths.front_ends[0]) == len(deployment.front_ends)
        assert paths.unicast_rtt_ms.shape == (1, len(deployment.front_ends))


class TestGroomedDeployment:
    def test_withdrawal_changes_catchments(self, small_internet, prefixes):
        plain = CdnDeployment(small_internet)
        # Withdraw the busiest catchment city and verify its clients move.
        from collections import Counter

        catchments = Counter(plain.resolve(prefixes).catchment)
        busiest, count = catchments.most_common(1)[0]
        assert count > 0
        grooming = Grooming.ungroomed(
            [p.city for p in small_internet.wan.pops]
        )
        grooming.withdraw_city(small_internet.wan.pop(busiest).city)
        groomed = CdnDeployment(small_internet, grooming=grooming)
        after = groomed.resolve(prefixes)
        for prefix, code in zip(prefixes, after.catchment):
            assert code != busiest or (
                # The nearest-pop mapping may still name the withdrawn
                # PoP if ingress lands nearby; the ingress city itself
                # must not be the withdrawn city.
                groomed.anycast_path(prefix).ingress_city
                != small_internet.wan.pop(busiest).city
            )


def _resolve_per_client(deployment, prefixes, nearby):
    """What :meth:`CdnDeployment.resolve` computes, one client at a time
    from the per-client traces."""
    wan = deployment.internet.wan
    rows = []
    for prefix in prefixes:
        order = tuple(
            p.code
            for p in sorted(
                deployment.front_ends,
                key=lambda p: (
                    great_circle_km(prefix.city.location, p.city.location),
                    p.code,
                ),
            )
        )
        try:
            path = deployment.anycast_path(prefix)
        except RoutingError:
            rows.append((False, None, None, None, order, [None] * nearby))
            continue
        unicast = [deployment.unicast_path(prefix, c) for c in order[:nearby]]
        rows.append(
            (
                True,
                2.0 * path.one_way_ms,
                wan.nearest_pop(path.ingress_city.location).code,
                path.as_path[-2],
                order,
                [None if u is None else 2.0 * u.one_way_ms for u in unicast],
            )
        )
    return rows


class TestResolve:
    @pytest.mark.parametrize("which", ["plain", "cut_off"])
    def test_agrees_with_per_client_traces(self, request, prefixes, which):
        deployment = request.getfixturevalue(
            "deployment" if which == "plain" else "cut_off"
        )
        nearby = 4
        paths = deployment.resolve(prefixes, nearby=nearby)
        expected = _resolve_per_client(deployment, prefixes, nearby)
        if which == "cut_off":
            assert not paths.reachable.all()
        assert paths.unicast_rtt_ms.shape == (len(prefixes), nearby)
        for i, (ok, rtt, catchment, entry, order, unicast) in enumerate(expected):
            assert bool(paths.reachable[i]) is ok
            assert paths.catchment[i] == catchment
            assert paths.entry_asn[i] == entry
            assert paths.front_ends[i] == order
            if ok:
                assert paths.anycast_rtt_ms[i] == rtt
            else:
                assert np.isnan(paths.anycast_rtt_ms[i])
            for j, value in enumerate(unicast):
                if value is None:
                    assert np.isnan(paths.unicast_rtt_ms[i, j])
                else:
                    assert paths.unicast_rtt_ms[i, j] == value

    def test_gap_masks_unreachable(self, cut_off, prefixes):
        paths = cut_off.resolve(prefixes, nearby=4)
        gaps = paths.gap_ms()
        assert np.array_equal(np.isnan(gaps), ~paths.reachable)

    def test_empty_population(self, deployment):
        paths = deployment.resolve([], nearby=3)
        assert paths.reachable.shape == (0,)
        assert paths.unicast_rtt_ms.shape == (0, 3)

    def test_negative_nearby_rejected(self, deployment, prefixes):
        with pytest.raises(MeasurementError):
            deployment.resolve(prefixes, nearby=-1)


class TestTypedFailures:
    """Only RoutingError means "no route"; any other failure in a
    per-client trace is a defect and must reach the caller."""

    @pytest.fixture
    def broken_trace(self, monkeypatch):
        def trace(*args, **kwargs):
            raise TopologyError("corrupt adjacency")

        monkeypatch.setattr(deployment_module, "trace", trace)

    def test_catchment_map_propagates(self, deployment, prefixes, broken_trace):
        with pytest.raises(TopologyError):
            catchment_map(deployment, prefixes)

    def test_beacon_campaign_propagates(
        self, deployment, prefixes, broken_trace
    ):
        with pytest.raises(TopologyError):
            run_beacon_campaign(
                deployment, prefixes, BeaconConfig(requests_per_prefix=4)
            )

    def test_grooming_propagates(self, small_internet, prefixes, broken_trace):
        with pytest.raises(TopologyError):
            groom_iteratively(small_internet, prefixes, max_actions=1)
