"""Section 4's availability discussion, quantified.

Two claims get numbers here:

* "Anycast provides resilience against site outages and avoids
  availability problems that can be induced by DNS caching" — fail the
  busiest front-end; anycast reconverges everything, DNS-pinned clients
  are stranded for a TTL.
* "a larger fraction of the capacity to a small peer may be
  concentrated on a single interconnection ... a failure can have an
  outsized impact" — the per-peer-link traffic-at-risk profile.
"""

from collections import Counter

import pytest

from repro.core import cdn_topology
from repro.availability import anycast_vs_dns_failover, peering_failure_study
from repro.cdn import (
    BeaconConfig,
    CdnDeployment,
    run_beacon_campaign,
    train_redirection_policy,
)
from repro.topology import build_internet
from repro.workloads import assign_ldns, generate_client_prefixes

from conftest import BENCH_SEED, print_comparison


@pytest.fixture(scope="module")
def availability_inputs():
    config = cdn_topology(BENCH_SEED)

    def factory():
        return build_internet(config)

    internet = factory()
    prefixes = generate_client_prefixes(internet, 200, seed=BENCH_SEED + 1)
    prefixes, _ = assign_ldns(prefixes, internet, seed=BENCH_SEED + 2)
    deployment = CdnDeployment(internet)
    dataset = run_beacon_campaign(
        deployment,
        prefixes,
        BeaconConfig(days=3.0, requests_per_prefix=40, seed=BENCH_SEED + 3),
    )
    policy = train_redirection_policy(dataset)
    busiest = Counter(deployment.resolve(prefixes).catchment).most_common(1)[0][0]
    return factory, internet, prefixes, policy, busiest


def test_s4_anycast_vs_dns_failover(benchmark, availability_inputs):
    factory, _internet, prefixes, policy, busiest = availability_inputs

    result = benchmark.pedantic(
        anycast_vs_dns_failover,
        args=(factory, prefixes, busiest),
        kwargs={"policy": policy, "ttl_s": 60.0},
        rounds=1,
        iterations=1,
    )

    print_comparison(
        f"§4 — failing the busiest front-end ({busiest})",
        [
            ["traffic shifted by anycast", "reconverges", f"{result.frac_traffic_shifted:.0%}"],
            ["traffic unreachable", "0 (resilience)", f"{result.frac_traffic_unreachable:.1%}"],
            ["median added latency (ms)", "bounded", result.median_added_latency_ms],
            ["DNS-pinned traffic stranded", "TTL-bound outage", f"{result.dns_frac_stranded:.1%}"],
            ["outage user-seconds per unit traffic", "anycast avoids", result.dns_outage_user_seconds],
        ],
    )

    assert result.frac_traffic_shifted > 0.0
    assert result.frac_traffic_unreachable == 0.0
    assert result.median_added_latency_ms < 100.0


def test_s4_peering_risk_profile(benchmark, availability_inputs):
    _factory, internet, prefixes, _policy, _busiest = availability_inputs

    result = benchmark(peering_failure_study, internet, prefixes)

    print_comparison(
        "§4 — per-peer-link traffic at risk",
        [
            ["peer links", "many", len(result.risks)],
            ["largest single-adjacency share", "bounded", f"{result.top_share:.1%}"],
            [
                "traffic on single-interconnect adjacencies",
                "outsized-impact exposure",
                f"{result.single_interconnect_share:.0%}",
            ],
            [
                "median interconnects, small peers",
                "1 (concentrated)",
                result.median_interconnects_small,
            ],
            [
                "median interconnects, large peers",
                "> small peers",
                result.median_interconnects_large,
            ],
        ],
    )

    assert result.top_share < 0.5
    assert (
        result.median_interconnects_large >= result.median_interconnects_small
    )
