#!/usr/bin/env python
"""Section 4's availability discussion, run end to end.

Fails the busiest front-end and compares how anycast clients fail over
(instantly, via BGP reconvergence) against DNS-redirected clients
(stranded until their resolver's TTL expires), then profiles per-peer
traffic-at-risk.

Run with::

    python examples/availability_study.py [seed]
"""

import sys
from collections import Counter

from repro.analysis import format_table
from repro.availability import anycast_vs_dns_failover, peering_failure_study
from repro.cdn import (
    BeaconConfig,
    CdnDeployment,
    run_beacon_campaign,
    train_redirection_policy,
)
from repro.core import cdn_topology
from repro.topology import build_internet
from repro.workloads import assign_ldns, generate_client_prefixes


def main(seed: int = 0) -> None:
    config = cdn_topology(seed)

    def factory():
        return build_internet(config)

    internet = factory()
    prefixes = generate_client_prefixes(internet, 200, seed=seed + 1)
    prefixes, _ = assign_ldns(prefixes, internet, seed=seed + 2)
    deployment = CdnDeployment(internet)

    print("Training a DNS-redirection policy (so some clients are pinned)...")
    dataset = run_beacon_campaign(
        deployment,
        prefixes,
        BeaconConfig(days=3.0, requests_per_prefix=40, seed=seed + 3),
    )
    policy = train_redirection_policy(dataset)

    busiest = Counter(deployment.resolve(prefixes).catchment).most_common(1)[0][0]
    print(f"Failing the busiest front-end: {busiest}")
    result = anycast_vs_dns_failover(
        factory, prefixes, busiest, policy=policy, ttl_s=60.0
    )
    print(
        format_table(
            ["statistic", "value"],
            [
                ["traffic whose catchment was the site", f"{result.frac_traffic_shifted:.0%}"],
                ["traffic unreachable after failover", f"{result.frac_traffic_unreachable:.1%}"],
                ["median added latency (reconverged)", f"{result.median_added_latency_ms:.1f} ms"],
                ["p95 added latency", f"{result.p95_added_latency_ms:.1f} ms"],
                ["DNS-pinned traffic stranded", f"{result.dns_frac_stranded:.1%}"],
                ["outage user-seconds per unit traffic", f"{result.dns_outage_user_seconds:.1f}"],
            ],
        )
    )
    print(
        "\nAnycast rerouted everything instantly at a bounded latency cost;"
        "\nDNS-pinned clients were dark for a full TTL — the §4 trade-off."
    )

    print("\nPer-peer traffic at risk (top 8):")
    risk = peering_failure_study(internet, prefixes)
    rows = [
        [
            f"AS{r.neighbor_asn}",
            r.kind.value,
            r.n_interconnects,
            f"{r.traffic_share:.1%}",
            f"{r.capacity_gbps:.0f}",
        ]
        for r in risk.risks[:8]
    ]
    print(
        format_table(
            ["peer", "kind", "interconnects", "traffic share", "capacity Gbps"],
            rows,
        )
    )
    print(
        f"\ntraffic on single-interconnect adjacencies: "
        f"{risk.single_interconnect_share:.0%} — the 'outsized impact' exposure."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
