"""Catchment analysis: the operator's view of an anycast deployment.

Answers the §3.2.2 planning questions at deployment level: which
front-ends attract which traffic, from how far, and how much of each
site's inflow would be better served elsewhere — the map an operator
reads before grooming or adding a site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis import format_table
from repro.geo import great_circle_km
from repro.workloads import ClientPrefix
from repro.cdn.deployment import CdnDeployment, traffic_quantile


@dataclass(frozen=True)
class CatchmentEntry:
    """One front-end's catchment summary.

    Attributes:
        pop_code: The front-end.
        traffic_share: Fraction of total traffic it attracts.
        n_prefixes: Client prefixes in its catchment.
        median_client_km: Median client distance, traffic-weighted.
        p90_client_km: Tail client distance.
        frac_misdirected: Catchment traffic whose geographically nearest
            front-end is a *different* site.
    """

    pop_code: str
    traffic_share: float
    n_prefixes: int
    median_client_km: float
    p90_client_km: float
    frac_misdirected: float


@dataclass(frozen=True)
class CatchmentMap:
    """Full catchment breakdown of a deployment.

    Attributes:
        entries: Per front-end, descending traffic share; sites that
            attract nothing are omitted.
        frac_unreachable: Traffic with no route to the anycast prefix.
        global_median_km: Traffic-weighted median client distance.
        global_frac_misdirected: Traffic not landing at its nearest site.
    """

    entries: Tuple[CatchmentEntry, ...]
    frac_unreachable: float
    global_median_km: float
    global_frac_misdirected: float

    def entry(self, pop_code: str) -> CatchmentEntry:
        for candidate in self.entries:
            if candidate.pop_code == pop_code:
                return candidate
        raise AnalysisError(f"no catchment entry for {pop_code!r}")

    def render(self, top: int = 12) -> str:
        """Table of the busiest catchments."""
        rows = []
        for entry in self.entries[:top]:
            rows.append(
                [
                    entry.pop_code,
                    f"{entry.traffic_share:.1%}",
                    entry.n_prefixes,
                    entry.median_client_km,
                    entry.p90_client_km,
                    f"{entry.frac_misdirected:.0%}",
                ]
            )
        return format_table(
            [
                "front-end",
                "traffic",
                "prefixes",
                "median km",
                "p90 km",
                "misdirected",
            ],
            rows,
            float_fmt="{:.0f}",
        )


def catchment_map(
    deployment: CdnDeployment,
    prefixes: Sequence[ClientPrefix],
) -> CatchmentMap:
    """Compute the catchment breakdown for a client population.

    Args:
        deployment: The anycast deployment under study.
        prefixes: The client population.
    """
    if not prefixes:
        raise AnalysisError("no client prefixes")
    paths = deployment.resolve(prefixes)
    wan = deployment.internet.wan
    unreachable = 0.0
    total = 0.0
    per_pop: Dict[str, List[Tuple[float, float, bool]]] = {}
    all_km: List[float] = []
    all_weights: List[float] = []
    misdirected_weight = 0.0
    for i, prefix in enumerate(prefixes):
        total += prefix.weight
        code = paths.catchment[i]
        if code is None:
            unreachable += prefix.weight
            continue
        km = great_circle_km(prefix.city.location, wan.pop(code).city.location)
        misdirected = paths.front_ends[i][0] != code
        per_pop.setdefault(code, []).append((prefix.weight, km, misdirected))
        all_km.append(km)
        all_weights.append(prefix.weight)
        if misdirected:
            misdirected_weight += prefix.weight
    if not all_km:
        raise AnalysisError("no prefix can reach the anycast prefix")

    entries: List[CatchmentEntry] = []
    for pop_code, rows in per_pop.items():
        weights = np.array([r[0] for r in rows])
        kms = np.array([r[1] for r in rows])
        missed = np.array([r[2] for r in rows])
        entries.append(
            CatchmentEntry(
                pop_code=pop_code,
                traffic_share=float(weights.sum() / total),
                n_prefixes=len(rows),
                median_client_km=traffic_quantile(kms, weights, 0.5),
                p90_client_km=traffic_quantile(kms, weights, 0.9),
                frac_misdirected=float(
                    weights[missed].sum() / weights.sum()
                ),
            )
        )
    entries.sort(key=lambda e: (-e.traffic_share, e.pop_code))
    weights_arr = np.array(all_weights)
    return CatchmentMap(
        entries=tuple(entries),
        frac_unreachable=unreachable / total,
        global_median_km=traffic_quantile(np.array(all_km), weights_arr, 0.5),
        global_frac_misdirected=misdirected_weight / weights_arr.sum(),
    )
