"""Setting B: anycast vs DNS redirection at an anycast CDN.

Reproduces the Microsoft/Bing measurement setting of Sections 2.3.2 and
3.2: the CDN announces one anycast prefix from every front-end and BGP
steers each client to a catchment; beacon measurements from clients to
the anycast address and to several nearby unicast front-end addresses
quantify how suboptimal the catchment is (Figure 3); an LDNS-granularity
prediction scheme then tries to beat anycast with DNS redirection
(Figure 4).
"""

from repro.cdn.deployment import CdnDeployment, ClientPaths
from repro.cdn.measurement import BeaconConfig, BeaconDataset, run_beacon_campaign
from repro.cdn.dns_redirection import (
    RedirectionPolicy,
    train_redirection_policy,
)
from repro.cdn.catchment import CatchmentEntry, CatchmentMap, catchment_map
from repro.cdn.hybrid import train_hybrid_policy
from repro.cdn.site_study import SitePoint, SiteStudyResult, site_count_study
from repro.cdn.grooming_study import (
    GroomingStep,
    GroomingStudyResult,
    GroomingTransferResult,
    groom_iteratively,
    grooming_transfer_study,
)
from repro.cdn.analysis import (
    Fig3Result,
    Fig4Result,
    anycast_vs_best_unicast,
    redirection_improvement,
)

__all__ = [
    "CdnDeployment",
    "ClientPaths",
    "BeaconConfig",
    "BeaconDataset",
    "run_beacon_campaign",
    "RedirectionPolicy",
    "train_redirection_policy",
    "CatchmentEntry",
    "CatchmentMap",
    "catchment_map",
    "train_hybrid_policy",
    "SitePoint",
    "SiteStudyResult",
    "site_count_study",
    "GroomingStep",
    "GroomingStudyResult",
    "GroomingTransferResult",
    "groom_iteratively",
    "grooming_transfer_study",
    "Fig3Result",
    "Fig4Result",
    "anycast_vs_best_unicast",
    "redirection_improvement",
]
