"""Fold a traced run's spans into per-layer self time.

Each traced op runs under one root span (:data:`ROOT`).  A layer's self
time is the summed self time of the spans that belong to it: a span's
duration minus what its closed children cover.  Whatever no listed
layer claims, the root's own self time included, is ``residual``, so
the layer self times plus the residual add up to the root spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping

from repro.obs import build_forest, span

#: Root span the benchmark opens around every traced op.
ROOT = "bench.op"

#: Layers reported by name, each the span of the same name.
SPAN_LAYERS = (
    "cdn.beacon_campaign",
    "cdn.groom",
    "cdn.sites",
    "cloudtiers.campaign",
    "topology.build",
    "bgp.propagate_many",
    "bgp.dynamics.run",
    "edgefabric.plan",
    "edgefabric.synthesize",
    "runner.dispatch",
    "runner.job",
    "stream.synthesize",
    "stream.feed",
    "stream.snapshot",
    "stream.median_matrix",
)

#: Every layer a fold reports, the residual last.
LAYERS = SPAN_LAYERS + ("workloads", "analysis", "residual")

#: Relative slack of the fold invariant (float summation order only).
FOLD_RTOL = 1e-9


def root_span(kind: str):
    """The root span of one traced op of the given kind."""
    return span(ROOT, kind=kind)


class TraceError(ValueError):
    """A trace the fold refuses: unclosed, orphaned or unrooted spans."""


def layer_of(name: str) -> str:
    """The layer a span name belongs to."""
    if name in SPAN_LAYERS:
        return name
    if name.startswith("study.") and name.endswith(".workload"):
        return "workloads"
    if name.startswith("study.") and name.endswith(".analysis"):
        return "analysis"
    return "residual"


@dataclass
class Fold:
    """Per-layer totals over any number of traced ops.

    Attributes:
        root_s: Summed duration of the root spans.
        self_s: Self time per layer (every name in :data:`LAYERS`).
        calls: Closed spans per span name.
        counters: Summed ``counter`` values per name.
        gauges: Summed ``gauge`` values per name (one per op each).
        stream: Every folded event, in order, for writing out.
    """

    root_s: float = 0.0
    self_s: Dict[str, float] = field(
        default_factory=lambda: {layer: 0.0 for layer in LAYERS}
    )
    calls: Dict[str, int] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    stream: List[Mapping[str, Any]] = field(default_factory=list)

    @property
    def events(self) -> int:
        """Events folded."""
        return len(self.stream)

    def add(self, events: Iterable[Mapping[str, Any]]) -> None:
        """Fold one op's events; raises :class:`TraceError` on a bad trace."""
        events = list(events)
        forest = build_forest(events)
        if forest.n_unclosed or forest.n_orphan_ends or forest.n_replay_spans:
            raise TraceError(
                f"trace has {forest.n_unclosed} unclosed span(s), "
                f"{forest.n_orphan_ends} orphaned end(s) and "
                f"{forest.n_replay_spans} replayed span event(s)"
            )
        stray = [root.name for root in forest.roots if root.name != ROOT]
        if stray:
            raise TraceError(f"spans outside the {ROOT} root: {stray}")
        for root in forest.roots:
            self.root_s += root.dur_s
        for node in forest.walk():
            self.self_s[layer_of(node.name)] += node.self_s
            self.calls[node.name] = self.calls.get(node.name, 0) + 1
        for event in events:
            kind = event.get("kind")
            if kind == "counter":
                name = event["name"]
                self.counters[name] = self.counters.get(name, 0.0) + event["value"]
            elif kind == "gauge":
                name = event["name"]
                self.gauges[name] = self.gauges.get(name, 0.0) + event["value"]
        self.stream.extend(events)

    def check(self) -> None:
        """Assert the fold invariant: layer self times sum to the roots."""
        total = sum(self.self_s.values())
        if abs(total - self.root_s) > FOLD_RTOL * max(1.0, self.root_s):
            raise TraceError(
                f"layer self times sum to {total!r}, roots to {self.root_s!r}"
            )

    def share(self, layer: str) -> float:
        """A layer's self time as a fraction of the root spans."""
        return self.self_s[layer] / self.root_s if self.root_s > 0 else 0.0
