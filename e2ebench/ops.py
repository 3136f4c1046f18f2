"""The benchmark's workloads: fixed inputs, timed ops, output checks.

A run's work is a fixed, ordered list of operations that depends only on
the benchmark seed and the run length.  Never size a run by how many
operations fit in the time: two commits would then take medians over
different inputs, and per-input cost differs by up to 40%.

Every op calls the same public entry points as the ``repro-bgp``
command it stands for, with that command's defaults.  The spans opened
here (``cdn.groom``, ``cdn.sites`` and the ``stream.*`` ones) are the
benchmark's own, around calls into layers that have no span of their
own; their names are static so profile aggregation keys stay fixed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.availability import scenario_recovery
from repro.bgp import SCENARIOS, run_scenario
from repro.bgp.dynamics import DynamicsConfig
from repro.cdn import groom_iteratively, site_count_study
from repro.core import (
    AnycastCdnStudy,
    CloudTiersStudy,
    PeeringReductionStudy,
    PopRoutingStudy,
    cdn_topology,
)
from repro.core.configs import edgefabric_topology
from repro.core.hypotheses import Verdict
from repro.edgefabric import bgp_vs_best_alternate
from repro.edgefabric.dataset import EgressDataset, window_times
from repro.edgefabric.sampler import (
    MeasurementConfig,
    _ci_half_grid,
    plan_measurement,
    synthesize_dataset,
)
from repro.obs.trace import span
from repro.runner import CampaignRunner, JobSpec
from repro.stream import IngestConfig, SessionIngestor, stream_sessions
from repro.topology import build_internet
from repro.workloads import (
    diurnal_volume_matrix,
    generate_client_prefixes,
    sessions_matrix,
    traffic_matrix,
)

#: ``repro-bgp`` defaults for --scale and --days.
CLI_SCALE = 150
CLI_DAYS = 3.0
#: ``repro-bgp grooming`` action budget.
GROOM_MAX_ACTIONS = 25
#: ``repro-bgp scenario`` default --mrai-s.
SCENARIO_MRAI_S = 5.0
#: Topologies per scenario op.  One topology's three scenarios take
#: about 0.25 s, too short to time steadily on a shared host.
SCENARIO_TOPOLOGIES = 3
#: Client prefixes for grooming and the site sweep: the what-if
#: workload stresses topology rebuilds and re-propagation, not
#: per-client measurement, so it runs on few clients.
WHATIF_PREFIXES = 50
#: Ingest input size: client prefixes and simulated days.
INGEST_PREFIXES = 100
INGEST_DAYS = 1.0
#: ``repro-bgp ingest --compare-batch`` tolerance on Figure 1 statistics.
LANE_TOLERANCE = 0.05
#: Input seeds of one run are ``seed * SEED_STRIDE + pass``.
SEED_STRIDE = 1000
#: Pass index whose input seed feeds the untimed warm-up op.
WARMUP_PASS = SEED_STRIDE - 1


@dataclass(frozen=True)
class Op:
    """One timed operation: an op kind applied to one input seed."""

    kind: str
    seed: int

    @property
    def input_id(self) -> str:
        """Stable identity of the op's input, the key for output digests."""
        return f"{self.kind}:{self.seed}"


@dataclass
class Outcome:
    """What the benchmark keeps of an op's output once the timer stops.

    Attributes:
        summary: Plain-JSON summary; its canonical form is digested.
        problems: Failed output checks, empty when the output is correct.
        values: Per-op numbers the tables fold: sessions, grooming
            steps, prefixes kept, phase seconds.
    """

    summary: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    values: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """SHA-256 of the summary as canonical JSON."""
        text = json.dumps(self.summary, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _non_finite(label: str, values: Dict[str, Any]) -> List[str]:
    bad = sorted(
        key
        for key, value in values.items()
        if isinstance(value, float) and not math.isfinite(value)
    )
    return [f"{label}: non-finite {', '.join(bad)}"] if bad else []


# -- report: the three settings through CampaignRunner ---------------------


def _campaign(study):
    """Run one study the way ``repro-bgp report`` does: inline, jobs=1."""
    report = CampaignRunner(jobs=1).run([JobSpec.from_study(study)])
    return report.results[0]


def run_setting_a(inputs, seed: int):
    return _campaign(PopRoutingStudy(seed=seed, n_prefixes=CLI_SCALE, days=CLI_DAYS))


def run_setting_b(inputs, seed: int):
    return _campaign(AnycastCdnStudy(seed=seed, n_prefixes=CLI_SCALE, days=CLI_DAYS))


def run_setting_c(inputs, seed: int):
    return _campaign(
        CloudTiersStudy(seed=seed, days=max(2, int(CLI_DAYS)), vps_per_day=CLI_SCALE)
    )


def run_peering(inputs, seed: int):
    return _campaign(PeeringReductionStudy(seed=seed, n_prefixes=CLI_SCALE))


def _study_outcome(result, min_hypotheses: int) -> Outcome:
    if result is None:
        return Outcome(summary={}, problems=["campaign degraded the job"])
    summary = {
        "name": result.name,
        "summary": dict(result.summary),
        "hypotheses": [
            [v.hypothesis, v.verdict.value, dict(v.evidence)]
            for v in result.hypotheses
        ],
    }
    problems = _non_finite(result.name, result.summary)
    if len(result.hypotheses) < min_hypotheses:
        problems.append(
            f"{result.name}: {len(result.hypotheses)} hypotheses evaluated, "
            f"expected {min_hypotheses}"
        )
    for verdict in result.hypotheses:
        if not isinstance(verdict.verdict, Verdict):
            problems.append(f"{verdict.hypothesis}: no verdict")
        problems += _non_finite(verdict.hypothesis, verdict.evidence)
    return Outcome(summary=summary, problems=problems)


def outcome_setting_a(inputs, seed, result) -> Outcome:
    return _study_outcome(result, min_hypotheses=2)


def outcome_setting_b(inputs, seed, result) -> Outcome:
    outcome = _study_outcome(result, min_hypotheses=1)
    if result is not None:
        outcome.values = {
            "prefixes_kept": result.summary["n_prefixes"],
            "prefixes_attempted": float(CLI_SCALE),
        }
    return outcome


def outcome_setting_c(inputs, seed, result) -> Outcome:
    # The Figure 5 India case study (and with it the single-WAN
    # hypothesis) is skipped by the study when the sample is too thin.
    return _study_outcome(result, min_hypotheses=0)


def outcome_peering(inputs, seed, result) -> Outcome:
    outcome = _study_outcome(result, min_hypotheses=0)
    if result is not None:
        full = result.summary.get("retention_100_median_rtt_ms")
        if full is None or not math.isfinite(full):
            outcome.problems.append("peering: retention 1.0 point missing")
    return outcome


# -- whatif: grooming, site count, dynamics scenarios ----------------------


def run_grooming(inputs, seed: int):
    internet = build_internet(cdn_topology(seed))
    prefixes = generate_client_prefixes(internet, WHATIF_PREFIXES, seed=seed + 1)
    with span("cdn.groom"):
        return groom_iteratively(internet, prefixes, max_actions=GROOM_MAX_ACTIONS)


def outcome_grooming(inputs, seed, result) -> Outcome:
    steps = [dataclasses.asdict(step) for step in result.steps]
    problems = [] if steps else ["grooming: empty trajectory"]
    for index, step in enumerate(steps):
        problems += _non_finite(f"grooming step {index}", step)
    return Outcome(
        summary={"steps": steps},
        problems=problems,
        values={"groom_steps": float(len(steps))},
    )


def run_sites(inputs, seed: int):
    with span("cdn.sites"):
        return site_count_study(
            cdn_topology(seed), n_prefixes=WHATIF_PREFIXES, seed=seed + 1
        )


def outcome_sites(inputs, seed, result) -> Outcome:
    points = [dataclasses.asdict(point) for point in result.points]
    problems = [] if points else ["sites: no sweep point"]
    for point in points:
        problems += _non_finite(f"sites n={point['n_sites']}", point)
    return Outcome(summary={"points": points}, problems=problems)


def run_scenarios(inputs, seed: int):
    """Every ``repro-bgp scenario`` name plus recovery, on a few topologies."""
    runs = []
    for topology_seed in range(
        seed * SCENARIO_TOPOLOGIES, (seed + 1) * SCENARIO_TOPOLOGIES
    ):
        internet = build_internet(cdn_topology(topology_seed), fast=True)
        config = DynamicsConfig(seed=topology_seed, mrai_s=SCENARIO_MRAI_S)
        for name in sorted(SCENARIOS):
            result = run_scenario(
                name, seed=topology_seed, config=config, internet=internet
            )
            runs.append((result, scenario_recovery(result, internet.graph)))
    return runs


def outcome_scenarios(inputs, seed, runs) -> Outcome:
    summary = {}
    problems = []
    for result, recovery in runs:
        summary[f"{result.name}:{result.seed}"] = {
            "result": json.loads(result.to_json()),
            "recovery": dataclasses.asdict(recovery),
        }
        # The exit-1 conditions of ``repro-bgp scenario``.
        if (
            not result.converged
            or not result.timeline
            or result.recovered is False
            or not recovery.fully_recovered
        ):
            problems.append(
                f"scenario {result.name} seed {result.seed}: "
                "did not converge and recover"
            )
    return Outcome(summary=summary, problems=problems)


# -- ingest: the streaming lane ---------------------------------------------


@dataclass
class IngestRun:
    config: MeasurementConfig
    ingestor: SessionIngestor
    fig1: Any
    stream_s: float
    query_s: float


def build_ingest_plan(seed: int):
    """The routing-dependent half of an ingest campaign, built at set-up."""
    internet = build_internet(edgefabric_topology(seed))
    prefixes = generate_client_prefixes(internet, INGEST_PREFIXES, seed=seed + 1)
    return plan_measurement(internet, prefixes, MeasurementConfig(days=INGEST_DAYS))


def run_ingest(plan, seed: int) -> IngestRun:
    """``repro-bgp ingest``'s stream and report phases on a fixed plan."""
    cfg = MeasurementConfig(days=INGEST_DAYS, seed=seed)
    ingestor = SessionIngestor(
        IngestConfig(
            window_minutes=cfg.window_minutes, sketch="centroid", max_centroids=64
        )
    )
    start = time.perf_counter()
    batches = stream_sessions(plan, cfg, chunk_windows=16)
    while True:
        with span("stream.synthesize"):
            batch = next(batches, None)
        if batch is None:
            break
        with span("stream.feed"):
            ingestor.feed(batch)
    stream_s = time.perf_counter() - start
    with span("stream.snapshot"):
        snapshot = ingestor.snapshot()
    times = window_times(cfg.days, cfg.window_minutes)
    cycle = diurnal_volume_matrix(
        times, np.array([p.city.location.lon for p in plan.prefixes])
    )
    with span("stream.median_matrix"):
        medians = snapshot.median_matrix(plan.pairs, times, cfg.max_routes)
    sessions_grid = sessions_matrix(
        plan.prefixes, times, sessions_at_peak=cfg.sessions_at_peak, cycle=cycle
    )
    ci_half = np.full_like(medians, np.nan)
    slots = plan.slots()
    _ci_half_grid(slots.pair_of, slots.route_of, sessions_grid, cfg, ci_half)
    dataset = EgressDataset(
        pairs=list(plan.pairs),
        times_h=times,
        medians=medians,
        ci_half=ci_half,
        volumes=traffic_matrix(plan.prefixes, times, cycle=cycle),
        max_routes=cfg.max_routes,
    )
    fig1 = bgp_vs_best_alternate(dataset)
    query_s = time.perf_counter() - start - stream_s
    return IngestRun(cfg, ingestor, fig1, stream_s, query_s)


def _fig1_stats(fig1) -> Dict[str, float]:
    return {
        "frac_alternate_better_5ms": fig1.frac_alternate_better_5ms,
        "frac_bgp_within_1ms": fig1.frac_bgp_within_1ms,
        "diff_p50_ms": fig1.cdf.median,
        "diff_p98_ms": fig1.cdf.quantile(0.98),
    }


def outcome_ingest(plan, seed: int, run: IngestRun) -> Outcome:
    ingestor = run.ingestor
    streamed = _fig1_stats(run.fig1)
    summary = {
        "sessions": ingestor.sessions,
        "batches": ingestor.batches,
        "cells": ingestor.n_cells,
        "peak_open_cells": ingestor.peak_open_cells,
        "late_dropped": ingestor.late_dropped,
        "fig1": streamed,
    }
    problems = _non_finite("ingest fig1", streamed)
    if ingestor.sessions == 0:
        problems.append("ingest: no session ingested")
    # The --compare-batch check, run after the timer stopped.
    batched = _fig1_stats(
        bgp_vs_best_alternate(synthesize_dataset(plan, run.config))
    )
    for key in ("frac_alternate_better_5ms", "frac_bgp_within_1ms"):
        delta = abs(streamed[key] - batched[key])
        if not delta <= LANE_TOLERANCE:
            problems.append(
                f"ingest: {key} differs from the batch lane by {delta:.3f}"
            )
    return Outcome(
        summary=summary,
        problems=problems,
        values={
            "sessions": float(ingestor.sessions),
            "late_dropped": float(ingestor.late_dropped),
            "peak_open_cells": float(ingestor.peak_open_cells),
            "stream_s": run.stream_s,
            "query_s": run.query_s,
        },
    )


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """An op kind: the timed call and the untimed outcome it is judged by."""

    run: Callable[[Any, int], Any]
    outcome: Callable[[Any, int, Any], Outcome]


KINDS: Dict[str, Kind] = {
    "setting_a": Kind(run_setting_a, outcome_setting_a),
    "setting_b": Kind(run_setting_b, outcome_setting_b),
    "setting_c": Kind(run_setting_c, outcome_setting_c),
    "peering": Kind(run_peering, outcome_peering),
    "grooming": Kind(run_grooming, outcome_grooming),
    "sites": Kind(run_sites, outcome_sites),
    "scenario": Kind(run_scenarios, outcome_scenarios),
    "ingest": Kind(run_ingest, outcome_ingest),
}


def _no_inputs(seed: int) -> None:
    return None


@dataclass(frozen=True)
class Workload:
    """A named, fixed mix of op kinds.

    Attributes:
        kinds: Op kinds of one pass, run in this order so host drift
            hits every kind alike.
        pass_s: Nominal seconds of one pass on a 2-vCPU host.  It turns
            the run length into a pass count before anything runs, so
            the count never depends on how fast this run happens to be.
        build_inputs: The fixed inputs every op of a run shares.
    """

    name: str
    kinds: Tuple[str, ...]
    pass_s: float
    build_inputs: Callable[[int], Any] = _no_inputs

    def n_passes(self, seconds: float, traced: bool) -> int:
        """Passes in a run; a traced run times each pass twice."""
        budget = seconds / 2.0 if traced else seconds
        return max(1, round(budget / self.pass_s))

    def passes(self, seed: int, n_passes: int) -> List[List[Op]]:
        return [
            [Op(kind, seed * SEED_STRIDE + index) for kind in self.kinds]
            for index in range(n_passes)
        ]

    def warmup(self, seed: int) -> Op:
        return Op(self.kinds[0], seed * SEED_STRIDE + WARMUP_PASS)


WORKLOADS: Dict[str, Workload] = {
    "report": Workload("report", ("setting_a", "setting_b", "setting_c"), 4.3),
    "whatif_ingest": Workload(
        "whatif_ingest",
        ("peering", "grooming", "sites", "scenario", "ingest"),
        6.2,
        build_ingest_plan,
    ),
}


def run_op(op: Op, inputs) -> Tuple[float, Any]:
    """Time one op; returns (seconds, result)."""
    kind = KINDS[op.kind]
    start = time.perf_counter()
    result = kind.run(inputs, op.seed)
    return time.perf_counter() - start, result


def judge(op: Op, inputs, result) -> Outcome:
    """Summarise and check an op's result (call after the timer stops)."""
    return KINDS[op.kind].outcome(inputs, op.seed, result)

