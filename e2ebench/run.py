"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 e2ebench/run.py --workload report --seed 1 --seconds 45 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs every pass untraced and traced, folds the
traced spans per layer and reports the per-layer metrics.  A table of
every metric with its unit and sample count comes first; the last line
of standard output is one JSON object.  Any failed op or output check
makes the command exit 1.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
DIGEST_LOG = OUT_DIR / "digests.jsonl"

#: Fresh interpreters started per run to measure set-up.
SETUP_STARTS = 5
#: Wall-clock limit of one set-up start.
SETUP_TIMEOUT_S = 60.0
#: Iterations of the host calibration loop (about 0.1 s).
CALIB_ITERATIONS = 1_000_000

#: End-to-end metrics: name -> (unit, better).  Each is reported on
#: every workload.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_s": ("s", "lower"),
}


def per_layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Per-layer metrics: name -> (unit, better), each on every workload."""
    from e2ebench.fold import LAYERS
    from e2ebench.ops import KINDS

    metrics = {f"{layer}.self_share": ("frac", "lower") for layer in LAYERS}
    metrics.update(
        {
            "topology.build.calls": ("count", "lower"),
            "bgp.propagate_many.calls": ("count", "lower"),
            "bgp.dynamics.events": ("count", "lower"),
            "netmodel.congestion.events": ("count", "lower"),
            "netmodel.rtt.sessions": ("count", "lower"),
            "cloudtiers.records": ("count", "higher"),
            "cdn.groom.steps": ("count", "lower"),
            "cdn.reachable_frac": ("frac", "higher"),
            "stream.feed.calls": ("count", "lower"),
            "stream.sessions": ("count", "higher"),
            "stream.peak_open_cells": ("count", "lower"),
            "stream.late_drop_frac": ("frac", "lower"),
            "trace.pass_s": ("s", "lower"),
            "obs.events": ("count", "lower"),
            "obs.overhead_frac": ("frac", "lower"),
            "host.calib_s": ("s", "lower"),
        }
    )
    metrics.update(
        {f"{kind}.digest.distinct": ("count", "lower") for kind in KINDS}
    )
    return metrics


def host_calib() -> float:
    """Seconds of a fixed pure-Python loop: a host-drift diagnostic.

    Reported next to the other numbers, never used to scale them.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIB_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def setup_start(workload: str, seed: int) -> float:
    """Launch-to-exit seconds of a fresh interpreter building the inputs."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    subprocess.run(probe, check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Ops, checks and samples of one benchmark invocation."""

    def __init__(self, ops, workload, seed: int, inputs) -> None:
        self.ops = ops
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.latency: Dict[str, List[float]] = {}
        self.values: Dict[str, List[float]] = {}
        self.digests: List[dict] = []

    def execute(self, op, traced: bool = False, fold=None):
        """Run, time and check one op; returns (seconds, outcome) or ``None``.

        The op and its output check count as two attempts.  With
        *traced*, the op runs under a fresh tracer inside the root span
        and its events are folded into *fold*.  The garbage collector
        runs before the timer starts.
        """
        from repro import obs

        from e2ebench.fold import root_span

        gc.collect()
        self.attempted += 1
        events = []
        try:
            if traced:
                obs.enable()
                try:
                    with root_span(op.kind):
                        seconds, result = self.ops.run_op(op, self.inputs)
                finally:
                    events = obs.disable()
            else:
                seconds, result = self.ops.run_op(op, self.inputs)
        except Exception:  # a failed op is counted and reported, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            if traced:
                fold.add(events)
        self.attempted += 1
        outcome = self.ops.judge(op, self.inputs, result)
        if outcome.problems:
            self.failed += 1
            for problem in outcome.problems:
                print(f"check failed [{op.input_id}]: {problem}", file=sys.stderr)
        self.digests.append(
            {
                "workload": self.workload.name,
                "seed": self.seed,
                "input": op.input_id,
                "traced": traced,
                "digest": outcome.digest,
            }
        )
        return seconds, outcome

    def timed_pass(self, ops_, traced: bool = False, fold=None):
        """Run one pass; returns its seconds, or ``None`` if an op failed.

        Per-kind latencies and values are kept from untraced ops only.
        """
        total = 0.0
        for op in ops_:
            done = self.execute(op, traced=traced, fold=fold)
            if done is None:
                total = math.nan
                continue
            seconds, outcome = done
            total += seconds
            if not traced:
                self.latency.setdefault(op.kind, []).append(seconds)
                for name, value in outcome.values.items():
                    self.values.setdefault(name, []).append(value)
        return None if math.isnan(total) else total

    def log_digests(self) -> Dict[str, int]:
        """Append this run's digests; distinct digests per kind's inputs.

        A kind reads the largest number of distinct digests any of this
        run's inputs of that kind has across every run logged in this
        checkout, or 0 when the run has no op of that kind.
        """
        OUT_DIR.mkdir(exist_ok=True)
        with DIGEST_LOG.open("a", encoding="utf-8") as handle:
            for entry in self.digests:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
        seen: Dict[str, set] = {}
        with DIGEST_LOG.open(encoding="utf-8") as handle:
            for line in handle:
                entry = json.loads(line)
                seen.setdefault(entry["input"], set()).add(entry["digest"])
        distinct = {kind: 0 for kind in self.ops.KINDS}
        for entry in self.digests:
            kind = entry["input"].split(":", 1)[0]
            distinct[kind] = max(distinct[kind], len(seen[entry["input"]]))
        return distinct


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else math.nan


def _row(name: str, values: List[float], unit: str) -> str:
    if not values:
        return f"  {name:<32} {'-':>12} {unit:<10} n=0"
    return (
        f"  {name:<32} {_median(values):>12.6g} {unit:<10} n={len(values):<3}"
        f" min={min(values):.6g} max={max(values):.6g}"
    )


def _print_kinds(run: Run) -> None:
    print("per-kind op latency (untraced, median):")
    for kind in run.workload.kinds:
        print(_row(f"{kind}_s", run.latency.get(kind, []), "s"))
    values = run.values
    if "sessions" in values:
        rates = [n / s for n, s in zip(values["sessions"], values["stream_s"])]
        print(_row("sessions_per_s", rates, "sessions/s"))
        print(_row("stream_s", values["stream_s"], "s"))
        print(_row("query_s", values["query_s"], "s"))


def run_untraced(run: Run, seconds: float) -> Dict[str, float]:
    workload = run.workload
    calib = [host_calib()]
    passes = workload.passes(run.seed, workload.n_passes(seconds, traced=False))
    # Set-up starts are spread over the run, so host drift hits them as
    # it hits the passes.
    starts_before = [0] * len(passes)
    for k in range(SETUP_STARTS):
        starts_before[k * len(passes) // SETUP_STARTS] += 1
    setup: List[float] = []
    run.execute(workload.warmup(run.seed))
    pass_s = []
    for index, ops_ in enumerate(passes):
        if index == len(passes) // 2:
            calib.append(host_calib())
        for _ in range(starts_before[index]):
            setup.append(setup_start(workload.name, run.seed))
        total = run.timed_pass(ops_)
        if total is not None:
            pass_s.append(total)
    calib.append(host_calib())
    rss = peak_rss_mb()
    distinct = run.log_digests()

    print(f"workload {workload.name}: seed {run.seed}, {len(passes)} passes of "
          f"{', '.join(workload.kinds)}")
    print("end-to-end:")
    print(_row("setup_s", setup, "s"))
    print(_row("pass_s", pass_s, "s"))
    print(_row("peak_rss_mb", [rss], "MB"))
    _print_kinds(run)
    print(_row("host.calib_s", calib, "s"))
    print("digest.distinct: " + ", ".join(
        f"{kind}={distinct[kind]}" for kind in workload.kinds))
    return {
        "setup_s": _median(setup),
        "peak_rss_mb": rss,
        "pass_s": _median(pass_s),
    }


def run_traced(run: Run, seconds: float) -> Dict[str, float]:
    from repro import obs

    from e2ebench.fold import LAYERS, Fold

    workload = run.workload
    calib = [host_calib()]
    passes = workload.passes(run.seed, workload.n_passes(seconds, traced=True))
    run.execute(workload.warmup(run.seed))
    fold = Fold()
    untraced_s: List[float] = []
    traced_s: List[float] = []
    for index, ops_ in enumerate(passes):
        if index == len(passes) // 2:
            calib.append(host_calib())
        # Alternate which half goes first so host drift hits both alike.
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            total = run.timed_pass(ops_, traced=traced, fold=fold)
            if total is not None:
                (traced_s if traced else untraced_s).append(total)
    calib.append(host_calib())
    fold.check()
    OUT_DIR.mkdir(exist_ok=True)
    obs.write_jsonl(OUT_DIR / f"trace-{workload.name}-{run.seed}.jsonl", fold.stream)
    distinct = run.log_digests()

    values = run.values
    sessions = sum(values.get("sessions", []), 0.0)
    attempted = sum(values.get("prefixes_attempted", []), 0.0)
    metrics = {f"{layer}.self_share": fold.share(layer) for layer in LAYERS}
    metrics.update(
        {
            "topology.build.calls": float(fold.calls.get("topology.build", 0)),
            "bgp.propagate_many.calls": float(
                fold.calls.get("bgp.propagate_many", 0)
            ),
            "bgp.dynamics.events": fold.counters.get("bgp.dynamics.events", 0.0),
            "netmodel.congestion.events": fold.counters.get(
                "netmodel.congestion.events", 0.0
            ),
            "netmodel.rtt.sessions": fold.counters.get("netmodel.rtt.sessions", 0.0),
            "cloudtiers.records": fold.gauges.get("cloudtiers.n_records", 0.0),
            "cdn.groom.steps": sum(values.get("groom_steps", []), 0.0),
            # Nothing attempted means nothing was dropped.
            "cdn.reachable_frac": (
                sum(values["prefixes_kept"]) / attempted if attempted else 1.0
            ),
            "stream.feed.calls": float(fold.calls.get("stream.feed", 0)),
            "stream.sessions": sessions,
            "stream.peak_open_cells": max(values.get("peak_open_cells", [0.0])),
            "stream.late_drop_frac": (
                sum(values["late_dropped"]) / sessions if sessions else 0.0
            ),
            "trace.pass_s": _median(traced_s),
            "obs.events": float(fold.events),
            "obs.overhead_frac": _median(traced_s) / _median(untraced_s) - 1.0,
            "host.calib_s": _median(calib),
        }
    )
    metrics.update(
        {f"{kind}.digest.distinct": float(n) for kind, n in distinct.items()}
    )

    print(f"workload {workload.name} (traced): seed {run.seed}, {len(passes)} "
          f"passes of {', '.join(workload.kinds)}, each untraced and traced")
    print(_row("pass_s (untraced)", untraced_s, "s"))
    print(_row("pass_s (traced)", traced_s, "s"))
    _print_kinds(run)
    print(f"per-layer self time over {fold.root_s:.3f} s of root spans:")
    for layer in LAYERS:
        print(f"  {layer:<24} {fold.self_s[layer]:>10.4f} s  "
              f"{100.0 * fold.share(layer):6.2f} %")
    print("per-layer metrics:")
    for name, value in metrics.items():
        if not name.endswith(".self_share"):
            print(f"  {name:<32} {value:>14.6g}")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("report", "whatif_ingest")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro

        from e2ebench import ops
    except ImportError as exc:
        print(f"e2ebench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"e2ebench: imported {repro.__file__}, not the program under "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = ops.WORKLOADS[args.workload]
    run = Run(ops, workload, args.seed, workload.build_inputs(args.seed))
    if args.trace:
        metrics = run_traced(run, args.seconds)
        specs = per_layer_metrics()
    else:
        metrics = run_untraced(run, args.seconds)
        specs = END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _better) in specs.items()
        },
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
