"""Tests of the benchmark itself.

Run from the repository root::

    python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import fold, ops, run  # noqa: E402
from repro.obs import make_event  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _metrics(section):
    return {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}


def test_benchmark_json_names_the_emitted_metrics():
    assert _metrics("end_to_end") == run.END_TO_END
    assert _metrics("per_layer") == run.per_layer_metrics()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(ops.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_inputs_depend_on_seed_and_length_only():
    workload = ops.WORKLOADS["report"]
    n = workload.n_passes(25, traced=False)
    assert n == workload.n_passes(25, traced=False) >= 1
    assert workload.n_passes(1, traced=True) == 1
    first = workload.passes(3, n)
    assert first == workload.passes(3, n)
    assert [op.kind for op in first[0]] == list(workload.kinds)
    other = {op.input_id for ops_ in workload.passes(4, n) for op in ops_}
    assert not other & {op.input_id for ops_ in first for op in ops_}


def test_output_checks_flag_bad_results():
    from repro.core.study import StudyResult

    good = StudyResult(name="x", summary={"a": 1.0})
    assert ops.outcome_setting_c(None, 0, good).problems == []
    nan = StudyResult(name="x", summary={"a": float("nan")})
    assert ops.outcome_setting_c(None, 0, nan).problems
    assert ops.outcome_setting_a(None, 0, good).problems  # no hypotheses
    assert ops.outcome_peering(None, 0, good).problems  # no retention 1.0
    assert ops.outcome_setting_b(None, 0, None).problems  # degraded job


def test_digest_is_canonical():
    first = ops.Outcome(summary={"a": 1.0, "b": [1, 2]})
    assert first.digest == ops.Outcome(summary={"b": [1, 2], "a": 1.0}).digest
    assert first.digest != ops.Outcome(summary={"a": 1.5, "b": [1, 2]}).digest


class _Stream:
    """Builds span events with explicit durations."""

    def __init__(self):
        self.events = []
        self.ids = 0
        self.ts = 0.0

    def start(self, name, parent=None):
        self.ids += 1
        event = make_event("span_start", name, "r", self.ts, span=self.ids)
        if parent is not None:
            event["parent"] = parent
        self.events.append(event)
        return self.ids

    def end(self, span_id, name, dur_s):
        self.events.append(
            make_event("span_end", name, "r", self.ts, span=span_id, dur_s=dur_s)
        )


def _forest():
    s = _Stream()
    root = s.start(fold.ROOT)
    build = s.start("topology.build", root)
    prop = s.start("bgp.propagate_many", build)
    s.end(prop, "bgp.propagate_many", 0.1)
    s.end(build, "topology.build", 0.3)
    analysis = s.start("study.cdn.analysis", root)
    other = s.start("study.cdn.measurement", analysis)
    s.end(other, "study.cdn.measurement", 0.05)
    s.end(analysis, "study.cdn.analysis", 0.2)
    s.events.append(make_event("counter", "bgp.dynamics.events", "r", 0.0, value=7))
    s.end(root, fold.ROOT, 1.0)
    return s.events


def test_fold_self_times_and_residual_add_up_to_the_root():
    result = fold.Fold()
    result.add(_forest())
    result.add(_forest())
    result.check()
    assert result.root_s == pytest.approx(2.0)
    assert result.self_s["topology.build"] == pytest.approx(0.4)
    assert result.self_s["bgp.propagate_many"] == pytest.approx(0.2)
    assert result.self_s["analysis"] == pytest.approx(0.3)
    # Root self (0.5) and the unlisted measurement span (0.05), twice.
    assert result.self_s["residual"] == pytest.approx(1.1)
    assert sum(result.share(layer) for layer in fold.LAYERS) == pytest.approx(1.0)
    assert result.calls["topology.build"] == 2
    assert result.counters["bgp.dynamics.events"] == 14


def test_fold_rejects_unclosed_orphaned_and_unrooted_spans():
    events = _forest()
    with pytest.raises(fold.TraceError, match="unclosed"):
        fold.Fold().add(events[:-1])
    with pytest.raises(fold.TraceError, match="orphaned"):
        fold.Fold().add(events + [dict(events[-1], span=99)])
    s = _Stream()
    s.end(s.start("topology.build"), "topology.build", 0.1)
    with pytest.raises(fold.TraceError, match="outside"):
        fold.Fold().add(s.events)


def test_fold_check_catches_lost_time():
    result = fold.Fold()
    result.add(_forest())
    result.root_s += 0.5
    with pytest.raises(fold.TraceError, match="sum to"):
        result.check()


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", list(ops.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_one_pass_smoke_run(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    expected = _metrics("end_to_end" if trace == "0" else "per_layer")
    assert set(result["metrics"]) == set(expected)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == expected[name][0]
        assert math.isfinite(entry["value"]), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "e2ebench", tmp_path / "e2ebench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run("--workload", "report", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
