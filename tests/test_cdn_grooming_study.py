"""Tests for the iterative grooming study."""

import pytest

from repro.errors import AnalysisError
from repro.cdn import CdnDeployment, groom_iteratively
from repro.cdn import grooming_study
from repro.workloads import generate_client_prefixes


@pytest.fixture(scope="module")
def study(small_internet):
    prefixes = generate_client_prefixes(small_internet, 60, seed=13)
    return groom_iteratively(small_internet, prefixes, max_actions=12)


class TestGroomingStudy:
    def test_first_step_is_ungroomed(self, study):
        assert study.steps[0].action == "ungroomed"
        assert study.steps[0].suppressed_asn is None

    def test_actions_bounded(self, small_internet):
        prefixes = generate_client_prefixes(small_internet, 40, seed=13)
        result = groom_iteratively(small_internet, prefixes, max_actions=2)
        assert len(result.steps) <= 3

    def test_never_regresses_much(self, study):
        for earlier, later in zip(study.steps[:-1], study.steps[1:]):
            assert later.frac_within_10ms >= earlier.frac_within_10ms - 0.1

    def test_improvement_nonnegative(self, study):
        assert study.improvement_within_10ms >= -0.05

    def test_suppressions_unique(self, study):
        suppressed = [
            s.suppressed_asn for s in study.steps if s.suppressed_asn is not None
        ]
        assert len(suppressed) == len(set(suppressed))

    def test_only_peers_suppressed(self, study, small_internet):
        from repro.topology import Relationship

        for step in study.steps[1:]:
            link = small_internet.graph.link(
                small_internet.provider_asn, step.suppressed_asn
            )
            assert link.relationship is Relationship.PEER

    def test_validation(self, small_internet):
        with pytest.raises(AnalysisError):
            groom_iteratively(small_internet, [])
        prefixes = generate_client_prefixes(small_internet, 5, seed=13)
        with pytest.raises(AnalysisError):
            groom_iteratively(small_internet, prefixes, max_actions=0)

    def test_each_deployment_built_and_resolved_once(
        self, small_internet, monkeypatch
    ):
        """One deployment per trajectory step, each resolved exactly once
        and its batch reused for both the step summary and the next
        grooming decision."""
        calls = {"built": 0, "resolved": 0}

        class CountingDeployment(CdnDeployment):
            def __init__(self, *args, **kwargs):
                calls["built"] += 1
                super().__init__(*args, **kwargs)

            def resolve(self, *args, **kwargs):
                calls["resolved"] += 1
                return super().resolve(*args, **kwargs)

        monkeypatch.setattr(grooming_study, "CdnDeployment", CountingDeployment)
        prefixes = generate_client_prefixes(small_internet, 60, seed=13)
        # This small world's gaps are all under 10 ms; a low threshold
        # makes the loop act.
        result = groom_iteratively(
            small_internet, prefixes, max_actions=3, min_gap_ms=1.0
        )
        assert len(result.steps) > 1
        assert calls == {"built": len(result.steps), "resolved": len(result.steps)}
