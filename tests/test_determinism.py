"""Results depend only on (config, seed), never on the process.

Every other test runs inside one interpreter, so a seed derived from
per-process state — Python's salted string ``hash()`` is the classic
case — cannot show up there.  These tests run the same study in fresh
subprocesses under different ``PYTHONHASHSEED`` values, and through a
campaign runner with one and with two worker processes, and compare
digests of the canonical-JSON summaries.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.core.study as study
from repro.runner import CampaignRunner, JobSpec

SRC = Path(__file__).resolve().parents[1] / "src"

#: Small studies: the :mod:`repro.core.study` class name and its
#: keyword arguments besides ``seed``.
STUDIES = {
    # Setting C seeds each vantage point's last-mile stream from its id.
    "setting_c": ("CloudTiersStudy", {"days": 2, "vps_per_day": 40}),
    # Setting B resolves every client's paths in one batch and draws
    # beacon noise in client order.
    "setting_b": (
        "AnycastCdnStudy",
        {"n_prefixes": 40, "days": 1.0, "requests_per_prefix": 20},
    ),
}

#: Runs one study and prints the SHA-256 digest of its summary as
#: canonical JSON (sorted keys, no whitespace).
_SUMMARY_DIGEST = """
import hashlib
import json

import repro.core.study as study

summary = study.{cls}(seed=0, **{kwargs!r}).run().summary
canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
print(hashlib.sha256(canonical.encode("utf-8")).hexdigest())
"""


def _digest(summary) -> str:
    """The digest ``_SUMMARY_DIGEST`` prints, computed in-process."""
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _digest_under_hash_seed(name: str, hash_seed: str) -> str:
    cls, kwargs = STUDIES[name]
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", _SUMMARY_DIGEST.format(cls=cls, kwargs=kwargs)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout.strip()


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_summary_independent_of_hash_seed(name):
    """The summary digest must not move with the interpreter's hash
    salt."""
    first = _digest_under_hash_seed(name, "1")
    second = _digest_under_hash_seed(name, "7")
    assert len(first) == 64
    assert first == second


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_summary_independent_of_worker_count(name):
    """Inline jobs and a two-worker pool give the same summaries."""
    cls, kwargs = STUDIES[name]
    specs = [
        JobSpec.from_study(getattr(study, cls)(seed=seed, **kwargs))
        for seed in (0, 1)
    ]
    inline = CampaignRunner(jobs=1).run(specs)
    pooled = CampaignRunner(jobs=2).run(specs)
    digests = [_digest(result.summary) for result in inline.results]
    assert [_digest(result.summary) for result in pooled.results] == digests
    assert pooled.n_ran == len(specs)
    assert digests[0] != digests[1]
