"""Results depend only on (config, seed), never on the process.

Every other test runs inside one interpreter, so a seed derived from
per-process state — Python's salted string ``hash()`` is the classic
case — cannot show up there.  These tests run the same study in fresh
subprocesses under different ``PYTHONHASHSEED`` values and compare
digests of the canonical-JSON summaries.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Small studies, each an expression constructing it in a script that
#: has imported :mod:`repro.core.study` as ``study``.
STUDIES = {
    # Setting C seeds each vantage point's last-mile stream from its id.
    "setting_c": "study.CloudTiersStudy(seed=0, days=2, vps_per_day=40)",
    # Setting B resolves every client's paths in one batch and draws
    # beacon noise in client order.
    "setting_b": (
        "study.AnycastCdnStudy(seed=0, n_prefixes=40, days=1.0, "
        "requests_per_prefix=20)"
    ),
}

#: Runs one study and prints the SHA-256 digest of its summary as
#: canonical JSON (sorted keys, no whitespace).
_SUMMARY_DIGEST = """
import hashlib
import json

import repro.core.study as study

summary = {study}.run().summary
canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
print(hashlib.sha256(canonical.encode("utf-8")).hexdigest())
"""


def _digest_under_hash_seed(name: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", _SUMMARY_DIGEST.format(study=STUDIES[name])],
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
