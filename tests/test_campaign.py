"""The fuzz campaigns: pinned derivations and the meta-tests they share.

A failing case number is only useful if it means the same experiment
on every commit.  ``GOLDEN`` pins, for a handful of cases per campaign,
everything a case materializes: config, workload, technique, threads,
seed, plan and a digest of the dataset arrays (fault and integrity), or
family, victim cell, checkpoint interval and retries (chaos).  The spec
lists are pinned by ``spec_key``.  Any drift means the derivation
changed.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.harness.campaign import (
    CAMPAIGNS,
    fuzz_specs,
    integrity_specs,
    materialize,
    run_armed,
)
from repro.harness.orchestrator import spec_key


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canon(obj):
    """A JSON-able rendering of a dataset: arrays by content digest."""
    if isinstance(obj, np.ndarray):
        return [str(obj.dtype), list(obj.shape),
                hashlib.sha256(obj.tobytes()).hexdigest()]
    if isinstance(obj, dict):
        return [[_canon(k), _canon(v)] for k, v in sorted(obj.items())]
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, (int, float, str, bool, type(None))):
        return obj
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return [type(obj).__name__, _canon(vars(obj))]


def _fingerprint(campaign: str, case: int):
    c = materialize(campaign, case)
    if campaign == "chaos":
        return (c.family, c.spec.label(), c.checkpoint_every, c.retries)
    return (c.workload, c.technique, c.threads, c.seed, c.config.name,
            _sha(repr(c.config)), c.plan.seed, _sha(repr(c.plan)),
            _sha(json.dumps(_canon(c.dataset))))


GOLDEN = {
    "fault/0": ("sdhp", "maple-decouple", 2, 43, "faultfuzz-776578904",
                "40da5bda7885a0eb", 341913731, "f3ec936c0aabd00f",
                "e8072c90d064fc40"),
    "fault/1": ("spmv", "maple-decouple", 2, 85, "faultfuzz-289665609",
                "da7cf775450a8015", 597212426, "315cc2e8bd6070ca",
                "c96c69755c42c300"),
    "fault/17": ("spmm", "sw-prefetch", 1, 64, "faultfuzz-75047289",
                 "a8f9790ec9c2e8a1", 685640729, "70a98ab2dee89b6c",
                 "2b3930bbcb0aebab"),
    "fault/120": ("sdhp", "maple-decouple", 2, 14, "faultfuzz-672557972",
                  "9b2304b8e1bf5234", 918491891, "9acc9b2f1b0b8b9e",
                  "db63dc3b8a7c8ac3"),
    "fault/239": ("sdhp", "sw-decouple", 2, 71, "faultfuzz-752874500",
                  "11b716622a966d32", 76122350, "ea58c329150546a1",
                  "458a18987d2b8d2f"),
    "integrity/0": ("bfs", "maple-decouple", 2, 27,
                    "integrityfuzz-677325012", "622a24f1fcafc501",
                    495660705, "a8df6d5c26521168", "39731bad8096c8b8"),
    "integrity/3": ("sdhp", "maple-decouple", 2, 67,
                    "integrityfuzz-449139711", "3ac7f76936853f4d",
                    1053426823, "6a57d173f41d6c0e", "f1bd948b8004adca"),
    "integrity/16": ("sdhp", "maple-decouple", 2, 17,
                     "integrityfuzz-701976244", "4d94cc0cd1a73072",
                     621802675, "d8a7b4eafabd9cf6", "604cea3be7b36388"),
    "integrity/40": ("sdhp", "maple-decouple", 2, 33,
                     "integrityfuzz-272436116", "c6ffb6a8094595c5",
                     987080409, "74b3ce6427367769", "73846fcacd8bfb92"),
    "integrity/199": ("spmv", "maple-decouple", 2, 78,
                      "integrityfuzz-588191610", "881a93cfc24c369c",
                      667402980, "ecca696b113887ea", "a00165ce35c6355f"),
    "chaos/0": ("worker-kill-resume", "spmv/maple-decouple x2 [default]",
                15000, 2),
    "chaos/11": ("ckpt-bitflip", "spmv/maple-decouple x2 [default]",
                 15000, 2),
    "chaos/12": ("ckpt-bitflip", "sdhp/doall x2 [default]", 50000, 2),
    "chaos/100": ("cache-truncate", "spmv/lima x1 [default]", 15000, 1),
    "chaos/159": ("ckpt-truncate", "sdhp/doall x2 [default]", 50000, 0),
}

#: ``spec_key`` of ``fuzz_specs(4)`` / ``integrity_specs(4)``.
SPEC_KEYS = {
    "fault": [
        "b82fdbcbfff6642a71ec940636874871947ab17391e5a92a04a24ba7d40d3da7",
        "4741f35877fc387f4e5a58bd3fd029c4e906080672804d8f02ed885290319a2c",
        "ed899acd8f0ae75137bdfb942a14c95fe395d057787ca5d442792b70092f6489",
        "2cd592cfbdce68f1eade1669d422e2c6c820900c5c72dc122e3da80230169919",
    ],
    "integrity": [
        "b3756306ee3797fa5bdd283b4555d384895a7dcff9855ae8cd7177eacbee24ab",
        "c8cc06e2aefbdf6db4918f2152ba743daf5ac8ef7dad3d73ced7e702d9f379e5",
        "3deb50d522f9955570feb4e7a76d91b8f130487cd3fedf5abcbc06bb3e81e3e9",
        "e7881f8eb2638757f099285f07f900bbdd441b3572fcf3b86d2a26c8696f8bb1",
    ],
}


# -- derivation goldens ---------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_case_derivation_is_pinned(key):
    campaign, case = key.split("/")
    assert _fingerprint(campaign, int(case)) == GOLDEN[key]


@pytest.mark.parametrize("campaign", sorted(SPEC_KEYS))
def test_spec_derivation_is_pinned(campaign):
    specs = {"fault": fuzz_specs, "integrity": integrity_specs}[campaign](4)
    assert [spec_key(s) for s in specs] == SPEC_KEYS[campaign]


# -- shared meta-tests ----------------------------------------------------------------


def _same(campaign, a, b):
    if campaign == "chaos":
        return a == b
    return (a.describe() == b.describe() and a.plan == b.plan
            and a.config == b.config)


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_case_generation_is_pure(campaign):
    """A case number means the same experiment every time it is drawn,
    and the default master seed is the campaign's own."""
    a = materialize(campaign, 17)
    assert _same(campaign, a, materialize(campaign, 17))
    seed = CAMPAIGNS[campaign].master_seed
    assert _same(campaign, materialize(campaign, 12, seed),
                 materialize(campaign, 12))
    assert materialize(campaign, 18).describe() != a.describe()
    if campaign == "integrity":
        assert a.config.reliable_ports and a.config.ecc


@pytest.mark.parametrize("campaign", ["fault", "integrity"])
def test_master_seed_changes_the_sweep(campaign):
    seed = CAMPAIGNS[campaign].master_seed
    assert materialize(campaign, 0, seed).describe() != \
        materialize(campaign, 0, seed + 1).describe()


@pytest.mark.parametrize("campaign,case", [("fault", 3), ("integrity", 0)])
def test_replay_is_deterministic(campaign, case):
    """Same case number -> bit-identical cycles, fault log and stats."""
    fc = materialize(campaign, case)
    first = run_armed(fc.workload, fc.technique, **fc.run_kwargs())
    second = run_armed(fc.workload, fc.technique, **fc.run_kwargs())
    assert first.cycles == second.cycles
    assert first.fault_events == second.fault_events
    assert first.soc.stats_snapshot() == second.soc.stats_snapshot()
