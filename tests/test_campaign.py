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
                "8126a63b513534da", 341913731, "f3ec936c0aabd00f",
                "e8072c90d064fc40"),
    "fault/1": ("spmv", "maple-decouple", 2, 85, "faultfuzz-289665609",
                "051536693e5b0fc2", 597212426, "315cc2e8bd6070ca",
                "c96c69755c42c300"),
    "fault/17": ("spmm", "sw-prefetch", 1, 64, "faultfuzz-75047289",
                 "7d674d72f92de906", 685640729, "70a98ab2dee89b6c",
                 "2b3930bbcb0aebab"),
    "fault/120": ("sdhp", "maple-decouple", 2, 14, "faultfuzz-672557972",
                  "be8db27a0a9e99d8", 918491891, "9acc9b2f1b0b8b9e",
                  "db63dc3b8a7c8ac3"),
    "fault/239": ("sdhp", "sw-decouple", 2, 71, "faultfuzz-752874500",
                  "8f77338a23f89a11", 76122350, "ea58c329150546a1",
                  "458a18987d2b8d2f"),
    "integrity/0": ("bfs", "maple-decouple", 2, 27,
                    "integrityfuzz-677325012", "b54b460ef16c3a72",
                    495660705, "a8df6d5c26521168", "39731bad8096c8b8"),
    "integrity/3": ("sdhp", "maple-decouple", 2, 67,
                    "integrityfuzz-449139711", "335c3d906cff135b",
                    1053426823, "6a57d173f41d6c0e", "f1bd948b8004adca"),
    "integrity/16": ("sdhp", "maple-decouple", 2, 17,
                     "integrityfuzz-701976244", "746aec7642e0a9b2",
                     621802675, "d8a7b4eafabd9cf6", "604cea3be7b36388"),
    "integrity/40": ("sdhp", "maple-decouple", 2, 33,
                     "integrityfuzz-272436116", "37a8ddedaed510d7",
                     987080409, "74b3ce6427367769", "73846fcacd8bfb92"),
    "integrity/199": ("spmv", "maple-decouple", 2, 78,
                      "integrityfuzz-588191610", "2f09a080c696530d",
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
        "96ad34ed0e09459034bdf42cb0667f3ba6757a469ab83c3941caa3f38a0f97db",
        "44b4710f8547cf8a0531b5a4446149fcd47bbb0a1759e3d4c874ab0405a33033",
        "cc0479d69bbc73d66d997cfc1eb1b6c073c442e9b936bb46811189394a1a010b",
        "fbdf5fe1e87595210fb4383bd10ae2d065208d90fd8821985f98080a2dbcfad3",
    ],
    "integrity": [
        "ee88af9c41245f05645a721f1ef8d75270023da2ba547acc01f69fc5af59b942",
        "f4590d3357a4600edcff8d65cbeae7a2fbc675dde04590010e76e5f7d06bf592",
        "c35cdcd9f3b9c54a54e5ef3b35f93dd187ba8b82ce48ff0e18b991b192aa1cfa",
        "40973cf57d60a3b25d0f0c2c38fbb9516dd993e6f5607cb9c02a9658c07a3388",
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
