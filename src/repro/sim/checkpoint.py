"""Deterministic checkpoint/restore for a full :class:`~repro.system.Soc`.

A simulation here is a web of live generator frames (cores, MAPLE
engines, NoC routers, DRAM channels), and CPython cannot serialize a
suspended generator.  So a checkpoint does **not** try to freeze the
process image; it pins down the run by *content*, leaning on the repo's
oldest contract — a seeded run is bit-exact reproducible:

- the **cycle** the run had reached and the engine's event census
  (executed count, every pending record's due time and shape),
- a **sha256 digest per subsystem** over canonicalized state: the
  engine's per-cycle event buckets, PortRegistry (credits, txn
  counters, busy set, reliable-port telemetry), L1/L2 caches + the
  :class:`CoherenceBook`, MAPLE queues/LIMA, directory slices, DRAM
  channels, the backing physical memory (which also holds the page
  tables, so VM state rides along), per-core and per-MAPLE TLBs, the
  stats store, and both global RNG streams,
- the pickled :class:`RunSpec` (when the run came from the orchestrator)
  so a fresh process can rebuild the experiment,
- a whole-file content digest so torn or bit-flipped checkpoint files
  are detected before any of the above is trusted.

**Restore is verified replay**: rebuild the experiment from its spec
(or from caller-supplied arguments), re-seed the RNGs exactly as
:func:`~repro.harness.orchestrator.execute_spec` does, run the fresh
``Soc`` forward to the checkpoint cycle, and compare every subsystem
digest.  A mismatch raises the typed
:class:`CheckpointDivergenceError` naming the subsystems that differ —
the run never silently continues from a state that is not the one that
was saved.  The payoff of this design is that "resumed run ==
uninterrupted run" is not a best-effort property that decays as new
subsystems grow state; it is checked against the recorded digests on
every resume.  The cost — replaying the prefix — is proportional to the
checkpoint cycle, which DESIGN.md discusses honestly.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import json
import pickle
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

#: Bump when the payload shape or any digest surface changes: old files
#: must fail loudly (schema error), never verify against the wrong state.
CHECKPOINT_SCHEMA = 2
CHECKPOINT_KIND = "repro-soc-checkpoint"


class CheckpointError(RuntimeError):
    """Base class for every typed checkpoint failure."""

    def __init__(self, message: str, path: Optional[str] = None):
        self.path = str(path) if path is not None else None
        super().__init__(message if path is None
                         else f"{message} [{path}]")


class CheckpointCorruptError(CheckpointError):
    """The file is unreadable, truncated, schema-mismatched, or its
    content digest does not match — nothing in it can be trusted."""


class CheckpointUnresumableError(CheckpointError):
    """The checkpoint is valid but carries no embedded :class:`RunSpec`
    (it was saved from an ad-hoc run), so only the caller who can
    rebuild the experiment may resume it."""


class CheckpointDivergenceError(CheckpointError):
    """Replay reached the checkpoint cycle in a different state.

    Carries the subsystems whose digests disagree — the replay either
    ran under a different config/seed/dataset than the saved run, or a
    determinism bug crept into the simulator.  Either way continuing
    would produce numbers that are not the saved run's numbers.
    """

    def __init__(self, mismatched, path: Optional[str] = None):
        self.mismatched = sorted(mismatched)
        super().__init__(
            "replayed state diverges from checkpoint in: "
            + ", ".join(self.mismatched), path)


# -- canonicalization ------------------------------------------------------------


def _canon(value: Any) -> Any:
    """A JSON-able, address-free, deterministic view of ``value``.

    Digests must never see ``repr`` output containing ``0x`` memory
    addresses: two identical simulations in different processes must
    canonicalize to identical bytes.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, enum.Enum):
        return [type(value).__name__, value.name]
    if isinstance(value, dict):
        return {_canon_key(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_canon(v) for v in value), key=_canon_sort_key)
    if isinstance(value, (bytes, bytearray)):
        return base64.b64encode(bytes(value)).decode()
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        try:  # numpy scalar
            return _canon(value.item())
        except (TypeError, ValueError):
            pass
    # Process handles pend in the event queue; name + liveness is the
    # deterministic identity (generator frames carry no stable bytes).
    name = getattr(value, "name", None)
    if name is not None and hasattr(value, "finished"):
        return ["proc", str(name), bool(value.finished)]
    if callable(value):
        owner = getattr(value, "__self__", None)
        qual = getattr(value, "__qualname__",
                       getattr(value, "__name__", type(value).__name__))
        if owner is not None:
            return ["fn", type(owner).__name__, str(qual)]
        return ["fn", str(qual)]
    text = repr(value)
    if "0x" in text:  # never let an address into a digest
        return ["obj", type(value).__name__]
    return ["obj", type(value).__name__, text]


def _canon_key(key: Any) -> str:
    if isinstance(key, str):
        return key
    return json.dumps(_canon(key), sort_keys=True, separators=(",", ":"))


def _canon_sort_key(item: Any) -> str:
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    return json.dumps(_canon(value), sort_keys=True, separators=(",", ":"))


def digest_of(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


# -- state surfaces --------------------------------------------------------------


def engine_state(sim) -> Dict[str, Any]:
    """The engine's full pending-event census.

    ``pending`` lists ``[due, records]`` per future cycle in due order,
    each bucket's records in the insertion order they will run in.
    """
    buckets = sim._buckets
    return {
        "now": sim._now,
        "live_processes": sim._live_processes,
        "events_executed": sim.events_executed,
        "utility_ticks": sim.utility_ticks,
        "ready": [_canon(rec) for rec in sim._ready],
        "pending": [[due, [_canon(rec) for rec in buckets[due]]]
                    for due in sorted(buckets)],
        "engine": type(sim).__name__,
    }


def _rng_state() -> Dict[str, Any]:
    state = {"python": _canon(random.getstate())}
    try:
        import numpy
        v, keys, pos, has_gauss, cached = numpy.random.get_state()
        state["numpy"] = [str(v), [int(k) for k in keys], int(pos),
                         int(has_gauss), float(cached)]
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        state["numpy"] = None
    return state


def _cache_state(cache) -> Any:
    return [[[line, _canon(st)] for line, st in cache_set.items()]
            for cache_set in cache._sets]


def state_digests(soc) -> Dict[str, str]:
    """One sha256 per subsystem over its canonicalized state.

    Per-subsystem (rather than one monolithic hash) so a divergence
    report names *where* the replay went wrong — "caches, coherence"
    triages very differently from "rng".
    """
    memsys = soc.memsys
    surfaces: Dict[str, Any] = {
        "engine": engine_state(soc.sim),
        "ports": {"debug": soc.ports.debug_state(),
                  "telemetry": soc.ports.telemetry()},
        "caches": {"l2": _cache_state(memsys.l2),
                   "l1": {cid: _cache_state(l1)
                          for cid, l1 in sorted(memsys.l1s.items())}},
        "coherence": [sorted((line, sorted(entry.sharers), entry.owner)
                             for line, entry in shard.items())
                      for shard in memsys.book._shards],
        "memory": sorted(memsys.mem._words.items()),
        "hierarchy": memsys.debug_state(),
        "maples": [m.debug_state() for m in soc.maples],
        "directory": (soc.directory.debug_state()
                      if soc.directory is not None else None),
        "tlbs": {"cores": {c.core_id: list(c.tlb._entries.items())
                           for c in soc.cores},
                 "maples": {m.instance_id:
                            list(m.mmu.tlb._entries.items())
                            for m in soc.maples}},
        "stats": soc.stats_snapshot(),
        "rng": _rng_state(),
    }
    return {name: digest_of(state) for name, state in surfaces.items()}


# -- the checkpoint artifact -----------------------------------------------------


@dataclass
class Checkpoint:
    """One saved point of one run: cycle + digests + (optionally) the
    spec that rebuilds it.  Serialized as a single JSON file whose
    ``content_sha256`` covers every other field."""

    cycle: int
    events_executed: int
    digests: Dict[str, str]
    stats: Dict[str, float]
    label: str = ""
    spec_b64: Optional[str] = None
    spec_key: Optional[str] = None
    schema: int = CHECKPOINT_SCHEMA
    meta: Dict[str, Any] = field(default_factory=dict)

    def payload(self) -> Dict[str, Any]:
        return {
            "kind": CHECKPOINT_KIND,
            "schema": self.schema,
            "cycle": self.cycle,
            "events_executed": self.events_executed,
            "digests": dict(self.digests),
            "stats": dict(self.stats),
            "label": self.label,
            "spec_b64": self.spec_b64,
            "spec_key": self.spec_key,
            "meta": dict(self.meta),
        }

    def content_digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.payload(), sort_keys=True,
                       separators=(",", ":")).encode()).hexdigest()

    @property
    def resumable(self) -> bool:
        return self.spec_b64 is not None

    def spec(self):
        """The embedded :class:`RunSpec`, or a typed error without one."""
        if self.spec_b64 is None:
            raise CheckpointUnresumableError(
                "checkpoint has no embedded RunSpec (saved from an ad-hoc "
                "run); rebuild the experiment and pass resume_from=")
        return pickle.loads(base64.b64decode(self.spec_b64))

    def save(self, path) -> "Checkpoint":
        """Atomic write (tmp + rename): a writer killed mid-save leaves
        either the previous valid file or a reapable ``.tmp``."""
        path = Path(path)
        body = self.payload()
        body["content_sha256"] = self.content_digest()
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(body, sort_keys=True, indent=1))
        tmp.replace(path)
        return self

    @classmethod
    def load(cls, path) -> "Checkpoint":
        path = Path(path)
        try:
            body = json.loads(path.read_text())
        except OSError as err:
            raise CheckpointCorruptError(
                f"unreadable checkpoint: {err}", path) from err
        except ValueError as err:
            raise CheckpointCorruptError(
                f"checkpoint is not valid JSON ({err}) — truncated or "
                "torn write", path) from err
        if not isinstance(body, dict) or body.get("kind") != CHECKPOINT_KIND:
            raise CheckpointCorruptError("not a checkpoint file", path)
        if body.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointCorruptError(
                f"checkpoint schema {body.get('schema')!r} != "
                f"{CHECKPOINT_SCHEMA}", path)
        recorded = body.pop("content_sha256", None)
        try:
            ckpt = cls(cycle=body["cycle"],
                       events_executed=body["events_executed"],
                       digests=dict(body["digests"]),
                       stats=dict(body["stats"]),
                       label=body.get("label", ""),
                       spec_b64=body.get("spec_b64"),
                       spec_key=body.get("spec_key"),
                       schema=body["schema"],
                       meta=dict(body.get("meta") or {}))
        except (KeyError, TypeError, ValueError) as err:
            raise CheckpointCorruptError(
                f"malformed checkpoint payload: {err!r}", path) from err
        if recorded != ckpt.content_digest():
            raise CheckpointCorruptError(
                "content digest mismatch — file was bit-flipped or "
                "partially overwritten", path)
        return ckpt


def capture(soc, spec=None, label: str = "") -> Checkpoint:
    """Snapshot ``soc`` right now (between engine run() calls)."""
    spec_b64 = key = None
    if spec is not None:
        from repro.harness.orchestrator import spec_key
        spec_b64 = base64.b64encode(pickle.dumps(spec)).decode()
        key = spec_key(spec)
    return Checkpoint(
        cycle=soc.sim.now,
        events_executed=soc.sim.events_executed,
        digests=state_digests(soc),
        stats=soc.stats_snapshot(),
        label=label or (spec.label() if spec is not None else ""),
        spec_b64=spec_b64,
        spec_key=key,
        meta={"config": soc.config.name,
              "engine": type(soc.sim).__name__,
              # Spec-driven runs seed the global RNGs from the spec key
              # (execute_spec), so a replay reproduces them and verify
              # may compare the rng digest.  Ad-hoc runs inherit the
              # caller process's RNG state, which a resume cannot know.
              "seeded": spec is not None},
    )


def verify_against(soc, checkpoint: Checkpoint,
                   path: Optional[str] = None) -> None:
    """Compare ``soc``'s live state digests to the checkpoint's.

    Called after replaying to ``checkpoint.cycle``; raises the typed
    :class:`CheckpointDivergenceError` naming every differing subsystem.
    """
    mismatched = []
    if soc.sim.now != checkpoint.cycle:
        mismatched.append("cycle")
    live = state_digests(soc)
    skip = () if checkpoint.meta.get("seeded") else ("rng",)
    mismatched.extend(name for name, want in checkpoint.digests.items()
                      if name not in skip and live.get(name) != want)
    if mismatched:
        raise CheckpointDivergenceError(mismatched, path)


def resume_checkpoint(path, **overrides):
    """Rebuild the embedded spec's experiment, replay to the saved
    cycle under digest verification, and run it to completion.

    Returns the finished
    :class:`~repro.harness.techniques.ExperimentResult`.  ``overrides``
    are forwarded to ``run_workload`` (e.g. ``checkpoint_every=`` /
    ``checkpoint_path=`` to keep checkpointing the continued run).
    """
    ckpt = path if isinstance(path, Checkpoint) else Checkpoint.load(path)
    spec = ckpt.spec()

    from repro.harness.orchestrator import seed_rngs_for, spec_key
    from repro.harness.techniques import run_workload

    seed_rngs_for(spec_key(spec))
    kwargs = spec.run_kwargs()
    kwargs.update(overrides)
    return run_workload(spec.workload, spec.technique,
                        resume_from=ckpt, **kwargs)
