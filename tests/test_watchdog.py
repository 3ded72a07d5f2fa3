"""Unit tests for the liveness watchdog (``repro.sim.watchdog``).

The contract: a healthy run is untouched (no extra cycles, no kept-alive
simulation), a trip produces a structured diagnosis naming the stuck
seams, and dumps land where configured (argument, then environment).
"""

import json
from pathlib import Path

import pytest

from repro.cpu.core import Thread
from repro.cpu.isa import Alu
from repro.sim import LivenessError, Watchdog
from repro.sim.watchdog import (
    DUMP_DIR_ENV,
    collect_diagnosis,
    raise_liveness,
    write_dump,
)
from repro.system.soc import Soc


def _small_soc():
    soc = Soc()
    aspace = soc.new_process()
    return soc, aspace


# -- construction ----------------------------------------------------------------


def test_parameter_validation():
    soc, _ = _small_soc()
    with pytest.raises(ValueError):
        Watchdog(soc, check_interval=0)
    with pytest.raises(ValueError):
        Watchdog(soc, check_interval=1000, stall_window=500)


def test_arm_is_idempotent_and_disarm_stops_ticking():
    soc, _ = _small_soc()
    monitor = Watchdog(soc, check_interval=10)
    assert monitor.arm() is monitor
    monitor.arm()  # second arm: no second tick chain
    assert soc.sim.utility_ticks == 1
    monitor.disarm()
    soc.sim.run()
    # The already-queued tick fires once, sees the disarm, and stops.
    assert soc.sim.utility_ticks == 0
    assert not monitor.tripped


def test_watchdog_never_keeps_a_finished_run_alive():
    """A healthy workload with an armed watchdog terminates with clean
    utility-tick accounting — the tick chain dies with the model."""
    soc, aspace = _small_soc()

    def program():
        for _ in range(20):
            yield Alu(5)

    monitor = Watchdog(soc, check_interval=7)
    cycles = soc.run_threads([(0, Thread(program(), aspace, "busywork"))],
                             watchdog=monitor)
    assert cycles > 0
    assert soc.sim.utility_ticks == 0
    assert monitor.ticks > 0 and not monitor.tripped


# -- diagnosis --------------------------------------------------------------------


def test_collect_diagnosis_covers_all_subsystems():
    soc, _ = _small_soc()
    diagnosis = collect_diagnosis(soc, "unit-test")
    assert diagnosis["reason"] == "unit-test"
    assert diagnosis["engine"]["live_processes"] == 0
    assert set(diagnosis) >= {"ports", "busy_ports", "maples", "memory",
                              "os", "attachments"}
    assert diagnosis["busy_ports"] == []
    assert "core0.mem" in diagnosis["ports"]
    assert 0 in diagnosis["maples"]


def test_collect_diagnosis_tolerates_partial_rigs():
    class Rig:
        class sim:
            now = 12
            live_processes = 1
            pending_events = 0
            events_executed = 3

    diagnosis = collect_diagnosis(Rig(), "partial")
    assert diagnosis["cycle"] == 12
    assert "ports" not in diagnosis and "maples" not in diagnosis


# -- dumps ------------------------------------------------------------------------


def test_write_dump_explicit_dir(tmp_path):
    path = write_dump({"reason": "stall", "cycle": 99}, str(tmp_path))
    assert path is not None and path.endswith("watchdog-stall-cycle99.json")
    assert json.loads(Path(path).read_text())["reason"] == "stall"


def test_write_dump_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv(DUMP_DIR_ENV, str(tmp_path))
    path = write_dump({"reason": "deadlock", "cycle": 5})
    assert path is not None and str(tmp_path) in path


def test_write_dump_off_by_default(monkeypatch):
    monkeypatch.delenv(DUMP_DIR_ENV, raising=False)
    assert write_dump({"reason": "stall", "cycle": 1}) is None


def test_raise_liveness_names_busy_ports_and_dump(tmp_path):
    soc, _ = _small_soc()

    def handler(msg):
        yield 10**9  # park the transaction far in the future
        return None

    client = soc.ports.port("test.stuck", tile=0)
    server = soc.ports.port("test.stuck.srv", tile=1)
    server.bind(handler)
    soc.ports.connect(client, server)
    soc.ports.enable_tracing()
    soc.sim.spawn(client.request("poke"))
    # Step a little so the transaction is in flight, then diagnose.
    soc.sim.run(until=100)
    with pytest.raises(LivenessError) as exc:
        raise_liveness(soc, "stall", "unit trip", dump_dir=str(tmp_path))
    err = exc.value
    assert "test.stuck" in str(err)
    assert err.dump_path and err.dump_path in str(err)
    dumped = json.loads(Path(err.dump_path).read_text())
    assert "test.stuck" in dumped["busy_ports"]
    tail = dumped["ports"]["test.stuck"]["trace_tail"]
    assert tail  # per-port trace tail rides along in the dump
