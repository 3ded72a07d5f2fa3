"""Tests for the CLI figure runner and reporting helpers."""

import pytest

from repro.harness import figures
from repro.harness.__main__ import TARGETS, main
from repro.harness.figures import FigureResult, Series
from repro.harness.orchestrator import Orchestrator, RunResult, spec_key

#: Targets whose plan has no simulation cells.
STATIC_TARGETS = ("fig14", "area", "table1", "table2", "table3")


def test_cli_fast_targets(capsys):
    assert main(["table1", "table2", "table3", "area", "fig14"]) == 0
    out = capsys.readouterr().out
    assert "MAPLE" in out
    assert "Table 2" in out
    assert "round-trip" in out
    assert "overhead vs served cores" in out


def test_cli_rejects_unknown_target():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def _refuse_to_simulate(self, specs):
    raise AssertionError("planning must not simulate")


def test_render_covers_every_target_name(monkeypatch):
    """Every target's plan builds without simulating; the static ones
    render in full."""
    monkeypatch.setattr(Orchestrator, "run", _refuse_to_simulate)
    for target, plan_for in TARGETS.items():
        assert bool(plan_for(1).specs) == (target not in STATIC_TARGETS)
    texts = figures.run(*(TARGETS[target](1) for target in STATIC_TARGETS))
    assert len(texts) == len(STATIC_TARGETS) and all(texts)


def _synthetic_result(spec):
    """A result whose numbers differ per spec, so a mix-up shows."""
    key = spec_key(spec)
    return RunResult(
        workload=spec.workload, technique=spec.technique,
        threads=spec.threads, cycles=1000 + int(key[:3], 16),
        fallback_doall=False, total_loads=100 + int(key[3:5], 16),
        avg_load_latency=float(int(key[5:7], 16)), events_executed=1,
        stats={}, key=key)


def test_main_runs_all_targets_in_one_orchestrator_batch(monkeypatch,
                                                         capsys):
    batches = []

    def fake_run(self, specs):
        batches.append(list(specs))
        return [_synthetic_result(spec) for spec in specs]

    monkeypatch.setattr(Orchestrator, "run", fake_run)
    targets = ["fig8", "fig9", "fig10", "fig11"]
    assert main(targets + ["--no-cache", "--quiet"]) == 0
    [batch] = batches
    # fig8's 16 specs (12 unique) plus the prefetch study's 12 cells,
    # listed once per figure 9, 10 and 11.
    assert len(batch) == 16 + 3 * 12
    assert len({spec_key(spec) for spec in batch}) == 12 + 12
    together = capsys.readouterr().out
    # Each target renders from its own cells: the same text as alone.
    for target in targets:
        main([target, "--no-cache", "--quiet"])
    assert capsys.readouterr().out == together


def test_figure_result_render_layout():
    result = FigureResult(
        "figX", "demo", ("a", "b"),
        [Series("one", {"a": 1.0, "b": 4.0}),
         Series("two", {"a": 2.0, "b": 2.0})],
        notes="hello")
    text = result.render()
    assert "figX: demo" in text
    assert "geomean" in text
    assert "2.00" in text
    assert "note: hello" in text


def test_figure_result_series_lookup():
    result = FigureResult("f", "t", ("a",), [Series("s", {"a": 1.0})])
    assert result.series_by_label("s").values["a"] == 1.0
    with pytest.raises(KeyError):
        result.series_by_label("missing")
