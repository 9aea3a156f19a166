"""The benchmark's own tests: a tiny smoke run of every workload in both modes,
and proof that the correctness gate fires on altered reports.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lowdepth import cli  # noqa: E402
from workloads import Report  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "measure", functools.partial(run.measure, tiny=True))
    assert run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in [*declared.items(), ("failed_frac", "ratio")]:
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}") for line in lines), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_are_a_function_of_the_seed():
    assert workloads.pass_jobs("mean-agg", 3, 1) == workloads.pass_jobs("mean-agg", 3, 1)
    assert workloads.pass_jobs("mean-agg", 3, 1) != workloads.pass_jobs("mean-agg", 4, 1)
    for seed in range(20):
        _, wrap = workloads.pass_jobs("phase-arc", seed, 0)[0]
        assert min(wrap.truth, 2 * math.pi - wrap.truth) < wrap.epsilon
        type2 = workloads.pass_jobs("mean-agg", seed, 0)[0][1]
        assert type2.truth + type2.epsilon ** (1 - type2.beta) <= 1.0


def test_binomial_cdf():
    assert gate.binomial_cdf(0, 3, 0.5) == 0.125
    assert math.isclose(gate.binomial_cdf(3, 3, 0.5), 1.0)
    assert math.isclose(gate.binomial_cdf(1, 2, 0.9), 1 - 0.81)


def _export(report: Report, tmp_path: Path) -> Path:
    out = tmp_path / f"{report.label}.{report.fmt}"
    assert cli.main(report.argv(str(out))) == 0
    return out


def _rewrite(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


# Cheap configurations of the gated algorithms (one or a few runs per trial).
TYPE1 = Report("type1", "run", "type1", 0.3, 0.2, 0.05, 0.0, 30, 11)
PHASE = Report("phase", "run", "phase", 2 * math.pi - 0.05, 0.1, 0.1, 0.0, 30, 12)
RALLFULLER = Report("rallfuller", "run", "rallfuller", 0.6, 0.1, 0.05, 0.5, 2, 13)
SCALE = Report("scale", "scale", "type1", 0.4, 0.05, 0.1, 0.5, 1, 14, fmt="svg",
               epsilon_grid=(0.1, 0.05), beta_grid=(0.0, 1.0))


@pytest.mark.parametrize("report", [TYPE1, PHASE, RALLFULLER, SCALE], ids=lambda r: r.label)
def test_gate_passes_untouched_reports(report, tmp_path):
    assert gate.check_report(report, _export(report, tmp_path)).problems == []


@pytest.mark.parametrize("report", [TYPE1, RALLFULLER], ids=lambda r: r.label)
def test_gate_fires_on_altered_ledger(report, tmp_path):
    path = _export(report, tmp_path)

    def add_query(payload):
        payload["trial_queries"][0] += 1
        payload["total_queries"] += 1

    _rewrite(path, add_query)
    assert any("ledger" in p for p in gate.check_report(report, path).problems)


def test_gate_fires_on_altered_totals(tmp_path):
    path = _export(TYPE1, tmp_path)
    _rewrite(path, lambda payload: payload.update(max_depth=payload["max_depth"] + 1))
    assert any("totals" in p for p in gate.check_report(TYPE1, path).problems)


def test_gate_fires_on_altered_success_count(tmp_path):
    path = _export(TYPE1, tmp_path)
    _rewrite(path, lambda payload: payload.update(empirical_success=0.5))
    assert any("empirical_success" in p for p in gate.check_report(TYPE1, path).problems)

    def miss_every_trial(payload):
        payload["estimates"] = [TYPE1.truth + 1.0] * TYPE1.trials
        payload["empirical_success"] = 0.0

    _rewrite(path, miss_every_trial)
    assert any("below the floor" in p for p in gate.check_report(TYPE1, path).problems)


def test_gate_counts_phase_aborts_apart(tmp_path):
    path = _export(PHASE, tmp_path)
    # The truth lies within epsilon of 0, so an abort (angle 0.0) still counts
    # as a success in the report; the gate must not credit it.
    _rewrite(path, lambda payload: payload["estimates"].__setitem__(slice(0, 10), [0.0] * 10))
    verdict = gate.check_report(PHASE, path)
    aborts = verdict.info["aborts"]
    assert aborts >= 10 and verdict.info["successes"] <= PHASE.trials - aborts
    assert any("aborts exceed" in p for p in verdict.problems)
    assert any("below the floor" in p for p in verdict.problems)


def test_gate_fires_on_altered_or_broken_svg(tmp_path):
    path = _export(SCALE, tmp_path)
    text = path.read_text()
    path.write_text(text.replace('r="4"', 'r="5"', 1))
    assert any("closed-form" in p for p in gate.check_report(SCALE, path).problems)
    path.write_text(text[: len(text) // 2])
    assert any("unreadable" in p for p in gate.check_report(SCALE, path).problems)


def test_traced_bytes_must_match_untraced():
    def job(digest):
        return {"reports": [{"label": "type1", "trials": 5, "digest": digest, "problems": []}]}

    assert run._failures([[[job("a"), job("a")]]]) == (10, 0, [])
    attempted, failed, messages = run._failures([[[job("a"), job("b")]]])
    assert (attempted, failed) == (10, 5) and "differ" in messages[0]
