"""Correctness gate: every exported report is checked against closed forms.

A report passes when it parses, its ledger equals the closed form computed
here from the public plans and cost models (for `rallfuller`, from a replay
of each trial's step trace), and its success count clears the algorithm's
documented floor in a one-sided binomial test.  Phase aborts (an estimate of
exactly 0.0) are never credited as successes; they are tested on their own
against the failure budget.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lowdepth import aggregate, blackbox, circphase, harness, oracle, rallfuller
from lowdepth.core import Amplitude, ResourceLedger, SeedSpec, TargetSpec, ceil_int, derive_stream

from workloads import Report

# Significance of every one-sided binomial test.  Real success rates sit far
# above their floors (type1 about 0.88 against 0.51), so a correct program
# trips a test with probability well below this.
ALPHA = 1e-3


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p)."""
    return math.fsum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def _target(report: Report) -> TargetSpec:
    return TargetSpec(report.epsilon, report.delta, report.beta)


def _synthetic_ledger(cost, contract) -> tuple[int, int]:
    """(depth, queries) one synthetic run charges: a run never makes fewer
    queries than its deepest circuit."""
    depth = cost.depth_fn(contract)
    return depth, max(depth, cost.queries_fn(contract))


def trial_ledger(report: Report) -> tuple[int, int]:
    """Closed-form (max depth, queries) of one type1/type2/phase trial."""
    target = _target(report)
    if report.algorithm == "type1":
        plan = aggregate.Type1Plan.from_target(target)
        depth, queries = _synthetic_ledger(blackbox.UQAE1_COST, plan.contract())
        return depth, plan.runs * queries
    if report.algorithm == "type2":
        plan = aggregate.Type2Plan.from_target(target)
        depth, queries = _synthetic_ledger(blackbox.UQAE2_COST, plan.contract())
        return depth, plan.runs * queries
    plan = circphase.PhasePlan.from_target(target)
    ref_depth, ref_queries = _synthetic_ledger(blackbox.UQPE2_COST, plan.ref_contract(target))
    depth, queries = _synthetic_ledger(blackbox.UQPE2_COST, plan.main_contract(target))
    return max(ref_depth, depth), ref_queries + plan.runs * queries


def success_floor(report: Report) -> float:
    if report.algorithm == "type1":
        return aggregate.bias_variance_floor(
            aggregate.DEFAULT_BIAS_FRACTION_BV, aggregate.DEFAULT_VARIANCE_FRACTION_BV
        ).success_floor
    return 1.0 - report.delta


def _check_rallfuller_ledger(report: Report, payload: dict, verdict: Verdict) -> None:
    """Replay every trial with a step trace; the ledger must equal the sum of
    tosses x degree over exactly ceil(log_0.9 eps) steps."""
    target = _target(report)
    steps = ceil_int(math.log(report.epsilon) / math.log(rallfuller.SHRINK_FACTOR))
    amplitude = Amplitude(report.truth)
    root = SeedSpec(report.master_seed, 0)
    for index in range(report.trials):
        records: list = []
        estimate = rallfuller.rall_fuller_estimate(
            lambda poly: oracle.PolyOracle(poly, amplitude), target,
            seed=derive_stream(root, index), ledger=ResourceLedger(), trace=records,
        )
        if len(records) != steps:
            verdict.problems.append(f"trial {index}: {len(records)} steps, expected {steps}")
            return
        for record in records:
            gamma = rallfuller.BASE_SCALE
            if record.branch == rallfuller.BRANCH_LOW_DEPTH:
                gamma *= record.width ** report.beta
            if record.gamma != gamma or record.tosses != rallfuller.coin_tosses(
                gamma, report.delta / steps
            ):
                verdict.problems.append(f"trial {index} step {record.step}: wrong gap or tosses")
                return
        depth = max(record.poly_degree for record in records)
        queries = sum(record.tosses * record.poly_degree for record in records)
        if (payload["trial_depths"][index], payload["trial_queries"][index]) != (depth, queries):
            verdict.problems.append(
                f"trial {index}: ledger ({payload['trial_depths'][index]}, "
                f"{payload['trial_queries'][index]}) != replayed ({depth}, {queries})"
            )
            return
        if payload["estimates"][index] != estimate:
            verdict.problems.append(f"trial {index}: estimate differs from its replay")
            return
    verdict.info["steps"] = steps


def _check_ledger(report: Report, payload: dict, verdict: Verdict) -> None:
    if report.algorithm == "rallfuller":
        _check_rallfuller_ledger(report, payload, verdict)
    else:
        depth, queries = trial_ledger(report)
        if payload["trial_depths"] != [depth] * report.trials or payload["trial_queries"] != [
            queries
        ] * report.trials:
            verdict.problems.append(f"per-trial ledger differs from closed form ({depth}, {queries})")
    if payload["max_depth"] != max(payload["trial_depths"]) or payload["total_queries"] != sum(
        payload["trial_queries"]
    ):
        verdict.problems.append("report totals disagree with its per-trial ledger")


def _check_successes(report: Report, payload: dict, verdict: Verdict) -> None:
    truth, eps, trials = report.truth, report.epsilon, report.trials
    estimates = payload["estimates"]
    if report.algorithm == "phase":
        deviations = [circphase.circ_diff(value, truth) for value in estimates]
    else:
        deviations = [value - truth for value in estimates]
    within = [abs(d) <= eps for d in deviations]
    if payload["empirical_success"] != sum(within) / trials:
        verdict.problems.append("empirical_success disagrees with the estimates")
    phase = report.algorithm == "phase"
    aborts = [phase and value == 0.0 for value in estimates]
    successes = sum(w and not a for w, a in zip(within, aborts))
    floor = success_floor(report)
    verdict.info.update(successes=successes, floor=floor)
    if binomial_cdf(successes, trials, floor) < ALPHA:
        verdict.problems.append(f"{successes}/{trials} successes fall below the floor {floor:.4f}")
    if phase:
        count = sum(aborts)
        verdict.info["aborts"] = count
        if count and 1.0 - binomial_cdf(count - 1, trials, report.delta) < ALPHA:
            verdict.problems.append(f"{count}/{trials} aborts exceed the failure budget")
    if report.algorithm == "type1":
        # type1 ignores delta; its guarantee is the floor above, not 1 - delta.
        verdict.info["delta_shortfall"] = (1.0 - report.delta) - successes / trials


def _check_run(report: Report, text: str, verdict: Verdict) -> None:
    payload = json.loads(text)
    config = payload.get("config", {})
    expected = {
        "algorithm": report.algorithm, "truth": report.truth, "epsilon": report.epsilon,
        "delta": report.delta, "beta": report.beta, "trials": report.trials,
        "master_seed": report.master_seed,
    }
    if payload.get("kind") != "trial_report" or any(config.get(k) != v for k, v in expected.items()):
        verdict.problems.append("report kind or configuration differs from the request")
        return
    sizes = {len(payload[key]) for key in ("estimates", "trial_depths", "trial_queries")}
    if sizes != {report.trials}:
        verdict.problems.append(f"report lists {sizes} trials, expected {report.trials}")
        return
    _check_ledger(report, payload, verdict)
    _check_successes(report, payload, verdict)


def _check_scale(report: Report, path: Path, text: str, verdict: Verdict) -> None:
    """Re-render the sweep from closed-form cells; the bytes must match."""
    root = ElementTree.fromstring(text.encode())
    circles = sum(1 for node in root.iter() if node.tag.endswith("circle"))
    if circles != report.counted_trials:
        verdict.problems.append(f"svg has {circles} depth markers, expected {report.counted_trials}")
        return
    rows = []
    for beta in report.beta_grid:
        for epsilon in report.epsilon_grid:
            cell = Report("cell", "run", "type1", report.truth, epsilon, report.delta, beta, 1, 0)
            depth, queries = trial_ledger(cell)
            rows.append(harness.ScalingCell(epsilon, beta, depth, queries))
    slopes = {}
    for beta in report.beta_grid:
        cells = [row for row in rows if row.beta == beta]
        log_eps = np.log(np.asarray([c.epsilon for c in cells]))
        depths = [c.max_depth for c in cells]
        queries = [c.total_queries for c in cells]
        products = [c.max_depth * c.total_queries for c in cells]
        slopes[beta] = {
            key: float(np.polyfit(log_eps, np.log(np.asarray(values)), 1)[0])
            for key, values in (("depth", depths), ("queries", queries), ("product", products))
        }
    expected_path = path.with_name(path.name + ".expected")
    harness.export_report(harness.ScalingStudy({}, rows, slopes), "svg", expected_path)
    if expected_path.read_text() != text:
        verdict.problems.append("svg differs from the closed-form sweep")


def check_report(report: Report, path: Path) -> Verdict:
    """Gate one exported report; an unreadable or malformed file fails it."""
    verdict = Verdict()
    try:
        text = Path(path).read_text()
        if report.command == "scale":
            _check_scale(report, Path(path), text, verdict)
        else:
            _check_run(report, text, verdict)
    except (OSError, ValueError, KeyError, TypeError, ElementTree.ParseError) as err:
        verdict.problems.append(f"report unreadable: {type(err).__name__}: {err}")
    return verdict
