"""End-to-end acceptance criteria.

Each test pins one criterion at its stated tolerance and prints a PASS line
once its assertions hold (visible with ``pytest -s`` or on failure).  Shared
experiment runs are produced once per session by fixtures; the determinism
criterion re-runs every configuration and byte-compares the report files.
"""

import math
import time

import numpy as np
import pytest

from lowdepth.aggregate import Type1Plan, aggregate_type1, bias_variance_floor
from lowdepth.blackbox import monkey_sample
from lowdepth.circphase import Angle, circ_diff
from lowdepth.core import Amplitude, ResourceLedger, SeedSpec, TWO_PI, TargetSpec
from lowdepth.harness import ExperimentConfig, run_experiment, scaling_study, export_report
from lowdepth.oracle import PolyOracle
from lowdepth.rallfuller import (
    BRANCH_FULL_DEPTH,
    full_depth_gap_envelope,
    kappa,
    phase_threshold,
    rall_fuller_estimate,
)
from lowdepth import blackbox

MASTER_SEED = 20240601


def _report(tmp_path_factory, config_kwargs, name):
    directory = tmp_path_factory.mktemp(name)
    started = time.perf_counter()
    report = run_experiment(ExperimentConfig(**config_kwargs))
    elapsed = time.perf_counter() - started
    return report, export_report(report, "json", directory / "report.json"), elapsed


@pytest.fixture(scope="session")
def type1_runs(tmp_path_factory):
    runs = {}
    for beta in (0.0, 0.5, 1.0):
        kwargs = dict(
            algorithm="type1",
            truth=0.3,
            target=TargetSpec(0.05, 0.05, beta),
            trials=2000,
            master_seed=MASTER_SEED,
        )
        runs[beta] = (_report(tmp_path_factory, kwargs, f"type1_beta{int(beta*10)}"), kwargs)
    return runs


@pytest.fixture(scope="session")
def type2_run(tmp_path_factory):
    kwargs = dict(
        algorithm="type2",
        truth=0.3,
        target=TargetSpec(0.02, 0.1, 0.5),
        trials=2000,
        master_seed=MASTER_SEED,
    )
    return _report(tmp_path_factory, kwargs, "type2"), kwargs


@pytest.fixture(scope="session")
def rallfuller_run(tmp_path_factory):
    kwargs = dict(
        algorithm="rallfuller",
        truth=0.3,
        target=TargetSpec(0.01, 0.05, 0.5),
        trials=200,
        master_seed=MASTER_SEED,
    )
    return _report(tmp_path_factory, kwargs, "rallfuller"), kwargs


@pytest.fixture(scope="session")
def phase_run(tmp_path_factory):
    kwargs = dict(
        algorithm="phase",
        truth=0.02,
        target=TargetSpec(0.01, 0.1, 0.5),
        trials=1000,
        master_seed=MASTER_SEED,
    )
    return _report(tmp_path_factory, kwargs, "phase"), kwargs


@pytest.fixture(scope="session")
def scaling_run(tmp_path_factory):
    sweep = dict(algorithm="type1", truth=0.3, delta=0.1, epsilon_grid=[0.1, 0.05, 0.02, 0.01],
                 beta_grid=[0.0, 0.25, 0.5, 0.75, 1.0], master_seed=MASTER_SEED)
    directory = tmp_path_factory.mktemp("scaling")
    started = time.perf_counter()
    study = scaling_study(**sweep)
    elapsed = time.perf_counter() - started
    path = export_report(study, "json", directory / "study.json")
    return study, path, elapsed, sweep


def test_criterion_1_bias_variance_success_floor(type1_runs):
    """Mean aggregation of a worst-bias two-point box clears its floor."""
    floor = bias_variance_floor(0.05, 100.0 / 225.0).success_floor
    assert floor == pytest.approx(0.5076, abs=2e-4)
    for beta, ((report, _, elapsed), _kwargs) in sorted(type1_runs.items()):
        assert report.empirical_success >= 0.5, f"beta={beta}"
        assert elapsed < 60.0, f"beta={beta} took {elapsed:.1f}s"
    print(
        "ACCEPTANCE 1 PASS: worst-bias aggregation success >= 0.5 for beta in {0, 0.5, 1} "
        f"(floor ~ {floor:.4f}; observed "
        + ", ".join(
            f"beta={beta:g}: {run[0][0].empirical_success:.3f}"
            for beta, run in sorted(type1_runs.items())
        )
        + ")"
    )


def test_criterion_2_precision_failure_guarantee(type2_run):
    """Failure rate of the precision/failure aggregate stays within budget."""
    (report, _, elapsed), _kwargs = type2_run
    failure = 1.0 - report.empirical_success
    budget = 0.1 + 3 * math.sqrt(0.1 * 0.9 / 2000)
    assert failure <= budget
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 2 PASS: maximal-bias/tail aggregate failure {failure:.4f} "
        f"<= {budget:.4f} ({elapsed:.1f}s)"
    )


def test_criterion_3_monkey_falsification():
    """Aggregating the constant adversarial estimator keeps bias = epsilon."""
    truth = Amplitude(0.3)
    epsilon = 0.05

    def monkey(_stage, _contract, _rng, _ledger, size):
        return np.full(size, monkey_sample(truth, epsilon))

    observed = []
    for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
        plan = Type1Plan.from_target(TargetSpec(epsilon, 0.1, beta))
        value = aggregate_type1(
            monkey, plan, seed=SeedSpec(MASTER_SEED, 1), ledger=ResourceLedger()
        )
        assert abs(abs(value - truth.value) - epsilon) <= 1e-15, f"runs={plan.runs}"
        observed.append(plan.runs)
    print(
        "ACCEPTANCE 3 PASS: |mean - truth| = epsilon to machine precision for run counts "
        f"{observed}"
    )


def test_criterion_4_depth_query_scaling(scaling_run):
    """Fitted log-log slopes match the depth/query/product scaling laws."""
    study, _, elapsed, _ = scaling_run
    assert elapsed < 300.0
    assert not study.partial
    for beta, fits in sorted(study.slopes.items()):
        assert abs(fits["depth"] - (-(1 - beta))) <= 0.15, (beta, fits)
        assert abs(fits["queries"] - (-(1 + beta))) <= 0.2, (beta, fits)
        assert abs(fits["product"] - (-2.0)) <= 0.2, (beta, fits)
    print(
        "ACCEPTANCE 4 PASS: slopes within tolerance; "
        + "; ".join(
            f"beta={beta:g}: D {fits['depth']:+.2f} N {fits['queries']:+.2f} "
            f"DN {fits['product']:+.2f}"
            for beta, fits in sorted(study.slopes.items())
        )
        + f" ({elapsed:.1f}s)"
    )


def test_criterion_5_gap_and_placement_constants():
    """Full-depth gap endpoints and erf placement constants match references."""
    envelope = full_depth_gap_envelope()
    assert envelope.left_upper == pytest.approx(0.472, abs=0.002)
    assert envelope.right_lower == pytest.approx(0.70541, abs=0.002)
    assert kappa(0.01) == pytest.approx(2.1, abs=0.05)
    assert 0.004 * kappa(0.004) == pytest.approx(0.0092, abs=0.0005)
    print(
        f"ACCEPTANCE 5 PASS: left {envelope.left_upper:.5f} ~ 0.472, "
        f"right {envelope.right_lower:.5f} ~ 0.70541, kappa(0.01) = {kappa(0.01):.4f}, "
        f"u(0.004) = {0.004 * kappa(0.004):.5f}"
    )


def test_criterion_6_interval_shrinking_end_to_end(rallfuller_run):
    """Interval-shrinking estimation meets its success bound; 0.9 shrink exact."""
    (report, _, elapsed), kwargs = rallfuller_run
    floor = 0.95 - 3 * math.sqrt(0.05 * 0.95 / 200)
    assert report.empirical_success >= floor
    assert elapsed < 600.0
    # exact shrink verified on a traced run of the same configuration
    trace = []
    rall_fuller_estimate(
        lambda poly: PolyOracle(poly, Amplitude(0.3)),
        kwargs["target"],
        seed=SeedSpec(MASTER_SEED, 99),
        ledger=ResourceLedger(),
        trace=trace,
    )
    assert len(trace) == 44
    for before, after in zip(trace, trace[1:]):
        assert after.width == 0.9 * before.width
    print(
        f"ACCEPTANCE 6 PASS: success {report.empirical_success:.3f} >= {floor:.3f} "
        f"over 200 trials; width factor exactly 0.9 for all 44 steps ({elapsed:.1f}s)"
    )


def test_criterion_7_shallow_phase_bottleneck():
    """Thresholds for entering the shallow phase, and a run that never does."""
    assert phase_threshold(0.1, 0.5).epsilon_threshold == pytest.approx(0.01, rel=1e-9)
    assert phase_threshold(0.1, 0.75).epsilon_threshold == pytest.approx(1e-4, rel=1e-9)
    # coarse target, small truth, shallow hardware: every step stays full depth
    target = TargetSpec(0.05, 0.05, 0.75)
    branches = set()
    for index in range(3):
        trace = []
        rall_fuller_estimate(
            lambda poly: PolyOracle(poly, Amplitude(0.1)),
            target,
            seed=SeedSpec(MASTER_SEED, 200 + index),
            ledger=ResourceLedger(),
            trace=trace,
        )
        branches.update(record.branch for record in trace)
    assert branches == {BRANCH_FULL_DEPTH}
    print(
        "ACCEPTANCE 7 PASS: thresholds 0.01 / 1e-4 reproduced; run at truth 0.1, "
        "beta 0.75, epsilon 0.05 never left the full-depth branch"
    )


def test_criterion_8_circular_phase_estimation(phase_run):
    """Wrap-adjacent phase estimation stays within its failure budget, and the
    circular-arithmetic grid suites hold exhaustively."""
    (report, _, elapsed), _kwargs = phase_run
    failure = 1.0 - report.empirical_success
    budget = 0.1 + 3 * math.sqrt(0.1 * 0.9 / 1000)
    assert failure <= budget
    # exhaustive minimality of the circular difference on the full
    # 360 x 360 one-degree grid
    for i in range(360):
        theta = math.radians(i)
        for j in range(360):
            phi = math.radians(j)
            best = min(abs(theta - phi + TWO_PI * k) for k in (-1, 0, 1))
            assert abs(abs(circ_diff(theta, phi)) - best) <= 1e-12
    # the estimator's centred form round trips across random arcs: an angle
    # is its arc's centre plus its circular offset from that centre
    rng = SeedSpec(MASTER_SEED, 300).rng()
    for _ in range(1000):
        start = float(rng.uniform(0, TWO_PI))
        length = float(rng.uniform(1e-3, math.pi - 1e-6))
        centre = start + length / 2
        theta = Angle(start + float(rng.uniform(0, length)))
        assert abs(circ_diff(Angle(centre + circ_diff(theta, centre)), theta)) <= 1e-12
    print(
        f"ACCEPTANCE 8 PASS: wrap-adjacent failure {failure:.4f} <= {budget:.4f} "
        f"({elapsed:.1f}s); circular grid suites exhaustively green"
    )


def test_criterion_9_parameter_calculator_algebra():
    """Inequality chains of all three estimator parameter maps hold on a grid."""
    checked = 0
    for epsilon in (0.1, 0.03, 0.01):
        for delta in (0.3, 0.1, 0.01):
            for beta in (0.0, 0.25, 0.5, 0.75, 1.0):
                target = TargetSpec(epsilon, delta, beta)
                spread = epsilon ** (2 - 2 * beta)

                amp = blackbox.cornelissen_amp_params(target)
                assert amp.bias_bound <= 0.05 * epsilon * (1 + 1e-12)
                assert 91.0 / amp.depth_scale**2 == pytest.approx(
                    (91.0 / 225.0) * spread, rel=1e-9
                )
                assert 91.0 / amp.depth_scale**2 + amp.bias_bound <= (
                    amp.implied_variance_bound * (1 + 1e-9)
                )

                phase = blackbox.cornelissen_phase_params(target)
                assert phase.bias_bound <= 0.05 * epsilon * (1 + 1e-12)
                assert 1.0 / phase.depth_scale**2 + phase.bias_bound <= (
                    (4.0 / 9.0) * spread * (1 + 1e-9)
                )

                register = blackbox.apeldoorn_phase_params(target)
                log_term = math.log(4.0 / delta)
                rhs = epsilon**2 * delta / (64.0 * log_term)
                assert math.exp(-register.m / 4.0) == pytest.approx(rhs, rel=1e-6)
                assert math.pi * (register.m + 1) * 2.0**-register.n_real == pytest.approx(
                    rhs / 2.0, rel=1e-6
                )
                assert (10.0 / register.depth_scale_real) * (
                    1 + 2.0**-register.n_real
                ) == pytest.approx(epsilon ** (1 - beta), rel=1e-6)
                assert math.pi * (register.m + 1) * 2.0**-register.n <= rhs / 2.0
                assert 32.0 * math.pi * (register.m + 1) * 2.0**-register.n <= (
                    delta / (4.0 * log_term) * epsilon**2
                )
                assert register.n >= math.log2(math.pi * register.m)
                checked += 1
    print(f"ACCEPTANCE 9 PASS: parameter algebra holds at all {checked} grid points")


def test_criterion_10_byte_identical_reruns(
    tmp_path_factory, type1_runs, type2_run, rallfuller_run, phase_run, scaling_run
):
    """Re-running every criterion's configuration reproduces identical bytes."""
    compared = 0
    for beta, ((_, path, _), kwargs) in sorted(type1_runs.items()):
        _, rerun_path, _ = _report(tmp_path_factory, kwargs, f"rerun_t1_{int(beta*10)}")
        assert rerun_path.read_bytes() == path.read_bytes(), f"type1 beta={beta}"
        compared += 1
    for name, ((_, path, _), kwargs) in (
        ("type2", type2_run),
        ("rallfuller", rallfuller_run),
        ("phase", phase_run),
    ):
        _, rerun_path, _ = _report(tmp_path_factory, kwargs, f"rerun_{name}")
        assert rerun_path.read_bytes() == path.read_bytes(), name
        compared += 1
    study, path, _, sweep = scaling_run
    rerun = scaling_study(**sweep)
    rerun_path = export_report(
        rerun, "json", tmp_path_factory.mktemp("rerun_scaling") / "study.json"
    )
    assert rerun_path.read_bytes() == path.read_bytes()
    compared += 1
    print(f"ACCEPTANCE 10 PASS: {compared} report files byte-identical across re-runs")
