import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest

from lowdepth import aggregate, circphase
from lowdepth.circphase import circ_diff
from lowdepth.cli import main
from lowdepth.core import SeedSpec, TargetSpec, derive_stream
from lowdepth.harness import (
    ALGORITHMS,
    AlgorithmError,
    ConfigError,
    ExperimentConfig,
    TrialReport,
    export_report,
    run_experiment,
    scaling_study,
)


# Each estimator constant and the ``run`` flag that sets it.
CONSTANT_FLAGS = {
    "r": "--r",
    "s": "--s",
    "C": "--cap-C",
    "bias_scale": "--bias-scale",
    "tail_magnitude": "--tail-magnitude",
}

# The constants each algorithm reads; it must reject every other one.
READS = {
    "type1": {"r", "s", "bias_scale"},
    "type2": {"r", "s", "C", "bias_scale", "tail_magnitude"},
    "phase": {"r", "s", "bias_scale", "tail_magnitude"},
    "rallfuller": set(),
    "monkey-demo": set(),
}


def quick_config(**overrides):
    base = dict(
        algorithm="type1",
        truth=0.3,
        target=TargetSpec(0.05, 0.1, 0.5),
        trials=50,
        master_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            quick_config(algorithm="quantum-leap")

    def test_truth_domain_checked(self):
        with pytest.raises(ConfigError):
            quick_config(truth=1.5)
        with pytest.raises(ConfigError):
            quick_config(algorithm="phase", truth=7.0)
        quick_config(algorithm="phase", truth=6.2)  # inside [0, 2 pi)

    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            quick_config(trials=0)

    def test_unknown_constants_rejected(self):
        with pytest.raises(ConfigError):
            quick_config(constants={"mystery": 1.0})

    @pytest.mark.parametrize("algorithm", sorted(READS))
    def test_constants_an_algorithm_does_not_read_are_rejected(self, algorithm, capsys):
        assert set(ALGORITHMS[algorithm].constants) == READS[algorithm]
        provenance = quick_config(algorithm=algorithm).provenance()
        assert provenance["constants"] == ALGORITHMS[algorithm].constants
        for name in sorted(set(CONSTANT_FLAGS) - READS[algorithm]):
            with pytest.raises(ConfigError, match="does not read"):
                quick_config(algorithm=algorithm, constants={name: 0.1})
            argv = ["run", "--algorithm", algorithm, "--truth", "0.3", "--trials", "1"]
            assert main(argv + [CONSTANT_FLAGS[name], "0.1"]) == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "algorithm, name",
        [(algorithm, name) for algorithm, record in ALGORITHMS.items() for name in record.constants],
    )
    def test_non_finite_constants_exit_two(self, algorithm, name, value, capsys):
        with pytest.raises(ConfigError, match="must be finite"):
            quick_config(algorithm=algorithm, constants={name: value})
        argv = ["run", "--algorithm", algorithm, "--truth", "0.3", "--trials", "1"]
        assert main(argv + [f"{CONSTANT_FLAGS[name]}={value}"]) == 2

    @pytest.mark.parametrize("algorithm", ["type1", "type2", "phase"])
    def test_bias_scale_beyond_one_rejected(self, algorithm):
        for value in (-1.0, 1.0):
            quick_config(algorithm=algorithm, constants={"bias_scale": value})
        for value in (-1.5, 2.0):
            with pytest.raises(ConfigError, match="bias_scale"):
                quick_config(algorithm=algorithm, constants={"bias_scale": value})

    def test_provenance_includes_defaults(self):
        provenance = quick_config().provenance()
        assert provenance["constants"]["r"] == 0.05
        assert provenance["constants"]["s"] == pytest.approx(100 / 225)
        assert "grid_points_per_unit" not in provenance["tolerances"]


class TestRunExperiment:
    def test_monkey_demo_bias_exact_and_zero_variance(self):
        report = run_experiment(
            quick_config(algorithm="monkey-demo", truth=0.5, trials=20)
        )
        assert abs(report.empirical_bias - 0.05) <= 1e-15
        assert report.empirical_variance == 0.0
        assert report.empirical_success == 1.0  # offset sits exactly at epsilon

    def test_type1_success_above_half(self):
        report = run_experiment(quick_config(trials=300))
        assert report.empirical_success >= 0.5
        assert report.max_depth == max(report.trial_depths)
        assert report.total_queries == sum(report.trial_queries)

    def test_wall_time_measured_but_not_compared(self):
        report = run_experiment(quick_config(trials=5))
        assert report.wall_time is not None and report.wall_time > 0
        clone = TrialReport(
            config=report.config,
            estimates=report.estimates,
            empirical_success=report.empirical_success,
            empirical_bias=report.empirical_bias,
            empirical_variance=report.empirical_variance,
            max_depth=report.max_depth,
            total_queries=report.total_queries,
            trial_depths=report.trial_depths,
            trial_queries=report.trial_queries,
            wall_time=None,
        )
        assert clone == report

    def test_deterministic_reports(self):
        first = run_experiment(quick_config(trials=40))
        second = run_experiment(quick_config(trials=40))
        assert first == second

    def test_parallel_matches_serial(self):
        serial = run_experiment(quick_config(trials=24))
        parallel = run_experiment(quick_config(trials=24, parallel=True))
        assert serial == parallel

    def test_inner_error_carries_trial_index(self):
        # a tail this far out passes configuration but breaks the sampler's cap
        config = quick_config(algorithm="type2", constants={"tail_magnitude": 0.9}, trials=3)
        with pytest.raises(AlgorithmError) as info:
            run_experiment(config)
        assert "trial 0" in str(info.value)

    def test_phase_reads_tail_magnitude(self):
        # a tail offset above pi breaks the phase sampler's circular contract
        config = quick_config(
            algorithm="phase", truth=1.0, constants={"tail_magnitude": 4.0}, trials=1
        )
        with pytest.raises(AlgorithmError, match="offsets must stay below pi"):
            run_experiment(config)

    def test_byte_identical_report_files(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            run_experiment(quick_config(trials=25, output_path=str(path)))
        assert paths[0].read_bytes() == paths[1].read_bytes()


def record_generators(monkeypatch) -> list:
    """Record the stream of every generator built through ``SeedSpec.rng``."""
    built = []
    build = SeedSpec.rng

    def rng(self):
        built.append(self)
        return build(self)

    monkeypatch.setattr(SeedSpec, "rng", rng)
    return built


def trial_generator_streams(master_seed: int, count: int) -> list:
    root = SeedSpec(master_seed, 0)
    return [derive_stream(derive_stream(root, index), 0) for index in range(count)]


class TestOneGeneratorPerTrial:
    """Each trial and each scaling cell builds exactly one generator, on
    ``derive_stream(trial_seed, 0)``, however many stages or steps draw from it."""

    @pytest.mark.parametrize(
        "algorithm, truth",
        [("type1", 0.3), ("type2", 0.3), ("phase", 1.0), ("rallfuller", 0.4), ("monkey-demo", 0.5)],
    )
    def test_run_experiment(self, algorithm, truth, monkeypatch):
        built = record_generators(monkeypatch)
        run_experiment(quick_config(algorithm=algorithm, truth=truth, trials=3))
        assert built == trial_generator_streams(123, 3)

    @pytest.mark.parametrize("algorithm", ["type1", "rallfuller"])
    def test_scaling_study(self, algorithm, monkeypatch):
        built = record_generators(monkeypatch)
        base = ExperimentConfig(algorithm, 0.4, TargetSpec(0.05, 0.1, 0.5), master_seed=5)
        study = scaling_study(base, [0.1, 0.05], [0.5, 1.0])
        assert len(study.rows) == 4
        assert built == trial_generator_streams(5, 4)


def record_plan_builds(monkeypatch) -> list:
    """Record the target of every plan built through a ``from_target``."""
    built = []
    for plan_class in (aggregate.Type1Plan, aggregate.Type2Plan, circphase.PhasePlan):

        def from_target(target, *args, _build=plan_class.from_target):
            built.append(target)
            return _build(target, *args)

        monkeypatch.setattr(plan_class, "from_target", from_target)
    return built


class TestOnePlanPerRun:
    """``run_experiment`` builds its plan once, before any trial, and a
    scaling study one per cell, at that cell's target."""

    @pytest.mark.parametrize(
        "algorithm, truth", [("type1", 0.3), ("type2", 0.3), ("phase", 1.0), ("monkey-demo", 0.5)]
    )
    @pytest.mark.parametrize("trials", [1, 6])
    def test_run_experiment(self, algorithm, truth, trials, monkeypatch):
        built = record_plan_builds(monkeypatch)
        config = quick_config(algorithm=algorithm, truth=truth, trials=trials)
        run_experiment(config)
        assert built == [config.target]

    def test_scaling_study(self, monkeypatch):
        built = record_plan_builds(monkeypatch)
        base = ExperimentConfig("phase", 1.0, TargetSpec(0.05, 0.1, 0.5), master_seed=5)
        study = scaling_study(base, [0.1, 0.05], [0.5, 1.0])
        assert len(study.rows) == 4
        assert [(target.epsilon, target.beta) for target in built] == [
            (0.1, 0.5), (0.05, 0.5), (0.1, 1.0), (0.05, 1.0)
        ]


class TestHardwareWorkflow:
    def test_output_cap_above_one(self):
        config = quick_config(
            algorithm="type2",
            target=TargetSpec(0.05, 0.2, 0.5),
            constants={"C": 2.0},
            trials=40,
        )
        report = run_experiment(config)
        assert 1.0 - report.empirical_success <= 0.2 + 3 * (0.2 * 0.8 / 40) ** 0.5


class TestExport:
    def test_empty_report_gives_header_only_csv(self, tmp_path):
        report = TrialReport(
            config={"algorithm": "type1", "truth": 0.3},
            estimates=[],
            empirical_success=0.0,
            empirical_bias=0.0,
            empirical_variance=0.0,
            max_depth=0,
            total_queries=0,
            trial_depths=[],
            trial_queries=[],
        )
        path = export_report(report, "csv", tmp_path / "empty.csv")
        assert path.read_text() == "trial_index,estimate,abs_error,max_depth,total_queries\n"

    def test_csv_columns(self, tmp_path):
        report = run_experiment(quick_config(trials=4))
        path = export_report(report, "csv", tmp_path / "r.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "trial_index,estimate,abs_error,max_depth,total_queries"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert abs(float(first[1]) - 0.3) < 0.2

    def test_phase_csv_error_is_circular(self, tmp_path):
        # at truth 6.28 estimates land on both sides of the wrap at 0
        truth, epsilon = 6.28, 0.05
        report = run_experiment(
            quick_config(algorithm="phase", truth=truth, target=TargetSpec(epsilon, 0.1, 0.5),
                         trials=20, master_seed=7)
        )
        path = export_report(report, "csv", tmp_path / "phase.csv")
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        estimates = [float(row[1]) for row in rows]
        errors = [float(row[2]) for row in rows]
        assert min(estimates) < math.pi < max(estimates)
        assert errors == [abs(circ_diff(estimate, truth)) for estimate in estimates]
        assert max(errors) <= math.pi
        successes = sum(error <= epsilon for error in errors)
        assert successes == round(report.empirical_success * report.config["trials"])

    def test_json_round_trip(self, tmp_path):
        # the export carries every report field except the wall time
        report = run_experiment(quick_config(trials=12))
        path = export_report(report, "json", tmp_path / "r.json")
        expected = {f.name: getattr(report, f.name) for f in fields(report)}
        expected.pop("wall_time")
        assert json.loads(path.read_text()) == {**expected, "kind": "trial_report"}

    def test_svg_rejected_for_trial_reports(self, tmp_path):
        report = run_experiment(quick_config(trials=2))
        with pytest.raises(ConfigError):
            export_report(report, "svg", tmp_path / "r.svg")

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(quick_config(trials=2))
        with pytest.raises(ConfigError):
            export_report(report, "yaml", tmp_path / "r.yaml")

    def test_unwritable_path_reports_config_error(self, tmp_path):
        report = run_experiment(quick_config(trials=2))
        with pytest.raises(ConfigError):
            export_report(report, "json", tmp_path / "missing" / "r.json")


@pytest.fixture(scope="module")
def study():
    base = ExperimentConfig(
        "type1", 0.3, TargetSpec(0.05, 0.1, 0.5), trials=1, master_seed=5
    )
    return scaling_study(base, [0.1, 0.05, 0.02, 0.01], [0.0, 0.5, 1.0])


class TestScalingStudy:
    def test_rows_cover_grid(self, study):
        assert len(study.rows) == 12
        assert not study.partial

    def test_slopes_in_expected_ranges(self, study):
        assert abs(study.slopes[0.0]["depth"] - (-1.0)) <= 0.15
        assert abs(study.slopes[1.0]["depth"] - 0.0) <= 0.15
        assert abs(study.slopes[0.5]["queries"] - (-1.5)) <= 0.2
        for beta in (0.0, 0.5, 1.0):
            assert abs(study.slopes[beta]["product"] - (-2.0)) <= 0.2

    def test_partial_table_flagged(self):
        # at truth 0.9 the beta=1 cells' good branch exceeds the
        # output cap only when sampled, so those cells fail while running
        base = ExperimentConfig("type2", 0.9, TargetSpec(0.05, 0.1, 0.5), master_seed=3)
        study = scaling_study(base, [0.1, 0.01], [0.0, 1.0])
        assert study.partial
        cell_errors = [error for error in study.errors if "epsilon" in error]
        assert cell_errors and len(study.rows) + len(cell_errors) == 4
        ran = {(row.epsilon, row.beta) for row in study.rows}
        for error in cell_errors:
            assert (error["epsilon"], error["beta"]) not in ran
            assert error["error"] == "good branch would exceed the output cap"

    def test_plan_that_can_never_run_rejected_before_any_cell(self, monkeypatch):
        built = record_generators(monkeypatch)
        base = ExperimentConfig("phase", 1.0, TargetSpec(0.05, 0.1, 0.5), master_seed=5)
        with pytest.raises(ConfigError, match="pi/8"):
            scaling_study(base, [0.4, 0.1], [0.5])
        assert built == []

    def test_zero_ledgers_reported_instead_of_fitted(self):
        # monkey-demo charges nothing, so no log-log slope exists to fit
        base = ExperimentConfig(
            "monkey-demo", 0.3, TargetSpec(0.05, 0.1, 0.5), trials=1, master_seed=5
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = scaling_study(base, [0.1, 0.05, 0.02, 0.01], [0.0, 1.0])
        assert len(study.rows) == 8
        assert study.slopes == {}
        assert [error["beta"] for error in study.errors] == [0.0, 1.0]

    def test_exports(self, study, tmp_path):
        csv_path = export_report(study, "csv", tmp_path / "s.csv")
        assert csv_path.read_text().splitlines()[0] == (
            "epsilon,beta,max_depth,total_queries,depth_query_product"
        )
        json_path = export_report(study, "json", tmp_path / "s.json")
        payload = json.loads(json_path.read_text())
        assert payload["kind"] == "scaling_study"
        assert len(payload["rows"]) == 12
        svg_path = export_report(study, "svg", tmp_path / "s.svg")
        root = ET.fromstring(svg_path.read_text())  # well-formed XML
        assert root.tag.endswith("svg")

    def test_svg_deterministic(self, study, tmp_path):
        a = export_report(study, "svg", tmp_path / "a.svg").read_bytes()
        b = export_report(study, "svg", tmp_path / "b.svg").read_bytes()
        assert a == b

    def test_empty_grid_rejected(self):
        base = quick_config(trials=1)
        with pytest.raises(ConfigError):
            scaling_study(base, [], [0.5])


class TestCli:
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "cli.json"
        code = main(
            [
                "run",
                "--algorithm", "type1",
                "--truth", "0.3",
                "--epsilon", "0.05",
                "--delta", "0.1",
                "--beta", "0.5",
                "--trials", "20",
                "--seed", "9",
                "--out", str(out),
                "--format", "json",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "success=" in capsys.readouterr().out

    def test_run_accepts_config_file(self, tmp_path, capsys):
        config_file = tmp_path / "exp.cfg"
        config_file.write_text(
            "algorithm = type1\ntruth = 0.3\nepsilon = 0.05\n"
            "delta = 0.1\nbeta = 0.5\ntrials = 10\nseed = 4\n"
        )
        assert main(["run", "--config", str(config_file)]) == 0

    def test_cli_import_leaves_scipy_unloaded(self):
        root = Path(__file__).resolve().parents[1]
        code = "import lowdepth.cli, sys; sys.exit('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        assert subprocess.run([sys.executable, "-c", code], env=env, cwd=root).returncode == 0

    @pytest.mark.parametrize(
        "module",
        ["numpy.random", "csv", "concurrent.futures.process", "multiprocessing", "numpy.polynomial"],
    )
    def test_cli_import_leaves_numpy_random_unloaded(self, module):
        # numpy loads numpy.random on first use; importing the CLI must not
        # move that cost out of the first draw and into start-up; no report
        # writer uses csv; only --parallel needs the process pool, and the
        # Chebyshev nodes are computed without numpy.polynomial
        root = Path(__file__).resolve().parents[1]
        code = f"import lowdepth.cli, sys; sys.exit({module!r} in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        assert subprocess.run([sys.executable, "-c", code], env=env, cwd=root).returncode == 0

    def test_missing_required_flags_is_config_error(self, capsys):
        assert main(["run", "--epsilon", "0.05"]) == 2

    def test_config_file_typo_is_config_error(self, tmp_path, capsys):
        config_file = tmp_path / "typo.cfg"
        config_file.write_text("algorithm = type1\ntruth = 0.3\ntrails = 5\n")
        assert main(["run", "--config", str(config_file)]) == 2

    def test_config_file_parallel_must_be_a_listed_spelling(self, tmp_path, capsys):
        config_file = tmp_path / "parallel.cfg"
        for value, code in (("ture", 2), ("off", 0)):
            config_file.write_text(f"algorithm = type1\ntruth = 0.3\ntrials = 2\nparallel = {value}\n")
            assert main(["run", "--config", str(config_file)]) == code

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exits_two(self, seed, capsys):
        assert main(["run", "--algorithm", "type1", "--truth", "0.3", "--seed", seed]) == 2
        assert main(["scale", "--seed", seed]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_flag_value_exits_two(self, capsys):
        assert main(["run", "--algorithm", "bogus", "--truth", "0.3"]) == 2
        # a 0 is rejected, never replaced by a default
        assert main(["params", "--epsilon", "0"]) == 2
        assert main(["scale", "--delta", "0", "--epsilon-grid", "0.1", "--beta-grid", "0"]) == 2
        assert main(["selfcheck"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--algorithm", "type1", "--truth", "0.3", "--bias-scale", "2"],
            ["--algorithm", "type2", "--truth", "0.3", "--r", "0.7", "--s", "0.4"],
            ["--algorithm", "type1", "--truth", "0.3", "--s", "0.5"],
            ["--algorithm", "phase", "--truth", "1.0", "--r", "0.6", "--s", "0.5"],
            ["--algorithm", "type2", "--truth", "0.3", "--cap-C", "0.5"],
            ["--algorithm", "phase", "--truth", "1.0", "--epsilon", "0.5"],
        ],
        ids=[
            "bias-scale", "type2-fractions", "type1-floor", "phase-fractions", "type2-cap",
            "phase-epsilon",
        ],
    )
    def test_input_that_can_never_run_exits_two_before_any_trial(self, flags, capsys):
        assert main(["run", *flags]) == 2
        error = capsys.readouterr().err
        assert "configuration error" in error and "trial" not in error

    def test_params_that_can_never_run_exits_two(self, capsys):
        assert main(["params", "--r", "0.7", "--s", "0.4"]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("cap", ["nan", "inf"])
    def test_params_non_finite_cap_exits_two(self, cap, capsys):
        assert main(["params", "--cap-C", cap]) == 2
        captured = capsys.readouterr()
        assert "output_cap must be finite" in captured.err and captured.out == ""

    def test_params_prints_why_phase_cannot_run(self, capsys):
        assert main(["params", "--epsilon", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "circular phase plan:   cannot run: target precision must stay below pi/8" in output
        assert "precision/failure plan" in output

    def test_scale_constants_that_can_never_run_exit_two_before_any_cell(
        self, tmp_path, monkeypatch, capsys
    ):
        built = record_generators(monkeypatch)
        out = tmp_path / "scale.json"
        argv = ["scale", "--algorithm", "type2", "--r", "0.7", "--s", "0.4", "--out", str(out)]
        assert main(argv) == 2
        assert "configuration error" in capsys.readouterr().err
        assert built == [] and not out.exists()

    @pytest.mark.parametrize(
        "algorithm, truth, failed, unfitted",
        [("type2", "0.9", 13, 3), ("monkey-demo", "0.3", 0, 5)],
    )
    def test_scale_counts_failed_cells_apart_from_fit_gaps(
        self, algorithm, truth, failed, unfitted, capsys
    ):
        # the default grid has 20 cells over 5 betas
        assert main(["scale", "--algorithm", algorithm, "--truth", truth, "--seed", "3"]) == 0
        lines = capsys.readouterr().err.splitlines()
        partial = [line for line in lines if line.startswith("partial table")]
        assert partial == ([f"partial table: {failed} cell(s) failed"] if failed else [])
        assert len([line for line in lines if " no fit (" in line]) == unfitted

    def test_run_rejects_svg_before_any_trial(self, tmp_path, monkeypatch, capsys):
        built = record_generators(monkeypatch)
        out = tmp_path / "r.svg"
        argv = ["run", "--algorithm", "type1", "--truth", "0.3", "--trials", "3"]
        assert main(argv + ["--format", "svg", "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert built == [] and not out.exists()

    def test_scale_runs_cells_finer_than_a_base_epsilon_no_cell_uses(self, capsys):
        argv = ["scale", "--algorithm", "phase", "--truth", "1.0", "--epsilon", "0.5"]
        assert main(argv + ["--epsilon-grid", "0.1,0.05", "--beta-grid", "0.5"]) == 0
        assert "beta=0.5: depth slope" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "grid",
        [["--epsilon-grid", "0.1,1.5"], ["--beta-grid", "0.5,2"], ["--beta-grid", "-0.5"]],
        ids=["epsilon", "beta-above-one", "beta-negative"],
    )
    def test_scale_grid_point_out_of_range_exits_two_before_any_cell(
        self, grid, monkeypatch, capsys
    ):
        built = record_generators(monkeypatch)
        assert main(["scale", *grid]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize(
        "grid",
        [["--epsilon-grid", "0.1,0.1", "--beta-grid", "0.5"],
         ["--epsilon-grid", "0.1,0.05", "--beta-grid", "0.5,0,0.5"]],
        ids=["epsilon", "beta"],
    )
    def test_scale_repeated_grid_point_exits_two_before_any_cell(
        self, grid, monkeypatch, capsys
    ):
        # a repeated epsilon leaves one distinct log epsilon to fit a slope through
        built = record_generators(monkeypatch)
        assert main(["scale", *grid]) == 2
        captured = capsys.readouterr()
        assert "repeats a point" in captured.err
        assert captured.out == ""
        assert built == []

    def test_scale_svg_of_a_sweep_whose_every_cell_failed_exits_three(
        self, tmp_path, capsys
    ):
        # at truth 0.9 every beta=1 cell fails when sampled: an algorithm
        # error, not a configuration error, and no file is written
        out = tmp_path / "x.svg"
        argv = ["scale", "--algorithm", "type2", "--truth", "0.9", "--beta-grid", "1"]
        assert main([*argv, "--format", "svg", "--out", str(out)]) == 3
        assert "every cell of the sweep failed" in capsys.readouterr().err
        assert not out.exists()

    def test_inner_algorithm_error_exits_three(self, capsys):
        # the tail branch passes configuration but exceeds the output cap when sampled
        code = main(
            [
                "run",
                "--algorithm", "type2",
                "--truth", "0.3",
                "--tail-magnitude", "0.9",
                "--trials", "2",
            ]
        )
        assert code == 3

    def test_params_prints_settings(self, capsys):
        assert main(["params", "--epsilon", "0.01", "--delta", "0.1", "--beta", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "bias/variance plan" in output
        assert "runs=2952" in output
        assert "register phase estimator" in output
        assert main(["params", "--beta", "0"]) == 0
        assert "beta=0\n" in capsys.readouterr().out

    def test_scale_writes_svg(self, tmp_path, capsys):
        out = tmp_path / "scale.svg"
        code = main(
            [
                "scale",
                "--epsilon-grid", "0.1,0.05",
                "--beta-grid", "0,1",
                "--seed", "3",
                "--out", str(out),
                "--format", "svg",
            ]
        )
        assert code == 0
        ET.fromstring(out.read_text())

    def test_parallel_flag_accepted(self, tmp_path, capsys):
        out = tmp_path / "par.json"
        code = main(
            [
                "run",
                "--algorithm", "type1",
                "--truth", "0.3",
                "--trials", "8",
                "--seed", "11",
                "--parallel",
                "--out", str(out),
            ]
        )
        assert code == 0 and out.exists()

    def test_bad_scale_grid_exits_two(self, capsys):
        assert main(["scale", "--epsilon-grid", "2,3", "--beta-grid", "0"]) == 2
