import json
import math
import os
import pickle
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lowdepth import aggregate, blackbox, circphase, harness, rallfuller
from lowdepth.circphase import circ_diff
from lowdepth.cli import FLAGS, main
from lowdepth.core import (
    Amplitude,
    ResourceLedger,
    SeedSpec,
    TargetSpec,
    ceil_int,
    derive_stream,
    reduce_angle,
)
from lowdepth.oracle import PolyOracle
from lowdepth.harness import (
    ALGORITHMS,
    Algorithm,
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
        # a truth is a real number, a bool not among them; a numpy float is one
        for algorithm, truth in (("type1", True), ("phase", False), ("type1", "0.3"),
                                 ("type1", None)):
            with pytest.raises(ConfigError, match="truth must be a number"):
                quick_config(algorithm=algorithm, truth=truth)
        assert quick_config(truth=np.float64(0.3)).provenance()["truth"] == 0.3

    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            quick_config(trials=0)
        # trials and master_seed are integers, a bool not among them
        for field, value in (("trials", 2.5), ("trials", True), ("master_seed", 1.5),
                             ("master_seed", True)):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                quick_config(**{field: value})
        config = quick_config(trials=np.int64(2), master_seed=np.uint64(5))
        assert json.dumps(config.provenance())  # numpy integers are kept as ints

    @pytest.mark.parametrize(
        "field, value, message",
        [("target", (0.05, 0.1, 0.5), "target must be a TargetSpec"),
         ("constants", [("r", 0.1)], "constants must be a dict")],
        ids=["tuple-target", "list-constants"],
    )
    def test_fields_of_the_wrong_kind_rejected(self, field, value, message):
        # each once got past the config: a tuple target and listed constants
        # raised AttributeError later
        with pytest.raises(ConfigError, match=message):
            quick_config(**{field: value})

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

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, None, "0.1", True],
        ids=["nan", "inf", "-inf", "none", "text", "bool"],
    )
    @pytest.mark.parametrize(
        "algorithm, name",
        [(algorithm, name) for algorithm, record in ALGORITHMS.items() for name in record.constants],
    )
    def test_non_finite_constants_exit_two(self, algorithm, name, value, capsys):
        if value is None and ALGORITHMS[algorithm].constants[name] is None:
            # None is this constant's own default (type2's largest tail), so it is honoured
            config = quick_config(algorithm=algorithm, constants={name: None})
            assert config.resolved_constants() == ALGORITHMS[algorithm].constants
            return
        match = "must be finite" if isinstance(value, float) else "must be a number"
        with pytest.raises(ConfigError, match=f"constant {name} {match}"):
            quick_config(algorithm=algorithm, constants={name: value})
        if isinstance(value, float):  # the command line parses every constant as a float
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

    def test_deterministic_reports(self):
        first = run_experiment(quick_config(trials=40))
        second = run_experiment(quick_config(trials=40))
        assert first == second

    @pytest.mark.parametrize("truth", [0.999, 1.0])
    def test_type2_default_tail_past_the_cap_names_the_cap(self, truth):
        # the default tail is the largest the cap allows, floored at 0, so a
        # truth and bias past the cap fail on the cap, not on an unset flag
        config = quick_config(algorithm="type2", truth=truth, trials=2)
        with pytest.raises(AlgorithmError) as info:
            run_experiment(config)
        assert "output cap" in str(info.value) and "tail_magnitude" not in str(info.value)

    def test_draws_that_cannot_be_allocated_fail_their_trial(self, monkeypatch):
        # stands in for numpy refusing a stage's draws; never allocate them for real
        sample = blackbox.synth_uqae1_sample

        def refusing(amplitude, contract, *args, **kwargs):
            if contract.bias_bound < 0.001:  # the epsilon 0.01 cells' stages alone
                raise MemoryError("cannot allocate the runs")
            return sample(amplitude, contract, *args, **kwargs)

        monkeypatch.setattr(blackbox, "synth_uqae1_sample", refusing)
        with pytest.raises(AlgorithmError, match="^trial 0: cannot allocate the runs$"):
            run_experiment(quick_config(target=TargetSpec(0.01, 0.1, 0.5), trials=2))
        study = scaling_study("type1", 0.3, 0.1, [0.1, 0.05, 0.01], [0.5])
        assert [row.epsilon for row in study.rows] == [0.1, 0.05]
        assert study.errors[0] == {"epsilon": 0.01, "beta": 0.5, "error": "cannot allocate the runs"}

    def test_inner_error_carries_trial_index(self):
        # a tail this far out passes configuration but breaks the sampler's cap
        config = quick_config(algorithm="type2", constants={"tail_magnitude": 0.9}, trials=3)
        with pytest.raises(AlgorithmError) as info:
            run_experiment(config)
        assert "trial 0" in str(info.value)

    def test_phase_reads_tail_magnitude(self):
        # a tail offset above pi breaks the phase sampler's circular contract,
        # whatever the truth, so the plan rejects it before any trial
        config = quick_config(
            algorithm="phase", truth=1.0, constants={"tail_magnitude": 4.0}, trials=1
        )
        with pytest.raises(ConfigError, match="offsets must stay below pi"):
            run_experiment(config)

    @pytest.mark.parametrize("bias_scale", [1.0, -0.5, 0.0])
    @pytest.mark.parametrize("epsilon", [0.05, 0.01])
    def test_phase_tail_rejected_exactly_where_a_trial_would_raise(self, epsilon, bias_scale):
        # tails one ulp either side of pi - |bias_scale| * epsilon: a plan that
        # builds runs a trial, and a rejected tail breaks the sampler
        edge = math.pi - abs(bias_scale * epsilon)
        tails = {math.nextafter(edge, 0.0), edge, math.nextafter(edge, 4.0)}
        record = ALGORITHMS["phase"]
        target = TargetSpec(epsilon, 0.1, 0.5)
        for tail in sorted(tails):
            constants = {**record.constants, "bias_scale": bias_scale, "tail_magnitude": tail}
            fits = abs(bias_scale * epsilon) + tail <= math.pi
            batch = ([SeedSpec(1, 0)], [ResourceLedger()])
            try:
                plan = record.build_plan(target, constants)
            except ConfigError:
                assert not fits
                plan = circphase.PhasePlan.from_target(target)
                with pytest.raises(ValueError, match="offsets must stay below pi"):
                    list(record.trial(1.0, target, constants, plan, *batch))
            else:
                assert fits
                list(record.trial(1.0, target, constants, plan, *batch))

    @pytest.mark.parametrize("beta", [0.5, 0.9193637971580451])
    def test_phase_narrows_only_the_reference_stage(self, beta, monkeypatch):
        # at beta = 0.919..., the run precision 0.05^(1 - beta) is exactly the
        # reference precision pi/4; the main stage still gets its full spread
        target = TargetSpec(0.05, 0.1, beta)
        plan = circphase.PhasePlan.from_target(target)
        calls, sample = [], blackbox.synth_uqpe2_sample

        def spy(*args, good_spread=None, size, **kwargs):
            calls.append((size, good_spread))
            return sample(*args, good_spread=good_spread, size=size, **kwargs)

        monkeypatch.setattr(blackbox, "synth_uqpe2_sample", spy)
        run_experiment(quick_config(algorithm="phase", truth=1.0, target=target, trials=1))
        assert (plan.run_precision == circphase.REF_PRECISION) == (beta > 0.9)
        assert calls == [(1, pytest.approx(math.pi / 10 - 0.05)), (plan.runs, None)]

    def test_byte_identical_report_files(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            export_report(run_experiment(quick_config(trials=25)), "json", path)
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
        study = scaling_study(algorithm, 0.4, 0.1, [0.1, 0.05], [0.5, 1.0], master_seed=5)
        assert len(study.rows) == 4
        assert built == trial_generator_streams(5, 4)


def record_plan_builds(monkeypatch) -> list:
    """Record the target of every plan built through a ``from_target``."""
    built = []
    for plan_class in (aggregate.Type1Plan, aggregate.Type2Plan, circphase.PhasePlan,
                       rallfuller.RfPlan):

        def from_target(target, *args, _build=plan_class.from_target):
            built.append(target)
            return _build(target, *args)

        monkeypatch.setattr(plan_class, "from_target", from_target)
    return built


class TestOnePlanPerRun:
    """``run_experiment`` builds its plan once, before any trial, and a
    scaling study one per cell, at that cell's target."""

    @pytest.mark.parametrize(
        "algorithm, truth",
        [("type1", 0.3), ("type2", 0.3), ("phase", 1.0), ("rallfuller", 0.4), ("monkey-demo", 0.5)],
    )
    @pytest.mark.parametrize("trials", [1, 6])
    def test_run_experiment(self, algorithm, truth, trials, monkeypatch):
        built = record_plan_builds(monkeypatch)
        config = quick_config(algorithm=algorithm, truth=truth, trials=trials)
        run_experiment(config)
        assert built == [config.target]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_algorithm_has_a_plan(self, algorithm):
        assert "plan" not in Algorithm._field_defaults
        # the CLI's default target
        assert ALGORITHMS[algorithm].build_plan(TargetSpec(0.05, 0.05, 0.5), {}) is not None

    def test_scaling_study(self, monkeypatch):
        built = record_plan_builds(monkeypatch)
        study = scaling_study("phase", 1.0, 0.1, [0.1, 0.05], [0.5, 1.0], master_seed=5)
        assert len(study.rows) == 4
        assert [(target.epsilon, target.beta) for target in built] == [
            (0.1, 0.5), (0.05, 0.5), (0.1, 1.0), (0.05, 1.0)
        ]


# The cost model each synthetic algorithm's sampler charges; monkey-demo charges nothing.
STAGE_COSTS = {"type1": blackbox.UQAE1_COST, "type2": blackbox.UQAE2_COST,
               "phase": blackbox.UQPE2_COST, "monkey-demo": None}


class TestStageLedger:
    """Each synthetic trial's ledger is a closed form of its plan's stages:
    the deepest stage's depth, and runs x max(depth, queries) summed over the
    stages, with (depth, queries) from the cost model's own functions."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        algorithm=st.sampled_from(list(STAGE_COSTS)), truth_fraction=st.floats(0.0, 0.999),
        epsilon=st.floats(0.05, 0.3), delta=st.floats(0.01, 0.5), beta=st.floats(0.0, 1.0),
        r=st.floats(0.05, 0.45), s=st.floats(0.05, 0.45), C=st.floats(1.0, 2.0),
        bias_scale=st.floats(-1.0, 1.0), tail=st.floats(0.0, 1.0) | st.none(),
    )
    def test_trial_ledger_is_the_stage_closed_form(
        self, algorithm, truth_fraction, epsilon, delta, beta, r, s, C, bias_scale, tail
    ):
        record, target = ALGORITHMS[algorithm], TargetSpec(epsilon, delta, beta)
        drawn = {"r": r, "s": s, "C": C, "bias_scale": bias_scale, "tail_magnitude": tail}
        # None stands for a constant's default only where that default is None
        constants = {name: value for name, value in drawn.items() if name in record.constants
                     and (value is not None or record.constants[name] is None)}
        truth = truth_fraction * (2 * math.pi if record.circular else 1.0)
        try:
            report = run_experiment(
                ExperimentConfig(algorithm, truth, target, constants, trials=2, master_seed=9))
        except (ConfigError, AlgorithmError):
            assume(False)  # a plan that cannot run, or a sampler whose output cap it breaks
        cost = STAGE_COSTS[algorithm]
        if cost is None:
            assert (report.trial_depths, report.trial_queries) == ([0, 0], [0, 0])
            return
        stages = record.build_plan(target, {**record.constants, **constants}).stages(target)
        depth = max(cost.depth_fn(contract) for _, contract, _ in stages)
        queries = sum(runs * max(cost.depth_fn(contract), cost.queries_fn(contract))
                      for _, contract, runs in stages)
        assert report.trial_depths == [depth, depth]
        assert report.trial_queries == [queries, queries]


def per_run_offsets(rng, size, fail_prob, spread, tail):
    """Each run's mixture offset, one array element per run: all coins, then all signs."""
    coins = rng.random(size)
    signs = rng.integers(0, 2, size=size) * 2 - 1
    return ((coins < fail_prob) * (tail - spread) + spread) * signs


def per_run_estimate(algorithm, truth, target, constants, plan, seed):
    """One synthetic trial by the per-run route: every run drawn as its own element, the
    mean summed by math.fsum, and the phase escape test taken over every run."""
    rng = derive_stream(seed, 0).rng()
    bias_scale = constants["bias_scale"]
    if algorithm == "type1":
        bias = bias_scale * plan.bias_bound
        signs = rng.integers(0, 2, size=plan.runs) * 2 - 1
        values = truth + bias + math.sqrt(plan.variance_bound) * signs
        return math.fsum(values.tolist()) / plan.runs
    if algorithm == "type2":
        bias = bias_scale * plan.bias_bound
        tail = max(0.0, plan.output_cap - truth - abs(bias))
        offsets = per_run_offsets(rng, plan.runs, plan.run_fail_prob,
                                  plan.run_precision - abs(bias), tail)
        return math.fsum((truth + bias + offsets).tolist()) / plan.runs
    tail = constants["tail_magnitude"]
    ref_bias = bias_scale * plan.ref_contract(target).bias_bound
    ref_spread = max(0.0, harness._REF_SPREAD - abs(ref_bias))
    first = reduce_angle(truth + ref_bias + per_run_offsets(
        rng, 1, plan.run_fail_prob, ref_spread, tail))
    reference = circphase.Angle(first[0])
    bias = bias_scale * plan.main_contract(target).bias_bound
    offsets = per_run_offsets(rng, plan.runs, plan.run_fail_prob,
                              plan.run_precision - abs(bias), tail)
    deviations = circ_diff(reduce_angle(truth + bias + offsets), reference)
    if np.abs(deviations).max() > math.pi / 8 + plan.run_precision + circphase.ARC_TOL:
        return 0.0
    return circphase.Angle(reference.value + math.fsum(deviations.tolist()) / plan.runs).value


class TestPerRunOracle:
    """Counting the runs on each outcome changes no estimate: every synthetic trial of a
    batch gives, bit for bit, what the per-run route recomputed here gives."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        algorithm=st.sampled_from(["type1", "type2", "phase"]), truth_fraction=st.floats(0.0, 0.999),
        epsilon=st.floats(0.02, 0.3), beta=st.floats(0.0, 1.0),
        master_seed=st.integers(0, 2**64 - 1), bias_scale=st.floats(-1.0, 1.0),
    )
    # at the wrap, where offsets cross 0 and 2 pi
    @example(algorithm="phase", truth_fraction=0.0, epsilon=0.01, beta=0.5, master_seed=5,
             bias_scale=1.0)
    @example(algorithm="phase", truth_fraction=(2 * math.pi - 0.01) / (2 * math.pi),
             epsilon=0.01, beta=0.5, master_seed=5, bias_scale=-1.0)
    # 40 000 runs per trial
    @example(algorithm="type1", truth_fraction=0.3, epsilon=0.005, beta=1.0, master_seed=4,
             bias_scale=1.0)
    def test_each_estimate_is_the_per_run_estimate(self, algorithm, truth_fraction, epsilon,
                                                   beta, master_seed, bias_scale):
        record, target = ALGORITHMS[algorithm], TargetSpec(epsilon, 0.1, beta)
        truth = truth_fraction * (2 * math.pi if record.circular else 1.0)
        config = ExperimentConfig(algorithm, truth, target, {"bias_scale": bias_scale},
                                  trials=3, master_seed=master_seed)
        constants = config.resolved_constants()
        plan = record.build_plan(target, constants)
        try:
            batch = harness._run_batch(config, plan, range(config.trials))
        except AlgorithmError:
            assume(False)  # a type2 truth whose good branch breaks the output cap
        for index, (estimate, _, _) in enumerate(batch):
            seed = derive_stream(SeedSpec(master_seed, 0), index)
            expected = per_run_estimate(algorithm, truth, target, constants, plan, seed)
            assert estimate.hex() == expected.hex(), index


class TestBatches:
    """A trial's result depends only on its own stream, not on the batch it
    runs in, and a failed batch reports its lowest failing index."""

    @pytest.mark.parametrize(
        "algorithm, truth",
        [("type1", 0.3), ("type2", 0.3), ("phase", 1.0), ("rallfuller", 0.4), ("monkey-demo", 0.5)],
    )
    def test_a_trial_does_not_depend_on_its_batch(self, algorithm, truth):
        config = quick_config(algorithm=algorithm, truth=truth, trials=20)
        rallfuller._semi_pellians.clear()
        report = run_experiment(config)
        record, constants = ALGORITHMS[algorithm], config.resolved_constants()
        plan = record.build_plan(config.target, constants)
        for index in range(config.trials):
            # alone, a trial builds each of its polynomials by itself
            rallfuller._semi_pellians.clear()
            ledger = ResourceLedger()
            seed = derive_stream(SeedSpec(config.master_seed, 0), index)
            [estimate] = record.trial(truth, config.target, constants, plan, [seed], [ledger])
            assert (estimate, ledger.max_depth, ledger.total_queries) == (
                report.estimates[index], report.trial_depths[index], report.trial_queries[index]
            ), index

    def test_records_a_batch_carries_pickle_as_themselves_and_still_validate(self):
        # a target, a plan, a seed and a contract are records a caller may
        # pickle, to cache or to ship; each must come back equal and as its own class
        target = TargetSpec(0.05, 0.1, 0.5)
        plans = [ALGORITHMS[name].build_plan(target, {}) for name in ("type1", "type2", "phase")]
        contracts = [plans[0].contract(), plans[1].contract(), plans[2].main_contract(target)]
        for record in (target, SeedSpec(7, 3), *plans, *contracts):
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record) and copy == record
        # the inputs each constructor rejects that no other test builds
        rejected = [
            (blackbox.Uqae1Contract, (0.0, 0.1), "bias_bound"),
            (blackbox.Uqae1Contract, (0.1, -0.1), "variance_bound"),
            (blackbox.Uqae2Contract, (0.0, 0.1, 0.1), "bias_bound"),
            (blackbox.Uqae2Contract, (0.1, 0.0, 0.1), "precision"),
            (blackbox.Uqae2Contract, (0.1, 0.1, 1.0), "fail_prob"),
            (blackbox.Uqae2Contract, (0.1, 0.1, 0.1, 0.5), "output_cap"),
            (blackbox.Uqpe2Contract, (0.0, 0.1, 0.1), "bias_bound"),
            (blackbox.Uqpe2Contract, (0.1, 4.0, 0.1), "precision"),
            (blackbox.Uqpe2Contract, (0.1, 0.1, -0.1), "fail_prob"),
        ]
        for record_class, args, message in rejected:
            with pytest.raises(ValueError, match=message):
                record_class(*args)
        # every config gets its own constants, never one shared default
        assert quick_config(constants=None).constants is not quick_config(constants=None).constants

    @staticmethod
    def forced_failures(config, monkeypatch):
        """Make two Rall-Fuller trials fail, the higher-indexed one at an
        earlier step, by refusing one polynomial only each of them builds;
        the lower one is not trial 0, so a trial runs before both.  Returns
        the lower index, its failing step, each trial's estimate run alone, and
        how often each refused polynomial has reached ``_certified``."""
        amplitude, root = Amplitude(config.truth), SeedSpec(config.master_seed, 0)
        paths, alone = [], []
        for index in range(config.trials):
            trace = []
            alone.append(rallfuller.rall_fuller_estimate(
                lambda poly: PolyOracle(poly, amplitude), config.target,
                seed=derive_stream(root, index), ledger=ResourceLedger(), trace=trace,
            ))
            paths.append([(record.a_min, record.width) for record in trace])
        own = [
            [step for step, point in enumerate(path)
             if all(other[step] != point for other in paths if other is not path)]
            for path in paths
        ]
        low = next(index for index in range(1, config.trials) if own[index])
        high = next(index for index in range(low + 1, config.trials)
                    if own[index] and own[index][0] < own[low][-1])
        refused = {paths[low][own[low][-1]]: own[low][-1], paths[high][own[high][0]]: own[high][0]}
        certified, refusals = rallfuller._certified, dict.fromkeys(refused, 0)

        def refusing(erf_part, coef, *key):
            if key[2:] in refused:
                refusals[key[2:]] += 1
                raise rallfuller.GapCertificateError(f"refused at step {refused[key[2:]]}")
            return certified(erf_part, coef, *key)

        monkeypatch.setattr(rallfuller, "_certified", refusing)
        rallfuller._semi_pellians.clear()
        return low, own[low][-1], alone, refusals

    def test_a_failed_batch_names_its_lowest_failing_trial(self, monkeypatch):
        config = quick_config(algorithm="rallfuller", truth=0.4, trials=20)
        low, step, _, refusals = self.forced_failures(config, monkeypatch)
        with pytest.raises(AlgorithmError) as info:
            run_experiment(config)
        assert str(info.value) == f"trial {low}: refused at step {step}"
        assert list(refusals.values()) == [1, 1]

    def test_trials_before_a_failed_one_run_to_completion(self, monkeypatch):
        config = quick_config(algorithm="rallfuller", truth=0.4, trials=20)
        low, step, alone, refusals = self.forced_failures(config, monkeypatch)
        amplitude = Amplitude(config.truth)
        root = SeedSpec(config.master_seed, 0)
        seeds = [derive_stream(root, index) for index in range(config.trials)]
        traces = [[] for _ in seeds]
        estimates = []
        with pytest.raises(rallfuller.GapCertificateError, match=f"refused at step {step}$"):
            for estimate in rallfuller.rall_fuller_lockstep(
                lambda poly: PolyOracle(poly, amplitude), rallfuller.RfPlan.from_target(config.target),
                seeds, [ResourceLedger() for _ in seeds], traces,
            ):
                estimates.append(estimate)
        assert list(refusals.values()) == [1, 1]
        assert estimates == alone[:low]
        assert [len(trace) for trace in traces[:low]] == [len(traces[0])] * low
        assert len(traces[low]) == step


    def test_one_erf_evaluation_per_step_and_approximant_one_oracle_per_polynomial(
        self, monkeypatch
    ):
        evaluations, oracles, certified, one_key_calls = [], [], [], []
        evaluate, construct = rallfuller.ErfApproximant.evaluate, PolyOracle.__init__
        certify, semi_pellian = rallfuller._certified, rallfuller.semi_pellian

        def counted_evaluate(approximant, x):
            evaluations.append(approximant)
            return evaluate(approximant, x)

        def counted_construct(oracle, poly, amplitude):
            oracles.append(poly)
            construct(oracle, poly, amplitude)

        def recorded(erf_part, coef, *key):
            certified.append(key)
            return certify(erf_part, coef, *key)

        def counted_semi_pellian(*args):
            one_key_calls.append(args)
            return semi_pellian(*args)

        monkeypatch.setattr(rallfuller.ErfApproximant, "evaluate", counted_evaluate)
        monkeypatch.setattr(PolyOracle, "__init__", counted_construct)
        monkeypatch.setattr(rallfuller, "_certified", recorded)
        monkeypatch.setattr(rallfuller, "semi_pellian", counted_semi_pellian)
        rallfuller._semi_pellians.clear()
        config = ExperimentConfig(
            "rallfuller", 0.5, TargetSpec(0.01, 0.05, 0.5), trials=16, master_seed=7
        )
        run_experiment(config)
        keys = set(certified)
        # a step's polynomials share its width; each branch has one approximant
        groups = {(width, scale, k) for scale, k, _, width in keys}
        steps = math.ceil(math.log(0.01) / math.log(rallfuller.SHRINK_FACTOR))
        assert len({width for width, _, _ in groups}) == steps
        assert len(evaluations) == len(groups) < len(keys)
        assert len(oracles) == len(keys) == len({id(poly) for poly in oracles})
        # the lockstep hands each trial its polynomial from the step's one build
        assert len(certified) == len(keys)
        assert one_key_calls == []


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
        # the export carries every report field
        report = run_experiment(quick_config(trials=12))
        path = export_report(report, "json", tmp_path / "r.json")
        expected = {name: getattr(report, name) for name in report._fields}
        assert json.loads(path.read_text()) == {**expected, "kind": "trial_report"}

    @pytest.mark.parametrize("field", ["truth", "epsilon", "bias_scale"])
    def test_numpy_scalar_inputs_export_as_python_numbers(self, field, tmp_path):
        # a numpy scalar is stored as the Python number it holds, which the
        # JSON and CSV exports write as they write any number
        settings = {"truth": 0.3, "epsilon": 0.1, "bias_scale": 1.0}
        settings[field] = np.float32(settings[field])
        config = ExperimentConfig(
            "type1", settings["truth"], TargetSpec(settings["epsilon"], 0.1, 1.0),
            constants={"bias_scale": settings["bias_scale"]}, trials=2)
        provenance = config.provenance()
        stored = {"truth": provenance["truth"], "epsilon": provenance["epsilon"],
                  "bias_scale": provenance["constants"]["bias_scale"]}
        assert stored == {**settings, field: float(np.float32(settings[field]))}
        assert all(type(value) is float for value in stored.values())
        report = run_experiment(config)
        text = export_report(report, "json", tmp_path / "r.json").read_text()
        assert json.loads(text)["config"] == provenance
        csv_text = export_report(report, "csv", tmp_path / "r.csv").read_text()
        assert "np." not in csv_text and len(csv_text.splitlines()) == 3

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
    return scaling_study("type1", 0.3, 0.1, [0.1, 0.05, 0.02, 0.01], [0.0, 0.5, 1.0], master_seed=5)


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
        study = scaling_study("type2", 0.9, 0.1, [0.1, 0.01], [0.0, 1.0], master_seed=3)
        assert study.partial
        cell_errors = [error for error in study.errors if "epsilon" in error]
        assert cell_errors and len(study.rows) + len(cell_errors) == 4
        ran = {(row.epsilon, row.beta) for row in study.rows}
        for error in cell_errors:
            assert (error["epsilon"], error["beta"]) not in ran
            assert error["error"] == "good branch would exceed the output cap"

    def test_plan_that_can_never_run_rejected_before_any_cell(self, monkeypatch):
        built = record_generators(monkeypatch)
        with pytest.raises(ConfigError, match="pi/8"):
            scaling_study("phase", 1.0, 0.1, [0.4, 0.1], [0.5], master_seed=5)
        assert built == []

    def test_zero_ledgers_reported_instead_of_fitted(self, tmp_path):
        # monkey-demo charges nothing, so no log-log slope exists to fit
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            study = scaling_study("monkey-demo", 0.3, 0.1, [0.1, 0.05, 0.02, 0.01], [0.0, 1.0],
                                  master_seed=5)
        assert len(study.rows) == 8
        assert study.slopes == {}
        assert [error["beta"] for error in study.errors] == [0.0, 1.0]
        # its svg plots every cell, and neither a fitted line nor a slope
        svg = export_report(study, "svg", tmp_path / "m.svg").read_text()
        assert svg.count("<circle ") == 8 and "stroke-dasharray" not in svg
        assert ">beta=0</text>" in svg and ">beta=1</text>" in svg and "slope" not in svg

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
        with pytest.raises(ConfigError):
            scaling_study("type1", 0.3, 0.1, [], [0.5])

    def test_float32_grid_exports_json(self, tmp_path):
        study = scaling_study("type1", 0.3, 0.1, [np.float32(0.1), np.float32(0.05)],
                              [np.float32(0.5)])
        payload = json.loads(export_report(study, "json", tmp_path / "s.json").read_text())
        assert payload["config"]["epsilon_grid"] == [float(np.float32(0.1)), float(np.float32(0.05))]
        assert all(type(value) is float for value in study.config["beta_grid"])

    def test_float64_grid_slope_keys_read_as_numbers(self, tmp_path):
        study = scaling_study("type1", 0.3, 0.1, [np.float64(0.1), np.float64(0.05)],
                              [np.float64(0.5)])
        payload = json.loads(export_report(study, "json", tmp_path / "s.json").read_text())
        assert list(payload["slopes"]) == ["0.5"]

    def test_cell_index_runs_alone_as_a_checked_one_trial_config(self, monkeypatch):
        jobs, run_batch = [], harness._run_batch

        def recording(config, plan, indices):
            jobs.append((config, plan, indices))
            return run_batch(config, plan, indices)

        monkeypatch.setattr(harness, "_run_batch", recording)
        study = scaling_study("type2", 0.3, 0.1, [0.1, 0.05], [0.0, 1.0], {"C": 2.0}, 5)
        targets = [TargetSpec(eps, 0.1, beta) for beta in (0.0, 1.0) for eps in (0.1, 0.05)]
        assert [(job[0], job[2]) for job in jobs] == [
            (ExperimentConfig("type2", 0.3, target, {"C": 2.0}, master_seed=5), [index])
            for index, target in enumerate(targets)
        ]
        # the provenance is what every cell shares, and the grids
        assert study.config == {
            **{key: value for key, value in jobs[0][0].provenance().items()
               if key not in ("epsilon", "beta", "trials")},
            "epsilon_grid": [0.1, 0.05], "beta_grid": [0.0, 1.0],
        }

    @pytest.mark.parametrize(
        "args, message",
        [(("type1", 0.3, 0.0, [0.1], [0.5]), "grid point: delta must lie in"),
         (("type1", "0.3", 0.1, [0.1], [0.5]), "truth must be a number"),
         (("phase", 7.0, 0.1, [0.1], [0.5]), "phase truth must lie in"),
         (("type1", 0.3, 0.1, [0.1], [0.5], [("r", 0.1)]), "constants must be a dict"),
         (("rallfuller", 0.3, 0.1, [0.1], [0.5], {"r": 0.1}), "does not read constants"),
         (("type1", 0.3, 0.1, [0.1], [0.5], None, -1), "master_seed must be")],
        ids=["delta", "text-truth", "phase-truth", "list-constants", "unread-constant", "seed"],
    )
    def test_a_config_a_cell_would_refuse_is_rejected_before_any_cell(
        self, args, message, monkeypatch
    ):
        built = record_generators(monkeypatch)
        with pytest.raises(ConfigError, match=message):
            scaling_study(*args)
        assert built == []

    def test_array_grid_runs_as_its_list(self):
        as_arrays = scaling_study("type1", 0.3, 0.1, np.array([0.1, 0.05]), np.array([0.0, 1.0]))
        assert as_arrays == scaling_study("type1", 0.3, 0.1, [0.1, 0.05], [0.0, 1.0])


# Two values of each ``run`` option; a config file sets the first and a flag
# the second over it.  A new option needs an entry here before its tests pass.
RUN_OPTION_VALUES = {
    "algorithm": ("type1", "type2"),
    "truth": ("0.4", "0.3"),
    "epsilon": ("0.04", "0.05"),
    "delta": ("0.1", "0.05"),
    "beta": ("0.4", "0.5"),
    "r": ("0.2", "0.25"),
    "s": ("0.3", "0.25"),
    "cap_c": ("1.5", "1"),
    "trials": ("3", "2"),
    "seed": ("7", "1"),
    # a value starting with "-" still reads as a value, not a flag
    "out": ("-b.json", "a.json"),
    "format": ("csv", "json"),
    "bias_scale": ("-0.5", "1"),
    "tail_magnitude": ("0.2", "0.1"),
}
# Each ``run`` setting and its flag.
RUN_OPTIONS = {dest: flag for flag, (dest, _, _) in FLAGS["run"].items() if dest != "config"}


def run_tokens(key: str, value: str) -> list[str]:
    """The command-line tokens giving option ``key`` ``value``."""
    return [f"{RUN_OPTIONS[key]}={value}"]


# Two values of each ``scale`` setting; each must change what the sweep writes.
# A new option needs an entry here before its test passes.
SCALE_OPTION_VALUES = {
    "algorithm": ("type1", "type2"),
    "truth": ("0.3", "0.6"),
    "delta": ("0.05", "0.1"),
    "r": ("0.05", "0.02"),
    "s": ("0.3", "0.4"),
    "cap_c": ("1", "1000"),
    "epsilon_grid": ("0.1,0.05", "0.1,0.02"),
    "beta_grid": ("0.5", "0,1"),
    "seed": ("1", "2"),
    "out": ("a.csv", "b.csv"),
    "format": ("csv", "json"),
}
# The sweep a setting is varied on, where not the base one.  A synthetic row is
# a function of its plan alone, not of the truth or the seed, so those are
# varied on a Rall-Fuller sweep, whose ledger follows its path; type1's plan
# reads no delta, and type2 alone reads the output cap, which at 1000 sets
# run_fail_prob.
_RALLFULLER_SWEEP = {"algorithm": "rallfuller", "epsilon_grid": "0.1,0.01"}
SCALE_OPTION_SWEEPS = {"truth": _RALLFULLER_SWEEP, "seed": _RALLFULLER_SWEEP,
                       "delta": {"algorithm": "type2"}, "cap_c": {"algorithm": "type2"}}


class TestScaleOptions:
    BASE = {"algorithm": "type1", "epsilon_grid": "0.1,0.05", "beta_grid": "0.5",
            "out": "s.csv", "format": "csv"}

    @pytest.mark.parametrize("key", sorted({dest for dest, _, _ in FLAGS["scale"].values()}))
    def test_every_setting_changes_what_the_sweep_writes(self, key, tmp_path, monkeypatch, capsys):
        flags = {dest: flag for flag, (dest, _, _) in FLAGS["scale"].items()}
        base = {**self.BASE, **SCALE_OPTION_SWEEPS.get(key, {})}
        written = []
        for value in SCALE_OPTION_VALUES[key]:
            workdir = tmp_path / str(len(written))
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            settings = {**base, key: value}
            assert main(["scale", *(f"{flags[name]}={text}" for name, text in settings.items())]) == 0
            # the CSV, except where --out or --format names another file
            written.append({path.name: path.read_bytes() for path in workdir.iterdir()})
        assert written[0] != written[1]


class TestConfigFile:
    """A ``run --config`` entry acts as its flag, and a flag overrides it."""

    BASE = {"algorithm": "type2", "truth": "0.3", "trials": "2", "out": "a.json"}

    @pytest.fixture
    def outcome(self, tmp_path, monkeypatch, capsys):
        runs = iter(range(100))

        def outcome(flags: dict, entries: dict | None = None):
            """Exit code, stdout and files written by one run."""
            workdir = tmp_path / f"run{next(runs)}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            argv = ["run", *(token for key, value in flags.items()
                             for token in run_tokens(key, value))]
            if entries is not None:
                config = tmp_path / f"{workdir.name}.cfg"
                config.write_text("".join(f"{key} = {value}\n" for key, value in entries.items()))
                argv += ["--config", str(config)]
            code = main(argv)
            files = {path.name: path.read_bytes() for path in workdir.iterdir()}
            return code, capsys.readouterr().out, files

        return outcome

    @pytest.mark.parametrize("key", sorted(RUN_OPTIONS))
    def test_entry_acts_as_its_flag_and_a_flag_overrides_it(self, key, outcome):
        file_value, flag_value = RUN_OPTION_VALUES[key]
        others = {name: value for name, value in self.BASE.items() if name != key}
        by_flag = {}
        for value in (file_value, flag_value):
            by_flag[value] = outcome({**others, key: value})
            assert by_flag[value][0] == 0 and by_flag[value][2]
            assert outcome(others, {key: value}) == by_flag[value]
        assert by_flag[file_value] != by_flag[flag_value]
        assert outcome({**others, key: flag_value}, {key: file_value}) == by_flag[flag_value]

    @pytest.mark.parametrize("key", ["config", "help"])
    def test_keys_without_a_setting_exit_two(self, key, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"algorithm = type1\ntruth = 0.3\ntrials = 1\n{key} = {config}\n")
        assert main(["run", "--config", str(config)]) == 2
        assert "unknown config file keys" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["trials = 1.5", "algorithm = bogus"])
    def test_an_entry_its_converter_refuses_exits_two_even_when_overridden(
        self, entry, tmp_path, capsys
    ):
        key = entry.split()[0]
        config = tmp_path / "run.cfg"
        config.write_text(f"{entry}\n")
        argv = ["run", *run_tokens(key, RUN_OPTION_VALUES[key][1]), "--config", str(config)]
        assert main(argv) == 2
        assert f"config file value for {key!r}" in capsys.readouterr().err

    def test_a_repeated_key_exits_two(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("algorithm = type1\ntruth = 0.3\ntrials = 1\ntruth = 0.9\n")
        assert main(["run", "--config", str(config)]) == 2
        assert f"{config}:4: key 'truth' repeats line 2" in capsys.readouterr().err

    def test_a_line_without_an_equals_sign_exits_two(self, tmp_path, capsys):
        # comment and blank lines are skipped, and still counted
        config = tmp_path / "run.cfg"
        config.write_text("# a comment\nalgorithm = type1  # inline\n\ntruth 0.3\ntrials = 1\n")
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {config}:4: expected 'key = value', got 'truth 0.3'\n")


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

    @pytest.mark.parametrize("flag, grid", [("--epsilon-grid", "0.1,,0.05,"),
                                            ("--beta-grid", "0.5,")])
    def test_an_empty_grid_entry_exits_two_before_any_cell(self, flag, grid, tmp_path, capsys):
        # empty entries were once dropped, and the sweep ran on what was left
        out = tmp_path / "scale.csv"
        grids = {"--epsilon-grid": "0.1,0.05", "--beta-grid": "0.5", flag: grid}
        assert main(["scale", *(token for item in grids.items() for token in item),
                     "--out", str(out)]) == 2
        assert f"configuration error: {flag}: " in capsys.readouterr().err
        assert not out.exists()

    def test_cli_import_leaves_scipy_unloaded(self):
        root = Path(__file__).resolve().parents[1]
        code = "import lowdepth.cli, sys; sys.exit('scipy' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        assert subprocess.run([sys.executable, "-c", code], env=env, cwd=root).returncode == 0

    @pytest.mark.parametrize(
        "module",
        ["numpy.random", "csv", "concurrent.futures.process", "multiprocessing", "numpy.polynomial",
         "dataclasses", "argparse"],
    )
    def test_cli_import_leaves_numpy_random_unloaded(self, module):
        # numpy loads numpy.random on first use; importing the CLI must not
        # move that cost out of the first draw and into start-up; no report
        # writer uses csv; no report runs in a process pool, the
        # Chebyshev nodes are computed without numpy.polynomial, no record
        # is a dataclass, whose methods are compiled when its class is built,
        # and the flags are read from a table, not by argparse
        root = Path(__file__).resolve().parents[1]
        code = f"import lowdepth.cli, sys; sys.exit({module!r} in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        assert subprocess.run([sys.executable, "-c", code], env=env, cwd=root).returncode == 0

    def test_a_session_loads_no_argument_parser_or_locale(self, tmp_path):
        # argparse's first message lookup imports gettext, which imports locale;
        # statistics imports fractions and decimal, which no report needs
        root = Path(__file__).resolve().parents[1]
        code = (
            "import sys; from lowdepth.cli import main\n"
            "assert main(['run', '--algorithm', 'type1', '--truth', '0.3', '--trials', '2',"
            " '--out', 'run.json']) == 0\n"
            "assert main(['scale', '--epsilon-grid', '0.1,0.05', '--beta-grid', '0,1',"
            " '--format', 'svg', '--out', 'scale.svg']) == 0\n"
            "assert main(['params']) == 0\n"
            "unloaded = {'argparse', 'gettext', 'locale', 'statistics', 'fractions', 'decimal'}\n"
            "sys.exit(sorted(unloaded & set(sys.modules)) or None)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "run.json").is_file() and (tmp_path / "scale.svg").is_file()

    @pytest.mark.parametrize("command", [None, *FLAGS])
    @pytest.mark.parametrize("help_flag", ["-h", "--help"])
    def test_help_lists_every_flag_and_exits_zero(self, command, help_flag, capsys):
        assert main([help_flag] if command is None else [command, help_flag]) == 0
        printed = capsys.readouterr().out
        if command is None:
            assert all(name in printed for name in FLAGS)
        else:
            listed = [line.split()[0] for line in printed.splitlines()[1:]]
            assert listed == list(FLAGS[command])

    def test_missing_required_flags_is_config_error(self, capsys):
        assert main(["run", "--epsilon", "0.05"]) == 2

    def test_config_file_typo_is_config_error(self, tmp_path, capsys):
        config_file = tmp_path / "typo.cfg"
        config_file.write_text("algorithm = type1\ntruth = 0.3\ntrails = 5\n")
        assert main(["run", "--config", str(config_file)]) == 2

    def test_parallel_flag_is_unknown(self, tmp_path, capsys):
        # every report runs its trials as one batch in this process
        out = tmp_path / "par.json"
        run = ["run", "--algorithm", "type1", "--truth", "0.3", "--trials", "2", "--out", str(out)]
        assert main([*run, "--parallel"]) == 2
        assert "unknown run flag '--parallel'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_parallel_entry_is_unknown(self, tmp_path, capsys):
        out, config_file = tmp_path / "par.json", tmp_path / "parallel.cfg"
        config_file.write_text("parallel = 1\n")
        run = ["run", "--algorithm", "type1", "--truth", "0.3", "--trials", "2", "--out", str(out)]
        assert main([*run, "--config", str(config_file)]) == 2
        assert "unknown config file keys: ['parallel']" in capsys.readouterr().err
        assert not out.exists()

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
        # a usage error is a configuration error (exit 2), never an algorithm
        # error (exit 3), even where a converter raises ValueError
        for argv in (
            ["run", "--algorithm", "type1", "--truth", "0.3", "--trials", "1.5"],
            ["run", "--algorithm", "type1", "--truth", "0.3", "--seed", "x"],
            ["scale", "--epsilon-grid", "0.1,x"],
            ["run", "--algorithm", "type1", "--truth"],
            ["run", "--algorithm", "type1", "--truth", "--trials", "2"],
            # argparse took an unambiguous prefix; a flag is now spelled out in full
            ["run", "--algorithm", "type1", "--truth", "0.3", "--eps", "0.1"],
            ["params", "--trials", "5"],
            ["run", "--algorithm", "type1", "--truth", "0.3", "stray"],
            ["--epsilon", "0.1", "params"],
            [],
            # an empty config path is an error, as an empty --out is, never "no file"
            ["run", "--config=", "--algorithm", "type1", "--truth", "0.3", "--trials", "1"],
        ):
            capsys.readouterr()
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("configuration error: ") and captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--algorithm", "type1", "--truth", "0.3", "--bias-scale", "2"],
            ["--algorithm", "type2", "--truth", "0.3", "--r", "0.7", "--s", "0.4"],
            ["--algorithm", "type1", "--truth", "0.3", "--s", "0.5"],
            ["--algorithm", "phase", "--truth", "1.0", "--r", "0.6", "--s", "0.5"],
            ["--algorithm", "type2", "--truth", "0.3", "--cap-C", "0.5"],
            ["--algorithm", "phase", "--truth", "1.0", "--epsilon", "0.5"],
            ["--algorithm", "phase", "--truth", "1.0", "--tail-magnitude", "3.2"],
            ["--algorithm", "type2", "--truth", "0.3", "--tail-magnitude=-0.1"],
            ["--algorithm", "phase", "--truth", "1.0", "--tail-magnitude=-0.1"],
            ["--algorithm", "type2", "--truth", "0.3", "--r", "0"],
        ],
        ids=[
            "bias-scale", "type2-fractions", "type1-floor", "phase-fractions", "type2-cap",
            "phase-epsilon", "phase-tail", "type2-negative-tail", "phase-negative-tail",
            "type2-zero-fraction",
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

    def test_params_prints_nothing_when_a_line_fails(self, capsys):
        # the register estimator's line is the last, and the only one that fails here
        assert main(["params", "--delta", "1e-300"]) == 3
        captured = capsys.readouterr()
        assert "algorithm error: cannot take ceiling of inf" in captured.err
        assert captured.out == ""

    def test_params_prints_why_phase_cannot_run(self, capsys):
        assert main(["params", "--epsilon", "0.5"]) == 0
        output = capsys.readouterr().out
        assert "circular phase plan:   cannot run: target precision must stay below pi/8" in output
        assert "precision/failure plan" in output

    def test_params_prints_the_rallfuller_plan(self, capsys):
        # 44 steps; width^0.5 exceeds the cap 0.4 down to 0.9^17, so 18 steps are
        # forced; ceil(0.5 s^-2 ln(44 / 0.1)) tosses at s = 0.01 on the full-depth branch
        assert main(["params", "--epsilon", "0.01", "--delta", "0.1", "--beta", "0.5"]) == 0
        assert (
            "Rall-Fuller plan:      steps=44 forced_full_depth=18 full_depth_tosses=30434..30434 "
            "low_depth_tosses=202765..2824421 forced_erf_degree=39\n"
        ) in capsys.readouterr().out
        assert main(["params", "--epsilon", "0.5"]) == 0
        assert "forced_full_depth=7 full_depth_tosses=24709..24709 low_depth_tosses=none " in (
            capsys.readouterr().out)

    def test_params_prints_why_rallfuller_cannot_run(self, capsys):
        assert main(["params", "--epsilon", "0.001", "--beta", "0"]) == 0
        output = capsys.readouterr().out
        assert "Rall-Fuller plan:      cannot run: no odd polynomial of degree <= 4096" in output
        assert "register phase estimator" in output

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
        "command",
        [["run", "--epsilon", "0.001", "--beta", "0", "--truth", "0.5", "--trials", "2"],
         ["scale", "--epsilon-grid", "0.05,0.001", "--beta-grid", "0.5,0"],
         ["run", "--epsilon", "0.001", "--beta", "0.1", "--truth", "0.5", "--trials", "2"],
         ["scale", "--epsilon-grid", "0.05,0.001", "--beta-grid", "0.5,0.1"]],
        ids=["run", "scale", "run-beta-0.1", "scale-beta-0.1"],
    )
    def test_rallfuller_target_whose_last_step_cannot_be_built_exits_two(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # at beta = 0, and at beta = 0.1 while width^0.1 stays above the
        # shallow branch's cap (down to width 0.4^10, past epsilon 0.001),
        # every trial takes the full-depth branch at its last step, whose
        # approximant at epsilon 0.001 no degree up to the cap reaches
        built = record_generators(monkeypatch)
        out = tmp_path / "rf.json"
        assert main([*command, "--algorithm", "rallfuller", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: rallfuller cannot run: no odd polynomial")
        assert built == [] and not out.exists()

    def test_rallfuller_target_whose_failing_step_depends_on_the_path_exits_three(
        self, tmp_path, capsys
    ):
        # at beta = 0.25 the trials leave the full-depth branch before the step
        # that fails, so the plan admits the target and trial 0 fails running
        out = tmp_path / "rf.json"
        argv = ["run", "--algorithm", "rallfuller", "--truth", "0.5", "--epsilon", "0.0003",
                "--beta", "0.25", "--trials", "2", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("algorithm error: trial 0: no odd polynomial")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command",
        [["run", "--algorithm", "type1", "--truth", "0.3", "--trials", "3"], ["scale"]],
        ids=["run", "scale"],
    )
    @pytest.mark.parametrize(
        "out", ["", "missing/r.json", "report.json/r.json", "."],
        ids=["empty", "missing-parent", "file-parent", "directory"],
    )
    def test_unwritable_out_exits_two_before_any_work(
        self, command, out, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "report.json").write_text("")
        built = record_generators(monkeypatch)
        assert main([*command, "--out", out]) == 2
        assert "configuration error: --out" in capsys.readouterr().err
        assert built == []

    def test_run_rejects_svg_before_any_trial(self, tmp_path, monkeypatch, capsys):
        built = record_generators(monkeypatch)
        out = tmp_path / "r.svg"
        argv = ["run", "--algorithm", "type1", "--truth", "0.3", "--trials", "3"]
        assert main(argv + ["--format", "svg", "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert built == [] and not out.exists()

    def test_scale_has_no_base_epsilon_or_beta(self, tmp_path, monkeypatch, capsys):
        # each cell runs at its grid point, so a base epsilon or beta would go unread
        built = record_generators(monkeypatch)
        out = tmp_path / "s.json"
        argv = ["scale", "--algorithm", "phase", "--truth", "1.0", "--epsilon-grid", "0.1,0.05",
                "--beta-grid", "0.5", "--out", str(out)]
        for flag in (["--epsilon", "0.5"], ["--beta", "0.1"]):
            assert main([*argv, *flag]) == 2
            assert f"unknown scale flag {flag[0]!r}" in capsys.readouterr().err
            assert built == [] and not out.exists()
        # the grids alone run cells finer than the 0.5 --epsilon once set
        assert main(argv) == 0
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

    @pytest.mark.parametrize("epsilon", [0.1, 0.03, 0.01])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_params_prints_the_depth_each_run_is_charged(self, epsilon, beta, capsys):
        # The ledger charges a run its contract's depth, not the published
        # estimators' knobs: ceil(variance_bound^-1/2) = ceil(K / 10) for
        # type1, K the Cornelissen amplitude knob, and ceil(1 / precision),
        # about M / 10 with M the register knob, for type2 and phase (whose
        # one reference run is charged ceil(4 / pi) = 2).  Each printed
        # figure is the max_depth of a one-trial report.
        target = TargetSpec(epsilon, 0.1, beta)
        argv = ["params", "--epsilon", repr(epsilon), "--delta", "0.1", "--beta", repr(beta)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        charged = {}
        for knobs in ("amplitude estimator knobs:", "register phase estimator:"):
            [line] = [line for line in lines if line.startswith(knobs)]
            figures = line.split(" | charged max_depth: ")[1].split()
            charged.update((name, int(depth)) for name, depth in map(str.split, figures, "=="))
        precision = epsilon ** (1.0 - beta)
        amp = blackbox.cornelissen_amp_params(target)
        register = blackbox.apeldoorn_phase_params(target)
        assert charged["type1"] == ceil_int(amp.depth_scale / 10)
        assert charged["type2"] == ceil_int(1.0 / precision)
        assert charged["phase"] == max(charged["type2"], 2)
        assert 10.0 / precision <= register.depth_scale
        assert register.depth_scale <= 10.0 * (1.0 + 2.0**-register.n) / precision + 1
        # type2's runs at precision 1 leave the output cap from any truth above 0
        for algorithm, truth in (("type1", 0.3), ("type2", 0.0), ("phase", 1.0)):
            config = ExperimentConfig(algorithm, truth, target, trials=1, master_seed=5)
            assert run_experiment(config).max_depth == charged[algorithm], algorithm

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

    def test_bad_scale_grid_exits_two(self, capsys):
        assert main(["scale", "--epsilon-grid", "2,3", "--beta-grid", "0"]) == 2
