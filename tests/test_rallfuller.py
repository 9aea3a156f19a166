import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as ncheb
from scipy.special import erf, ive

from lowdepth import rallfuller
from lowdepth.core import (
    Amplitude,
    ResourceLedger,
    SeedSpec,
    TargetSpec,
    ceil_int,
    derive_stream,
)
from lowdepth.oracle import PolyOracle, poly_sample
from lowdepth.rallfuller import (
    BRANCH_FULL_DEPTH,
    BRANCH_LOW_DEPTH,
    CERT_TOL,
    ConfidenceInterval,
    ErfApproximant,
    GapCertificateError,
    PolynomialConstructionError,
    RfPlan,
    SHRINK_FACTOR,
    StepRecord,
    _TRIM_BUDGET,
    _amos_ratio,
    _assembled_series,
    _erf_series,
    _parity_clenshaw,
    _scaled_bessel,
    _semi_pellians,
    coin_test,
    coin_tosses,
    erf_poly,
    full_depth_gap_envelope,
    kappa,
    phase_threshold,
    rall_fuller_estimate,
    rf_params,
    semi_pellian,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None)


def padded(series, parity, dtype=float):
    """The full Chebyshev series whose entries of index ``parity`` mod 2 are
    ``series``, in order, and whose others are zero."""
    full = np.zeros(2 * len(series) - 1 + parity, dtype=dtype)
    full[parity::2] = series
    return full


# Interval widths the shrinking loop reaches down to epsilon = 0.01, placed
# anywhere inside [0, 1].
intervals = st.builds(
    lambda steps, position: ConfidenceInterval(position * (1.0 - 0.9**steps), 0.9**steps),
    st.integers(0, 44),
    st.floats(0.0, 1.0),
)


class TestKappa:
    def test_reference_values(self):
        assert kappa(0.01) == pytest.approx(2.1, abs=0.05)
        assert 0.004 * kappa(0.004) == pytest.approx(0.0092, abs=0.0005)

    def test_vanishes_at_domain_edge(self):
        assert kappa(math.sqrt(2 / math.pi) - 1e-12) == pytest.approx(0.0, abs=1e-5)

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            kappa(0.0)
        with pytest.raises(ValueError):
            kappa(math.sqrt(2 / math.pi) + 1e-9)

    def test_tau_kappa_product_increasing(self):
        taus = np.linspace(1e-5, 0.004, 400)
        products = taus * np.array([kappa(float(t)) for t in taus])
        assert np.all(np.diff(products) > 0)
        assert products[-1] <= 0.01


class TestConfidenceInterval:
    def test_properties(self):
        interval = ConfidenceInterval(0.2, 0.4)
        assert interval.width == pytest.approx(0.4)
        assert interval.a_mid == pytest.approx(0.4)
        assert interval.a_max == pytest.approx(0.6)

    def test_shrink_factor_exact(self):
        interval = ConfidenceInterval(0.0, 1.0)
        for _ in range(60):
            previous = interval.width
            interval = interval.discard_left()
            assert interval.width == 0.9 * previous
        interval = ConfidenceInterval(0.0, 1.0)
        for _ in range(60):
            previous = interval.width
            interval = interval.discard_right()
            assert interval.width == 0.9 * previous

    def test_nesting(self):
        interval = ConfidenceInterval(0.0, 1.0)
        left = interval.discard_left()
        right = interval.discard_right()
        assert left.a_min >= interval.a_min and left.a_max <= interval.a_max + 1e-12
        assert right.a_min >= interval.a_min and right.a_max <= interval.a_max

    @PROPERTY
    @given(st.floats(1e-6, 1.0), st.floats(0.0, 1.0), st.lists(st.booleans(), max_size=60))
    def test_nesting_property(self, width, position, discards):
        interval = ConfidenceInterval(position * (1.0 - width), width)
        for left in discards:
            inner = interval.discard_left() if left else interval.discard_right()
            assert inner.width == SHRINK_FACTOR * interval.width
            assert inner.a_min >= interval.a_min
            assert inner.a_min + inner.width <= interval.a_min + interval.width + 1e-12
            interval = inner

    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(-0.1, 0.5)
        with pytest.raises(ValueError):
            ConfidenceInterval(0.0, 0.0)
        with pytest.raises(ValueError):
            ConfidenceInterval(0.8, 0.3)


class TestRfParams:
    def test_full_depth_on_unit_interval(self):
        params = rf_params(ConfidenceInterval(0.0, 1.0), 0.5)
        assert params.branch == BRANCH_FULL_DEPTH
        assert params.scale == 0.01
        assert params.k == pytest.approx(0.5 * kappa(0.01), rel=1e-12)

    def test_low_depth_branch_selection(self):
        # width 0.9^20, midpoint well above width^(1-beta) / 2
        width = 0.9**20
        interval = ConfidenceInterval(0.3 - width / 2, width)
        params = rf_params(interval, 0.5)
        assert params.branch == BRANCH_LOW_DEPTH
        assert params.scale == pytest.approx(0.01 * width**0.5, rel=1e-12)
        assert params.k == pytest.approx(2 * kappa(params.scale) * width**-0.5, rel=1e-12)
        assert params.k <= 2 / width

    def test_beta_zero_always_full_depth(self):
        for steps in (0, 10, 30):
            width = 0.9**steps
            interval = ConfidenceInterval(0.5 - width / 2, width)
            assert rf_params(interval, 0.0).branch == BRANCH_FULL_DEPTH

    def test_small_midpoint_stays_full_depth(self):
        width = 0.9**20
        interval = ConfidenceInterval(0.0, width)  # midpoint = width / 2
        assert rf_params(interval, 0.5).branch == BRANCH_FULL_DEPTH

    def test_uncorrected_scale_violates_midpoint_precondition(self):
        # The half-scale variant k = kappa(tau) width^(beta-1) / 2 puts
        # kappa / k at 2 width^(1-beta), which the branch condition
        # (midpoint >= width^(1-beta) / 2) does not cover; the corrected
        # doubled scale keeps kappa / k at width^(1-beta) / 2.
        beta, width = 0.5, 0.09
        a_mid = 0.2  # in [0.15, 0.6): admitted to the shallow branch
        interval = ConfidenceInterval(a_mid - width / 2, width)
        params = rf_params(interval, beta)
        assert params.branch == BRANCH_LOW_DEPTH
        tau = 0.01 * width**beta
        uncorrected_k = 0.5 * kappa(tau) * width ** (beta - 1.0)
        assert a_mid < kappa(tau) / uncorrected_k  # precondition fails
        assert a_mid >= kappa(tau) / params.k  # corrected scale passes

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            rf_params(ConfidenceInterval(0.0, 1.0), 1.5)


class TestStepPreconditions:
    def test_both_branches_meet_the_gap_arguments_preconditions(self):
        # k in [1, 2/width] on each branch, and on the shallow one a midpoint
        # threshold at least kappa/k, over beta on a 0.01 grid and the first
        # 700 widths of the shrinking loop (down to about 1e-32), by its repeated multiply
        widths = [1.0]
        while len(widths) < 700:
            widths.append(SHRINK_FACTOR * widths[-1])
        for beta in np.linspace(0.0, 1.0, 101):
            for width in widths:
                shallow_from, table = rallfuller._step_rule(width, beta)
                assert [params.branch for params in table] == (
                    [BRANCH_FULL_DEPTH, BRANCH_LOW_DEPTH]
                    if width**beta <= rallfuller.LOW_DEPTH_WIDTH_CAP else [BRANCH_FULL_DEPTH]
                )
                for params in table:
                    assert 1.0 <= params.k <= 2.0 / width
                if len(table) == 2:
                    shallow = table[1]
                    assert shallow_from == 0.5 * width ** (1.0 - beta)
                    assert kappa(shallow.scale) / shallow.k <= shallow_from + CERT_TOL


class TestErfPoly:
    def test_grid_accuracy(self):
        approx = erf_poly(1.0, 0.1)
        grid = np.linspace(-2, 2, 4001)
        assert np.max(np.abs(approx.evaluate(grid) - erf(grid))) <= 0.1
        assert approx.sup_error <= 0.1

    def test_oddness_exact(self):
        approx = erf_poly(3.0, 0.01)
        grid = np.linspace(-2.0, 2.0, 4001)
        assert np.array_equal(approx.evaluate(-grid), -approx.evaluate(grid))
        assert float(approx.evaluate(np.asarray(0.0))) == 0.0
        xs = np.linspace(0.01, 2.0, 97)
        np.testing.assert_allclose(approx.evaluate(-xs), -approx.evaluate(xs), atol=1e-13)

    def test_degree_within_published_shape(self):
        approx = erf_poly(5.0, 0.01)
        bound = 10.0 * math.sqrt((25 + math.log(100)) * math.log(100))
        assert approx.degree <= bound

    @pytest.mark.parametrize(
        "interval, beta",
        [
            (ConfidenceInterval(0.0, 1.0), 0.5),
            (ConfidenceInterval(0.3 - 0.9**20 / 2, 0.9**20), 0.5),
            (ConfidenceInterval(0.3 - 0.9**40 / 2, 0.9**40), 0.5),
        ],
        ids=["full_depth", "low_depth_20", "low_depth_40"],
    )
    def test_sup_error_bounds_error_between_grid_points(self, interval, beta):
        # sup_error must hold off the 40 001-point certification grid: on its
        # midpoints and on a grid ten times finer.
        params = rf_params(interval, beta)
        approx = erf_poly(params.k, params.scale)
        certification = np.linspace(-2.0, 2.0, 40_001)
        for points in (0.5 * (certification[1:] + certification[:-1]), np.linspace(-2, 2, 400_001)):
            error = np.max(np.abs(approx.evaluate(points) - erf(params.k * points)))
            assert error <= approx.sup_error
        assert approx.sup_error <= params.scale

    @pytest.mark.parametrize("k", [1.0, 5.0, 14.2, 29.8, 37.6, 70.8])
    def test_miller_recurrence_matches_ive(self, k):
        z = 2.0 * k * k  # K = 2k on the [-2, 2] domain, z = K^2 / 2
        values, rel_error = _scaled_bessel(z, 2049)
        assert rel_error <= 1e-10
        reference = ive(np.arange(2050), z)
        normal = reference > 1e-280
        assert normal[:100].all()
        np.testing.assert_allclose(values[normal], reference[normal], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [1.0, 5.0, 14.2, 29.8, 37.6, 70.8])
    def test_full_series_matches_erf(self, k):
        odd, left_out = _erf_series(k, 2049)
        series = padded(odd, 1)
        grid = np.linspace(-1.0, 1.0, 40_001)
        assert np.max(np.abs(np.polynomial.chebyshev.chebval(grid, series) - erf(2 * k * grid))) <= 1e-13
        assert left_out <= 1e-9

    def test_amos_ratio_bound(self):
        # I_{nu+1}(z) / I_nu(z) <= _amos_ratio(nu, z), the remainder's premise.
        nu = np.arange(3000)
        for z in (0.5, 2.0, 50.0, 403.28, 1776.08, 7000.0):
            values = ive(np.arange(3001), z)
            normal = values[1:] > 1e-280
            ratios = values[1:][normal] / values[:-1][normal]
            bounds = np.array([_amos_ratio(float(n), z) for n in nu[normal]])
            assert np.all(ratios <= bounds * (1.0 + 1e-13))

    @pytest.mark.parametrize("accuracy", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_degree_matches_full_series_truncation(self, accuracy):
        # The sized series keeps the degree that truncating the full
        # 2 049-term series gives, and the same bound to within rounding.
        for scale in np.geomspace(0.3, 130.0, 12):
            odd, left_out = _erf_series(float(scale), 2049)
            tail = np.cumsum(np.abs(odd[::-1]))[::-1]
            bound = np.append(tail[1:], 0.0)[:2048] + left_out
            cut = int(np.argmax(bound <= accuracy))
            approx = erf_poly(float(scale), accuracy)
            assert bound[cut] <= accuracy
            assert approx.degree == 2 * cut + 1
            assert approx.sup_error == pytest.approx(float(bound[cut]), rel=1e-3)

    def test_miller_start_search_matches_scalar_loop(self):
        # The vectorised start search and the list of backward ratios give
        # the scalar loop's values and rounding bound bit for bit, at every
        # sized ``top`` of a 30 x 20 (scale, accuracy) grid and at the cap,
        # and where the start lies past the search's first span.
        def scalar_loop(z, top):
            start, log_shrink = top, 0.0
            while log_shrink > -45.0:
                a = start + 0.5
                log_shrink += math.log(z / (a + math.sqrt(a * a + z * z)))
                start += 1
            ratio, ratios = 0.0, np.empty(start)
            for j in range(start, 0, -1):
                ratio = z / (2.0 * j + z * ratio)
                ratios[j - 1] = ratio
            products = np.cumprod(ratios)
            scaled_i0 = 1.0 / (1.0 + 2.0 * float(np.sum(products)))
            eps = np.finfo(float).eps
            damping = np.maximum.accumulate((ratios * np.append(ratios[1:], 0.0))[::-1])[::-1]
            ratio_error = float(np.sum(1.5 * eps / (1.0 - damping)))
            rel_error = 2.0 * (ratio_error + start * eps) + 4.0 * eps
            return scaled_i0 * np.concatenate(([1.0], products[:top])), rel_error

        cases = {(5e4, 10), (1e6, 1)}
        for scale in np.geomspace(0.3, 130.0, 30):
            z = 0.5 * (2.0 * float(scale)) ** 2  # K = 2 scale, z = K^2 / 2
            cases.add((z, rallfuller._DEGREE_CAP // 2 + 1))
            for accuracy in np.geomspace(1e-2, 1e-6, 20):
                cases.add((z, rallfuller._sized_terms(float(scale), float(accuracy))))
        for z, top in sorted(cases):
            values, rel_error = _scaled_bessel(z, top)
            reference, reference_error = scalar_loop(z, top)
            assert values.tobytes() == reference.tobytes(), (z, top)
            assert rel_error == reference_error, (z, top)

    def test_miller_recurrence_sized_to_kept_degree(self, monkeypatch):
        tops = []
        scaled_bessel = rallfuller._scaled_bessel

        def recorded(z, top):
            tops.append(top)
            return scaled_bessel(z, top)

        monkeypatch.setattr(rallfuller, "_scaled_bessel", recorded)
        assert erf_poly(1.05, 1e-3).degree == 9
        assert tops and max(tops) < 64

    def test_construction_failure_reports_error(self):
        with pytest.raises(PolynomialConstructionError) as info:
            erf_poly(600.0, 0.001)
        assert "best sup error" in str(info.value)

    def test_sized_terms_match_one_search_over_every_term(self):
        # Searching growing prefixes gives, bit for bit, what one search over
        # all 2 049 terms gives: where the first prefix holds the length,
        # where only a later one does, and where no length fits.
        cap = rallfuller._DEGREE_CAP // 2 + 1

        def full_length(scale, accuracy):
            big_k = 2.0 * scale
            z = 0.5 * big_k * big_k
            j = np.arange(cap)
            ratio = _amos_ratio(j, z)
            scaled_bessel = np.concatenate(([1.0], np.cumprod(ratio[:-1])))
            prefactor = 2.0 * big_k / math.sqrt(math.pi)
            remaining = prefactor * scaled_bessel * (1.0 + ratio) / ((1.0 - ratio) * (2.0 * j + 1.0))
            (small,) = np.nonzero(remaining <= 0.25 * accuracy)
            return (min(int(small[0]) + 2, cap), True) if small.size else (cap, False)

        regimes = set()
        for scale in np.geomspace(0.3, 2000.0, 40):
            for accuracy in np.geomspace(1e-1, 1e-8, 15):
                terms, fits = full_length(float(scale), float(accuracy))
                assert rallfuller._sized_terms(float(scale), float(accuracy)) == terms
                regimes.add("none fits" if not fits else "first" if terms <= 129 else "later")
        assert regimes == {"first", "later", "none fits"}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            erf_poly(-1.0, 0.1)
        with pytest.raises(ValueError):
            erf_poly(1.0, 1.5)


class TestParityClenshaw:
    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-17, reason="long double is no wider than double"
    )
    @settings(PROPERTY, max_examples=60)
    @given(st.integers(0, 900), st.floats(0.9, 0.999), st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0))
    def test_matches_long_double_chebval(self, degree, decay, seed, point):
        # Random series of one parity with geometric decay, summed at an
        # array of points (the ends and 0 among them) and at a 0-d point.
        parity = degree % 2
        rng = np.random.default_rng(seed)
        index = np.arange(parity, degree + 1, 2)
        coefficients = tuple((rng.standard_normal(index.size) * decay**index).tolist())
        series = padded(coefficients, parity)
        points = np.concatenate((rng.uniform(-1.0, 1.0, 61), [-1.0, 0.0, 1.0, point]))
        exact = ncheb.chebval(points.astype(np.longdouble), series.astype(np.longdouble))
        bound = 4 * (degree + 1) * np.finfo(float).eps * np.sum(np.abs(series))
        assert np.all(np.abs(_parity_clenshaw(points, coefficients, parity) - exact) <= bound)
        assert abs(_parity_clenshaw(np.asarray(point), coefficients, parity) - exact[-1]) <= bound

    @pytest.mark.parametrize("degree", [1, 2, 217, 4097])
    @pytest.mark.parametrize("rows", [1, 5])
    def test_stacked_rows_match_one_row_at_a_time_bit_for_bit(self, degree, rows):
        # Rows stacked in 2-D, a 3-D stack, and 2-D views that are not
        # contiguous (transposed, and every other column) are summed as one
        # flat array and come back in their own shape, each row's values
        # those of the row summed alone.
        rng = np.random.default_rng(degree)
        coefficients = tuple(rng.standard_normal(degree + 1).tolist())
        points = rng.uniform(-1.0, 1.0, (rows, degree + 1))
        cube = rng.uniform(-1.0, 1.0, (2, 2, degree + 1))
        wide = rng.uniform(-1.0, 1.0, (2, 2 * degree + 2))
        same = np.asarray
        for stack, rows_of in ((points, same), (cube, same), (points[:2].T, np.transpose),
                               (wide[:, ::2], same)):
            for parity in (0, 1):
                series = coefficients[parity::2]
                stacked = _parity_clenshaw(stack, series, parity)
                assert stacked.shape == stack.shape
                for row, values in zip(rows_of(stack).reshape(-1, degree + 1),
                                       rows_of(stacked).reshape(-1, degree + 1)):
                    alone = _parity_clenshaw(np.array(row), series, parity)
                    assert values.tobytes() == alone.tobytes()

    def test_erf_approximant_accurate_near_zero(self):
        # Degree 791, whose coefficients alternate in sign, so its terms all
        # add at u = T_2(t) = -1 (t = 0): there a plain recurrence in u loses
        # the small t^2 to 2u + 2 cancelling.
        approx = erf_poly(97.1, 0.001)
        assert approx.degree == 791
        points = np.concatenate((np.linspace(-2.0, 2.0, 2001), np.geomspace(1e-12, 0.1, 200)))
        exact = ncheb.chebval(
            points.astype(np.longdouble) / 2, padded(approx.coefficients, 1, np.longdouble)
        )
        bound = 4 * np.finfo(float).eps * sum(abs(c) for c in approx.coefficients)
        assert np.max(np.abs(approx.evaluate(points) - exact)) <= bound


class TestSemiPellian:
    def test_full_depth_unit_interval(self):
        interval = ConfidenceInterval(0.0, 1.0)
        params = rf_params(interval, 0.5)
        poly = semi_pellian(params.scale, params.k, interval)
        grid = np.linspace(-1, 1, 20001)
        values = poly.evaluate(grid)
        assert np.array_equal(poly.evaluate(-grid), values)
        assert np.max(np.abs(values)) <= 1 + 1e-9
        np.testing.assert_allclose(poly.evaluate(-grid), values, atol=1e-12)
        cert = poly.gap_certificate
        assert cert.left_max <= 0.5 - params.scale + 1e-9
        assert cert.right_min >= 0.5 + params.scale - 1e-9

    def test_certificate_within_analytic_envelope(self):
        interval = ConfidenceInterval(0.0, 1.0)
        params = rf_params(interval, 0.5)
        poly = semi_pellian(params.scale, params.k, interval)
        envelope = full_depth_gap_envelope()
        assert poly.gap_certificate.left_max <= envelope.left_upper + 1e-9
        assert poly.gap_certificate.right_min >= envelope.right_lower - 1e-9

    def test_low_depth_branch_certificate(self):
        width = 0.9**20
        interval = ConfidenceInterval(0.3 - width / 2, width)
        params = rf_params(interval, 0.5)
        poly = semi_pellian(params.scale, params.k, interval)
        cert = poly.gap_certificate
        assert cert.left_max <= 0.5 - params.scale + 1e-9
        assert cert.right_min >= 0.5 + params.scale - 1e-9

    def test_charged_degree_stops_where_series_decays(self):
        # Past the series' decay the assembled coefficients sit on the
        # interpolation's rounding floor (about 1e-17), which runs up to the
        # erf degree; the charged degree must not follow it there.
        width = 0.9**42
        interval = ConfidenceInterval(0.95 - width / 2, width)
        params = rf_params(interval, 0.0)
        poly = semi_pellian(params.scale, params.k, interval)
        assert poly.degree <= 0.8 * erf_poly(params.k, params.scale).degree

    @PROPERTY
    @given(intervals, st.floats(0.0, 1.0))
    @example(ConfidenceInterval(0.7 - 0.9**44 / 2, 0.9**44), 0.0)
    def test_assembled_series_matches_two_evaluation_interpolation(self, interval, beta):
        params = rf_params(interval, beta)
        erf_part = erf_poly(params.k, params.scale)
        nodes = ncheb.chebpts1(erf_part.degree + 1)
        # The one-evaluation construction rests on exactly antisymmetric nodes.
        assert np.array_equal(nodes[::-1], -nodes)
        scale, a_mid = params.scale, interval.a_mid
        denominator = 4.0 * scale + scale + 2.0

        def assembled(a):
            return (
                (1.0 + scale + erf_part.evaluate(a - a_mid))
                + (1.0 + scale + erf_part.evaluate(-a - a_mid))
            ) / denominator

        coef = _assembled_series(erf_part, scale, a_mid, denominator)
        reference = ncheb.chebinterpolate(assembled, erf_part.degree)
        # the reference runs to the odd index erf_part.degree, whose entry is zero too
        np.testing.assert_allclose(np.append(padded(coef, 0), 0.0), reference, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "scale, eta", [(1.0, 0.01), (44.34280552637824, 0.0011533774164292946)]
    )
    def test_stacked_assembly_matches_one_row_at_a_time_bit_for_bit(self, scale, eta):
        erf_part = erf_poly(scale, eta)
        rng = np.random.default_rng(1)
        a_mids = rng.uniform(0.0, 1.0, 6)
        denominators = 4.0 * eta + rng.uniform(0.001, 0.01, 6) + 2.0
        stacked = _assembled_series(erf_part, eta, a_mids[:, None], denominators[:, None])
        assert stacked.shape == (6, (erf_part.degree + 1) // 2)
        for row, a_mid, denominator in zip(stacked, a_mids, denominators):
            single = _assembled_series(erf_part, eta, float(a_mid), float(denominator))
            assert row.tobytes() == single.tobytes()

    def test_nodes_are_chebpts1_bit_for_bit(self):
        # _assembled_series computes chebpts1's formula inline; at a_mid = 0
        # the erf approximant is evaluated at the nodes themselves.
        class Recorder:
            def evaluate(self, x):
                self.points = x
                return np.zeros_like(x)

        recorder = Recorder()
        for points in range(1, 4098):
            recorder.degree = points - 1
            _assembled_series(recorder, 0.01, 0.0, 2.05)
            assert recorder.points.tobytes() == ncheb.chebpts1(points).tobytes(), points

    def test_one_erf_evaluation_per_construction(self, monkeypatch):
        calls = []
        evaluate = ErfApproximant.evaluate

        def counted(self, x):
            calls.append(np.size(x))
            return evaluate(self, x)

        monkeypatch.setattr(ErfApproximant, "evaluate", counted)
        _semi_pellians.clear()
        interval = ConfidenceInterval(0.3 - 0.9**20 / 2, 0.9**20)
        params = rf_params(interval, 0.5)
        poly = semi_pellian(params.scale, params.k, interval)
        assert calls == [erf_poly(params.k, params.scale).degree + 1]
        assert poly.degree < calls[0]

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= 1e-17, reason="long double is no wider than double"
    )
    @pytest.mark.parametrize(
        "step, degree",
        [
            ((0.0011533774164292946, 44.34280552637824, 0.09329135839721157, 0.013302794647291147), 204),
            ((0.0010380396747863654, 49.66511454455309, 0.29518633773901554, 0.01077526366430583), 230),
            ((0.01, 51.60638197416796, 0.6097467749685095, 0.020275559590445278), 194),
            ((0.01, 63.711582684157975, 0.6115715753316495, 0.016423203268260675), 236),
            ((0.0017579293041141515, 28.140201179524468, 0.6845032219078492, 0.030903154382632643), 140),
        ],
    )
    def test_charged_degree_matches_long_double_interpolation(self, step, degree):
        # Steps (scale, k, a_min, width) of traced runs where a
        # double-precision Vandermonde interpolation charged 2 above the
        # series: its rounding floor, a few 1e-14, crossed the trim budget.
        scale, k, a_min, width = step
        poly = semi_pellian(scale, k, ConfidenceInterval(a_min, width))
        ld = np.longdouble
        erf_part = erf_poly(k, scale)
        points = erf_part.degree + 1
        nodes = np.sin(np.arccos(ld(-1)) / (2 * points) * np.arange(1 - points, points + 1, 2, dtype=ld))
        series = padded(erf_part.coefficients, 1, ld)
        mid, shift = ld(a_min + 0.5 * width), 1 + ld(scale)
        values = (
            (shift + ncheb.chebval((nodes - mid) / 2, series))
            + (shift + ncheb.chebval((-nodes - mid) / 2, series))
        ) / ld(4.0 * scale + scale + 2.0)
        coef = ncheb.chebvander(nodes, points - 1).T @ values * (2 / ld(points))
        coef[0] /= 2
        coef[1::2] = 0
        tail = np.append(np.cumsum(np.abs(coef[::-1]))[::-1], 0)
        assert poly.degree == max(1, int(np.argmax(tail <= _TRIM_BUDGET))) - 1 == degree

    def test_gap_failure_raises(self):
        # a deliberately tiny erf scale cannot separate the segments
        interval = ConfidenceInterval(0.0, 1.0)
        with pytest.raises((GapCertificateError, PolynomialConstructionError)):
            semi_pellian(0.01, 1e-3, interval)

    def test_a_batch_build_gives_each_key_its_polynomial_or_its_own_error(self):
        params = rf_params(ConfidenceInterval(0.0, 1.0), 0.5)
        good = (params.scale, params.k, 0.0, 1.0)
        no_gap = (0.01, 1e-3, 0.0, 1.0)  # certification refuses it
        no_erf = (0.001, 600.0, 0.0, 1.0)  # its approximant cannot be built
        _semi_pellians.clear()
        built = rallfuller._build_semi_pellians([good, no_gap, no_erf, good])
        assert set(built) == {good, no_gap, no_erf}
        assert isinstance(built[no_gap], (GapCertificateError, PolynomialConstructionError))
        assert isinstance(built[no_erf], PolynomialConstructionError)
        assert list(_semi_pellians) == [good]  # errors are not cached
        # a cached key is read back as the same object
        assert rallfuller._build_semi_pellians([good])[good] is built[good]
        assert semi_pellian(params.scale, params.k, ConfidenceInterval(0.0, 1.0)) is built[good]

    def test_a_full_cache_evicts_its_oldest_key(self, monkeypatch):
        sentinels = [object() for _ in range(4096)]
        cache = dict.fromkeys(sentinels)
        monkeypatch.setattr(rallfuller, "_semi_pellians", cache)
        params = rf_params(ConfidenceInterval(0.0, 1.0), 0.5)
        key = (params.scale, params.k, 0.0, 1.0)
        rallfuller._build_semi_pellians([key])
        assert len(cache) == 4096
        assert sentinels[0] not in cache and sentinels[1] in cache and key in cache


def per_call_erf_poly(scale, accuracy):
    """erf_poly(scale, accuracy) built one numpy wrapper call at a time: the
    series length, Miller's recurrence (its ratios turned from a reversed
    list into an array), the series and its truncation with np.sum,
    np.cumsum, np.cumprod and np.append."""
    cap = rallfuller._DEGREE_CAP // 2 + 1
    big_k = 2.0 * scale
    z = 0.5 * big_k * big_k
    prefactor = 2.0 * big_k / math.sqrt(math.pi)
    terms = cap
    for size in (128, 512, cap):
        j = np.arange(size)
        ratio = _amos_ratio(j, z)
        scaled_bessel = np.concatenate(([1.0], np.cumprod(ratio[:-1])))
        remaining = prefactor * scaled_bessel * (1.0 + ratio) / ((1.0 - ratio) * (2.0 * j + 1.0))
        (small,) = np.nonzero(remaining <= 0.25 * accuracy)
        if small.size:
            terms = min(int(small[0]) + 2, cap)
            break
    span = 2 * terms + 64
    while True:
        log_shrink = np.cumsum(np.log(_amos_ratio(np.arange(terms, terms + span), z)))
        (reached,) = np.nonzero(log_shrink <= -45.0)
        if reached.size:
            break
        span *= 2
    start = terms + int(reached[0]) + 1
    ratio, backward = 0.0, []
    for j in range(start, 0, -1):
        ratio = z / (2.0 * j + z * ratio)
        backward.append(ratio)
    ratios = np.array(backward[::-1])
    products = np.cumprod(ratios)
    scaled_i0 = 1.0 / (1.0 + 2.0 * float(np.sum(products)))
    eps = np.finfo(float).eps
    damping = np.maximum.accumulate((ratios * np.append(ratios[1:], 0.0))[::-1])[::-1]
    ratio_error = float(np.sum(1.5 * eps / (1.0 - damping)))
    bessel_error = 2.0 * (ratio_error + start * eps) + 4.0 * eps
    bessel = scaled_i0 * np.concatenate(([1.0], products[:terms]))
    j = np.arange(terms)
    odd = prefactor * np.where(j % 2, -1.0, 1.0) * (bessel[:-1] + bessel[1:]) / (2 * j + 1)
    r = _amos_ratio(terms, z)
    remainder = prefactor * bessel[terms] * (1.0 + r) / ((1.0 - r) * (2 * terms + 1))
    rounding = (bessel_error + (terms + 8) * eps) * float(np.sum(np.abs(odd)))
    tail = np.cumsum(np.abs(odd[::-1]))[::-1]
    bound = np.append(tail[1:], 0.0)[: (rallfuller._DEGREE_CAP + 1) // 2] + (remainder + rounding)
    (fits,) = np.nonzero(bound <= accuracy)
    if not fits.size:
        raise PolynomialConstructionError(
            f"no odd polynomial of degree <= {rallfuller._DEGREE_CAP} reached accuracy {accuracy} "
            f"for erf({scale} x); best sup error {float(bound[-1])}"
        )
    cut = int(fits[0])
    return ErfApproximant(tuple(odd[: cut + 1].tolist()), float(bound[cut]))


def per_row_series(erf_part, scale, a_mid):
    """One row's untrimmed even-index coefficients, its erf approximant
    summed by a Clenshaw recurrence on that row alone."""
    points = erf_part.degree + 1
    t = (np.sin(0.5 * np.pi / points * np.arange(-points + 1, points + 1, 2)) - a_mid) / 2.0
    head, rest = erf_part.coefficients[0], erf_part.coefficients[:0:-1]
    w = 4.0 * t * t
    s, b, scratch = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
    for a in rest:
        np.multiply(w, b, scratch)
        np.add(scratch, a, scratch)
        np.subtract(scratch, s, s)
        np.subtract(s, b, b)
    shifted = 1.0 + scale + t * (head + (w - 2.0) * b - s)
    values = (shifted + shifted[::-1]) / (5.0 * scale + 2.0)
    spectrum = np.fft.rfft(np.concatenate((values, values)))[:points:2]
    coef = (spectrum * np.exp(-0.5j * np.pi / points * np.arange(0, points, 2))).real / points
    coef[0] *= 0.5
    return coef


def per_key_semi_pellian(scale, k, a_min, width):
    """The semi-Pellian at one key, or the error building it, from the per-call
    erf approximant, the per-row series and a per-row tail and cut."""
    try:
        erf_part = per_call_erf_poly(k, scale)
        coef = per_row_series(erf_part, scale, a_min + 0.5 * width)
        tail = np.append(np.cumsum(np.abs(coef[::-1]))[::-1], 0.0)
        cut = max(1, int(np.argmax(tail <= _TRIM_BUDGET)))
        kept = (coef[:cut].tolist(), float(tail[cut]))
        return rallfuller._certified(erf_part, kept, scale, k, a_min, width)
    except (PolynomialConstructionError, GapCertificateError) as err:
        return err


class TestBuildMatchesPerKeyPath:
    """Stacked, batched construction gives the per-key path's floats bit for bit."""

    def test_erf_approximants_match_per_call_construction(self):
        regimes = set()
        for scale in np.geomspace(0.3, 700.0, 25):
            for accuracy in np.geomspace(1e-2, 1e-6, 6):
                args = (float(scale), float(accuracy))
                try:
                    expected = per_call_erf_poly(*args)
                except PolynomialConstructionError as err:
                    with pytest.raises(PolynomialConstructionError) as info:
                        erf_poly.__wrapped__(*args)
                    assert str(info.value) == str(err)
                    regimes.add("over the cap")
                    continue
                approx = erf_poly.__wrapped__(*args)
                assert np.array(approx.coefficients).tobytes() == (
                    np.array(expected.coefficients).tobytes()), args
                assert approx.sup_error == expected.sup_error, args
                regimes.add("first prefix" if approx.degree < 256 else "later prefix")
        assert regimes == {"first prefix", "later prefix", "over the cap"}

    def test_step_groups_match_per_key_construction(self):
        # groups of 1-7 keys sharing a step's (scale, k), on both branches;
        # one group fails its gap certificate, one needs an approximant of
        # degree above the cap
        rng = np.random.default_rng(34)
        groups = [[(0.01, 1e-3, 0.1, 0.5), (0.01, 1e-3, 0.3, 0.5)], [(0.001, 600.0, 0.0, 1.0)]]
        branches = set()
        while len(groups) < 26:
            width = 0.9 ** int(rng.integers(0, 60))
            beta = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
            shallow_from, table = rallfuller._step_rule(width, beta)
            pick = int(rng.integers(0, len(table)))
            # the midpoints that pick this entry, inside [width / 2, 1 - width / 2]
            low, high = (0.5 * width, min(shallow_from, 1.0 - 0.5 * width)) if pick == 0 else (
                shallow_from, 1.0 - 0.5 * width)
            if low >= high:
                continue
            entry = table[pick]
            a_mins = rng.uniform(low, high, int(rng.integers(1, 8))) - 0.5 * width
            groups.append([(entry.scale, entry.k, float(a_min), width) for a_min in a_mins])
            branches.add(entry.branch)
        assert branches == {BRANCH_FULL_DEPTH, BRANCH_LOW_DEPTH}
        assert {len(group) for group in groups} >= {1, 7}
        outcomes = set()
        for group in groups:
            _semi_pellians.clear()
            erf_poly.cache_clear()
            built = rallfuller._build_semi_pellians(group)
            for key in group:
                expected, poly = per_key_semi_pellian(*key), built[key]
                assert type(poly) is type(expected), key
                outcomes.add(type(poly).__name__)
                if isinstance(expected, Exception):
                    assert str(poly) == str(expected)
                    continue
                assert np.array(poly.coefficients).tobytes() == (
                    np.array(expected.coefficients).tobytes()), key
                assert poly.gap_certificate == expected.gap_certificate, key
                scale, k = key[:2]
                assert erf_poly(k, scale).sup_error == per_call_erf_poly(k, scale).sup_error
        assert outcomes == {"SemiPellianPoly", "GapCertificateError", "PolynomialConstructionError"}


class TestGridReference:
    """The dense grids the constructions no longer sample, kept as checks."""

    @settings(PROPERTY, max_examples=25)
    @given(intervals, st.floats(0.0, 1.0))
    @example(ConfidenceInterval(0.3 - 0.9**40 / 2, 0.9**40), 0.5)
    @example(ConfidenceInterval(0.7 - 0.9**44 / 2, 0.9**44), 0.75)
    def test_unit_bound_and_erf_error_on_dense_grids(self, interval, beta):
        params = rf_params(interval, beta)
        poly = semi_pellian(params.scale, params.k, interval)
        values = poly.evaluate(np.linspace(-1.0, 1.0, 20_001))
        upper = (2.0 + 4.0 * params.scale) / (4.0 * params.scale + params.scale + 2.0)
        assert np.min(values) >= -CERT_TOL
        assert np.max(values) <= upper + CERT_TOL
        approx = erf_poly(params.k, params.scale)
        grid = np.linspace(-2.0, 2.0, 40_001)
        assert np.max(np.abs(approx.evaluate(grid) - erf(params.k * grid))) <= approx.sup_error

    @settings(PROPERTY, max_examples=25)
    @given(intervals, st.floats(0.0, 1.0))
    @example(ConfidenceInterval(0.3 - 0.9**40 / 2, 0.9**40), 0.5)
    @example(ConfidenceInterval(0.7 - 0.9**44 / 2, 0.9**44), 0.75)
    def test_gap_certificate_bounds_segment_grids(self, interval, beta):
        params = rf_params(interval, beta)
        poly = semi_pellian(params.scale, params.k, interval)
        segment = 0.1 * interval.width

        def segment_grid(start):
            return np.linspace(start, start + segment, max(33, math.ceil(segment * 10_000) + 1))

        cert = poly.gap_certificate
        assert cert.left_max >= np.max(poly.evaluate(segment_grid(interval.a_min)))
        right = segment_grid(interval.a_min + interval.width - segment)
        assert cert.right_min <= np.min(poly.evaluate(right))


class TestGapEnvelope:
    def test_reference_constants(self):
        envelope = full_depth_gap_envelope()
        assert envelope.left_upper == pytest.approx(0.472, abs=0.002)
        assert envelope.right_lower == pytest.approx(0.70541, abs=0.002)


class TestCoinTest:
    def test_all_heads_accepts(self):
        assert coin_test(150, 150, 0.1)

    def test_reference_toss_count(self):
        assert coin_tosses(0.1, 0.05) == 150  # ceil(50 ln 20)

    def test_calibration_both_directions(self):
        gamma, fail = 0.1, 0.05
        tosses = coin_tosses(gamma, fail)
        rng = SeedSpec(60, 0).rng()
        repetitions = 10_000
        high_p = (0.5 + gamma) ** 2
        low_p = (0.5 - gamma) ** 2
        accept_high = sum(
            coin_test(int(h), tosses, gamma) for h in rng.binomial(tosses, high_p, repetitions)
        )
        accept_low = sum(
            coin_test(int(h), tosses, gamma) for h in rng.binomial(tosses, low_p, repetitions)
        )
        sigma = math.sqrt(fail * (1 - fail) / repetitions)
        assert accept_high / repetitions >= 1 - fail - 3 * sigma
        assert accept_low / repetitions <= fail + 3 * sigma

    def test_rejects_out_of_range_heads(self):
        with pytest.raises(ValueError):
            coin_test(11, 10, 0.1)


def run_traced(truth, target, seed_index, seed_master=70):
    amplitude = Amplitude(truth)
    trace: list[StepRecord] = []
    ledger = ResourceLedger()
    estimate = rall_fuller_estimate(
        lambda poly: PolyOracle(poly, amplitude),
        target,
        seed=SeedSpec(seed_master, seed_index),
        ledger=ledger,
        trace=trace,
    )
    return estimate, trace, ledger


class TestRallFullerEstimate:
    def test_step_count_and_exact_shrink(self):
        target = TargetSpec(0.01, 0.05, 0.5)
        estimate, trace, _ = run_traced(0.3, target, 0)
        assert len(trace) == 44  # ceil(log_0.9 0.01)
        for before, after in zip(trace, trace[1:]):
            assert after.width == 0.9 * before.width
            assert after.a_min >= before.a_min - 1e-15
            assert after.a_min + after.width <= before.a_min + before.width + 1e-12
        assert abs(estimate - 0.3) <= target.epsilon

    def test_success_and_containment_over_trials(self):
        target = TargetSpec(0.02, 0.1, 0.5)
        truth = 0.3
        trials = 40
        wins = 0
        containment_ok = 0
        for index in range(trials):
            estimate, trace, _ = run_traced(truth, target, index + 1)
            wins += abs(estimate - truth) <= target.epsilon
            containment_ok += all(
                record.a_min - 1e-12 <= truth <= record.a_min + record.width + 1e-12
                for record in trace
            )
        assert wins / trials >= 1 - target.delta - 3 * math.sqrt(target.delta / trials)
        assert containment_ok / trials >= 1 - target.delta - 3 * math.sqrt(target.delta / trials)

    def test_branch_transition_two_phase(self):
        target = TargetSpec(0.01, 0.05, 0.5)
        _, trace, _ = run_traced(0.3, target, 2)
        branches = [record.branch for record in trace]
        switch = branches.index(BRANCH_LOW_DEPTH)
        # once shallow, always shallow for a midpoint tracking 0.3
        assert all(branch == BRANCH_FULL_DEPTH for branch in branches[:switch])
        assert all(branch == BRANCH_LOW_DEPTH for branch in branches[switch:])

    def test_depth_profile_slopes(self):
        # per-step depth (polynomial degree) scales like width^-1 on the
        # full-depth phase and width^-(1-beta) on the shallow phase
        target = TargetSpec(0.01, 0.05, 0.5)
        _, trace, _ = run_traced(0.3, target, 3)
        full = [(r.width, r.poly_degree) for r in trace if r.branch == BRANCH_FULL_DEPTH]
        low = [(r.width, r.poly_degree) for r in trace if r.branch == BRANCH_LOW_DEPTH]
        # fit away from the constant-degree floor at tiny erf scale
        full_fit = [(w, d) for w, d in full if w <= 0.5]
        slope_full = np.polyfit(
            np.log([w for w, _ in full_fit]), np.log([d for _, d in full_fit]), 1
        )[0]
        slope_low = np.polyfit(np.log([w for w, _ in low]), np.log([d for _, d in low]), 1)[0]
        assert abs(slope_full - (-1.0)) <= 0.3
        assert abs(slope_low - (-0.5)) <= 0.2

    def test_final_depth_exponent_over_epsilon_sweep(self):
        # with the truth fixed, final max depth grows like eps^-(1-beta)
        truth, beta = 0.3, 0.5
        depths = []
        epsilons = [0.04, 0.02, 0.01, 0.005]
        for index, eps in enumerate(epsilons):
            _, _, ledger = run_traced(truth, TargetSpec(eps, 0.05, beta), index, seed_master=71)
            depths.append(ledger.max_depth)
        slope = np.polyfit(np.log(epsilons), np.log(depths), 1)[0]
        assert abs(slope - (-(1 - beta))) <= 0.2

    def test_deterministic_given_seed(self):
        target = TargetSpec(0.05, 0.1, 0.5)
        first, _, ledger_a = run_traced(0.42, target, 9)
        second, _, ledger_b = run_traced(0.42, target, 9)
        assert first == second
        assert ledger_a == ledger_b


def reference_trial(truth, target, seed, ledger, trace):
    """One Rall-Fuller trial stepped alone, through the public step functions."""
    steps = ceil_int(math.log(target.epsilon) / math.log(SHRINK_FACTOR))
    interval = ConfidenceInterval(0.0, 1.0)
    rng = derive_stream(seed, 0).rng()
    for step in range(steps):
        params = rf_params(interval, target.beta)
        poly = semi_pellian(params.scale, params.k, interval)
        tosses = coin_tosses(params.scale, target.delta / steps)
        heads = poly_sample(PolyOracle(poly, Amplitude(truth)), tosses, rng, ledger)
        trace.append(StepRecord(step, params.branch, params.k, params.scale, tosses, heads,
                                poly.degree, interval.a_min, interval.width))
        on_right = coin_test(heads, tosses, params.scale)
        interval = interval.discard_left() if on_right else interval.discard_right()
    return interval.a_mid


class TestLockstep:
    @settings(PROPERTY, max_examples=15)
    @given(
        truth=st.one_of(st.sampled_from([0.003, 1.0]), st.floats(0.003, 1.0)),
        beta=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        epsilon=st.sampled_from([0.1, 0.05, 0.03]),
        master=st.integers(0, 2**16),
        trials=st.integers(1, 4),
    )
    @example(truth=0.003, beta=0.5, epsilon=0.03, master=1, trials=4)
    @example(truth=1.0, beta=0.25, epsilon=0.03, master=2, trials=4)
    # trials 0 and 1 take different branches at step 26
    @example(truth=0.12784185908520773, beta=0.5, epsilon=0.05, master=1, trials=4)
    def test_batch_steps_each_trial_as_it_would_step_alone(self, truth, beta, epsilon, master, trials):
        # The per-step branch parameters, toss counts and discard offsets
        # give every trial the estimate, ledger and trace it gets alone.
        target = TargetSpec(epsilon, 0.05, beta)
        amplitude = Amplitude(truth)
        seeds = [SeedSpec(master, index) for index in range(trials)]
        ledgers, traces = [ResourceLedger() for _ in seeds], [[] for _ in seeds]
        estimates = list(rallfuller.rall_fuller_lockstep(
            lambda poly: PolyOracle(poly, amplitude), RfPlan.from_target(target), seeds, ledgers,
            traces))
        for seed, estimate, ledger, trace in zip(seeds, estimates, ledgers, traces):
            alone, alone_trace = ResourceLedger(), []
            assert reference_trial(truth, target, seed, alone, alone_trace) == estimate
            assert (alone, alone_trace) == (ledger, trace)

    def test_kappa_runs_at_most_three_times_a_step(self, monkeypatch):
        # a 16-trial batch whose trials split between the branches at step 26; the
        # plan is built while kappa is counted, so its calls are all counted
        calls = []
        monkeypatch.setattr(rallfuller, "kappa",
                            lambda scale, _kappa=rallfuller.kappa: calls.append(scale) or _kappa(scale))
        target, amplitude = TargetSpec(0.05, 0.05, 0.5), Amplitude(0.12784185908520773)
        seeds = [SeedSpec(1, index) for index in range(16)]
        traces = [[] for _ in seeds]
        list(rallfuller.rall_fuller_lockstep(lambda poly: PolyOracle(poly, amplitude),
                                             RfPlan.from_target(target), seeds,
                                             [ResourceLedger() for _ in seeds], traces))
        assert {trace[26].branch for trace in traces} == {BRANCH_FULL_DEPTH, BRANCH_LOW_DEPTH}
        assert len(calls) <= 3 * len(traces[0]) == 3 * 29


class TestCheckReachable:
    def test_builds_the_approximant_the_last_full_depth_step_reads(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rallfuller, "erf_poly",
                            lambda k, scale, _build=erf_poly: calls.append((k, scale)) or _build(k, scale))
        target = TargetSpec(0.05, 0.1, 0.0)
        RfPlan.from_target(target)
        assert len(calls) == 1
        _, trace, _ = run_traced(0.4, target, 0)
        assert calls[0] == (trace[-1].k, trace[-1].gamma)

    def test_a_last_step_it_cannot_build_is_a_value_error(self):
        with pytest.raises(ValueError, match="no odd polynomial of degree <= 4096"):
            RfPlan.from_target(TargetSpec(0.001, 0.05, 0.0))

    def test_beta_above_zero_builds_the_last_forced_step(self, monkeypatch):
        # width^0.25 exceeds the cap for the first 35 of the 44 steps, so every
        # trial takes the full-depth branch there, whatever its path
        calls, widths, rule = [], [], rallfuller._step_rule
        monkeypatch.setattr(rallfuller, "erf_poly",
                            lambda k, scale: calls.append((k, scale)) or erf_poly(k, scale))
        monkeypatch.setattr(rallfuller, "_step_rule",
                            lambda width, beta: widths.append(width) or rule(width, beta))
        target = TargetSpec(0.01, 0.1, 0.25)
        plan = RfPlan.from_target(target)
        monkeypatch.undo()
        _, trace, _ = run_traced(0.4, target, 0)
        forced = [record for record in trace if record.width**0.25 > rallfuller.LOW_DEPTH_WIDTH_CAP]
        assert len(forced) == 35 and len(trace) == 44
        assert {record.branch for record in forced} == {BRANCH_FULL_DEPTH}
        assert trace[-1].branch == BRANCH_LOW_DEPTH
        assert calls == [(forced[-1].k, forced[-1].gamma)]
        # the rule runs once per step, at the step's width, all while the plan is built
        assert widths == list(plan.widths[:-1]) == [record.width for record in trace]


class TestRfPlan:
    @settings(PROPERTY, max_examples=25)
    @given(
        epsilon=st.floats(0.003, 0.9),
        delta=st.floats(1e-6, 0.5),
        beta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    )
    @example(epsilon=0.003, delta=0.05, beta=0.0)  # the largest forced k drawn
    @example(epsilon=0.9, delta=0.5, beta=1.0)  # one step
    def test_holds_the_rule_and_tosses_at_each_width_of_the_schedule(self, epsilon, delta, beta):
        plan = RfPlan.from_target(TargetSpec(epsilon, delta, beta))
        steps = ceil_int(math.log(epsilon) / math.log(SHRINK_FACTOR))
        widths = [1.0]
        for _ in range(steps):
            widths.append(SHRINK_FACTOR * widths[-1])
        assert plan.widths == tuple(widths) and len(plan.steps) == steps
        for width, (shallow_from, table, tosses) in zip(widths, plan.steps):
            assert (shallow_from, list(table)) == rallfuller._step_rule(width, beta)
            assert tosses == tuple(coin_tosses(entry.scale, delta / steps) for entry in table)
        forced = [table for _, table, _ in plan.steps if len(table) == 1][-1]
        assert forced == (plan.forced,) and plan.forced.branch == BRANCH_FULL_DEPTH
        # a plan pickles as itself, as the harness's other records do
        copy = pickle.loads(pickle.dumps(plan))
        assert type(copy) is RfPlan and copy == plan

    def test_the_lockstep_works_out_no_step_rule_or_toss_count(self, monkeypatch):
        target, amplitude = TargetSpec(0.05, 0.05, 0.5), Amplitude(0.12784185908520773)
        plan = RfPlan.from_target(target)
        calls = []
        for name in ("_step_rule", "coin_tosses"):
            monkeypatch.setattr(rallfuller, name, lambda *args, name=name: calls.append(name))
        seeds = [SeedSpec(1, index) for index in range(16)]
        traces = [[] for _ in seeds]
        estimates = list(rallfuller.rall_fuller_lockstep(
            lambda poly: PolyOracle(poly, amplitude), plan, seeds,
            [ResourceLedger() for _ in seeds], traces))
        assert calls == [] and len(estimates) == 16
        # both branches ran, and each step's count is the plan's for the branch it took
        assert {trace[26].branch for trace in traces} == {BRANCH_FULL_DEPTH, BRANCH_LOW_DEPTH}
        for trace in traces:
            for record, (_, table, tosses) in zip(trace, plan.steps):
                assert record.tosses == dict(zip([e.branch for e in table], tosses))[record.branch]


class TestPhaseThreshold:
    def test_reference_values(self):
        threshold = phase_threshold(0.1, 0.5)
        assert threshold.epsilon_threshold == pytest.approx(0.01, rel=1e-9)
        assert threshold.step_index == 44
        threshold = phase_threshold(0.1, 0.75)
        assert threshold.epsilon_threshold == pytest.approx(1e-4, rel=1e-9)
        assert threshold.step_index == 88

    def test_unit_amplitude_is_immediately_shallow(self):
        assert phase_threshold(1.0, 0.5).step_index == 0

    def test_rejects_beta_one_and_bad_amplitude(self):
        with pytest.raises(ValueError):
            phase_threshold(0.1, 1.0)
        with pytest.raises(ValueError):
            phase_threshold(0.0, 0.5)
