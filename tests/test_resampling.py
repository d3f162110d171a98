"""Resampling distributional checks and weight diagnostics.

The resamplers and ess take normalized weights, as the filters hold
them; the tests build those with weigh_log_weights from log weights.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from paramsmc.errors import TotalDegeneracyError
from paramsmc.resampling import (
    RESAMPLERS,
    distinct_sorted,
    ess,
    multinomial_resample,
    systematic_resample,
    weigh_log_weights,
)
from paramsmc.rng import substream


class TestMultinomial:
    def test_uniform_frequencies(self):
        rng = substream(0, 0)
        logw = np.zeros(4)
        counts = np.zeros(4)
        n_rounds = 100_000 // 4
        for _ in range(n_rounds):
            anc = multinomial_resample(weigh_log_weights(logw)[0], rng)
            counts += np.bincount(anc, minlength=4)
        total = counts.sum()
        freq = counts / total
        sigma = np.sqrt(0.25 * 0.75 / total)
        assert np.all(np.abs(freq - 0.25) < 3 * sigma + 1e-6)

    def test_point_mass(self):
        logw = np.log(np.array([0.0, 0.0, 1.0, 0.0]) + 1e-300)
        anc = multinomial_resample(weigh_log_weights(logw)[0], substream(1, 0))
        assert np.all(anc == 2)

    def test_chi_square_on_skewed_weights(self):
        rng = substream(2, 0)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        logw = np.log(w)
        n_draws = 100_000
        counts = np.zeros(4)
        for _ in range(n_draws // 4):
            counts += np.bincount(multinomial_resample(weigh_log_weights(logw)[0], rng), minlength=4)
        expected = w / w.sum() * counts.sum()
        chi2 = stats.chisquare(counts, expected)
        assert chi2.pvalue > 0.01

    def test_sorted_output(self):
        rng = substream(3, 0)
        logw = rng.standard_normal(257)
        anc = multinomial_resample(weigh_log_weights(logw)[0], substream(3, 1))
        assert np.all(np.diff(anc) >= 0)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000), st.floats(-200, 200))
    def test_shift_invariance(self, seed, shift):
        # through the composition the filters use: weigh, then resample
        logw = substream(seed, 0).standard_normal(64)
        a = multinomial_resample(weigh_log_weights(logw)[0], substream(seed, 1))
        b = multinomial_resample(weigh_log_weights(logw + shift)[0], substream(seed, 1))
        assert np.array_equal(a, b)


class TestSystematic:
    def test_sorted_and_in_range(self):
        logw = substream(6, 0).standard_normal(100)
        anc = systematic_resample(weigh_log_weights(logw)[0], substream(6, 1))
        assert np.all(np.diff(anc) >= 0)
        assert np.all((anc >= 0) & (anc < 100))

    def test_uniform_weights_give_near_identity(self):
        anc = systematic_resample(weigh_log_weights(np.zeros(100))[0], substream(7, 0))
        # each index appears exactly once under uniform weights
        assert np.array_equal(np.sort(anc), np.arange(100))


class TestEss:
    def test_uniform(self):
        assert np.isclose(ess(weigh_log_weights(np.zeros(50))[0]), 50.0)

    def test_point_mass(self):
        logw = np.log(np.array([1e-300, 1.0, 1e-300]))
        assert np.isclose(ess(weigh_log_weights(logw)[0]), 1.0, atol=1e-6)

    def test_hand_computed(self):
        # w = (1, 1, 2): (sum w)^2 / sum w^2 = 16/6
        w = weigh_log_weights(np.log(np.array([1.0, 1.0, 2.0])))[0]
        assert np.isclose(ess(w), 16.0 / 6.0)

    def test_leaves_the_error_state_to_its_caller(self):
        # a weight of 1e-200 squares below the smallest double; the filters hold under="ignore"
        w = np.array([1e-200, 1.0])
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            ess(w)
        with np.errstate(under="ignore"):
            assert ess(w) == 1.0

    @settings(max_examples=30)
    @given(st.integers(2, 200), st.integers(0, 10_000))
    def test_bounds(self, n, seed):
        logw = substream(seed, 0).standard_normal(n) * 3
        val = ess(weigh_log_weights(logw)[0])
        assert 1.0 - 1e-9 <= val <= n + 1e-9


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_log_mean_exp(log_values):
    """The np.max / np.mean formula weigh_log_weights's increment is required to equal bit for bit."""
    lv = np.asarray(log_values, dtype=np.float64)
    m = np.max(lv)
    if not np.isfinite(m):
        return float(m)
    with np.errstate(under="ignore"):
        return float(m + np.log(np.mean(np.exp(lv - m))))


def reference_normalize_log_weights(log_weights):
    """The separate-NaN-pass formula weigh_log_weights's weights are required to equal."""
    lw = np.asarray(log_weights, dtype=np.float64)
    if np.any(np.isnan(lw)):
        raise TotalDegeneracyError("NaN particle weight")
    m = np.max(lw)
    if not np.isfinite(m):
        raise TotalDegeneracyError("every particle weight is zero")
    with np.errstate(under="ignore"):
        w = np.exp(lw - m)
    return w / w.sum()


def reference_inputs():
    rng = substream(21, 0)
    cases = [rng.standard_normal(n) * 30 for n in (1, 2, 7, 50, 1000, 4099)]
    cases.append(np.array([-1000.0, -1001.0]))
    cases.append(np.array([-np.inf, 0.5, -np.inf, -2.0]))
    cases.append(rng.standard_normal(50) * 1e3 - 1e5)
    return cases


def weigh_inputs():
    """reference_inputs plus random log weights with -inf entries, at N = 1, 2, 50 and 1000."""
    cases = reference_inputs()
    for n in (1, 2, 50, 1000):
        for seed in range(3):
            rng = substream(24, 10 * n + seed)
            lw = rng.standard_normal(n) * 30
            zero = rng.random(n) < 0.3
            zero[rng.integers(n)] = False  # one weight stays positive
            lw[zero] = -np.inf
            cases.append(lw)
    return cases


class TestAgainstReferenceFormulas:
    @pytest.mark.parametrize("case", range(len(reference_inputs())))
    def test_log_mean_exp_bits(self, case):
        # the log-mean-exp of the log weights is weigh_log_weights's increment
        lv = reference_inputs()[case]
        assert same_bits(weigh_log_weights(lv)[1], reference_log_mean_exp(lv))

    @pytest.mark.parametrize("case", range(len(reference_inputs())))
    def test_normalize_bits(self, case):
        lw = reference_inputs()[case]
        assert same_bits(weigh_log_weights(lw)[0], reference_normalize_log_weights(lw))

    @pytest.mark.parametrize(
        "lw",
        [
            [0.0, np.nan],
            [np.nan, -np.inf],
            [-np.inf, np.nan, np.inf],
            [np.inf, np.nan],
            [-np.inf] * 8,
            [-np.inf, np.inf],
            [np.nan],
        ],
    )
    def test_normalize_error_messages(self, lw):
        with pytest.raises(TotalDegeneracyError) as expected:
            reference_normalize_log_weights(np.array(lw))
        with pytest.raises(TotalDegeneracyError) as got:
            weigh_log_weights(np.array(lw))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("case", range(len(weigh_inputs())))
    def test_weigh_is_normalize_and_log_mean_exp_bits(self, case):
        lw = weigh_inputs()[case]
        w, increment = weigh_log_weights(lw)
        assert same_bits(w, reference_normalize_log_weights(lw))
        assert type(increment) is float
        assert same_bits(increment, reference_log_mean_exp(lw))

    @pytest.mark.parametrize(
        "ancestors",
        [
            np.array([3]),
            np.zeros(7, dtype=np.int64),
            np.full(5, 4, dtype=np.int64),
            np.arange(6),
            np.array([0, 0, 1, 4, 4, 4, 9]),
            np.array([], dtype=np.int64),
        ],
    )
    def test_distinct_sorted_matches_unique(self, ancestors):
        unique, inverse = distinct_sorted(ancestors)
        ref_unique, ref_inverse = np.unique(ancestors, return_inverse=True)
        assert same_bits(unique, ref_unique)
        assert same_bits(inverse, ref_inverse)

    @pytest.mark.parametrize("name", sorted(RESAMPLERS))
    @pytest.mark.parametrize("seed", range(5))
    def test_distinct_sorted_on_resampler_output(self, name, seed):
        rng = substream(22, seed)
        w = weigh_log_weights(rng.standard_normal(200) * 2)[0]
        anc = RESAMPLERS[name](w, rng)
        unique, inverse = distinct_sorted(anc)
        ref_unique, ref_inverse = np.unique(anc, return_inverse=True)
        assert same_bits(unique, ref_unique)
        assert same_bits(inverse, ref_inverse)
        assert np.array_equal(unique[inverse], anc)


class TestNormalize:
    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_simplex(self, seed):
        logw = substream(seed, 0).standard_normal(32) * 5
        w = weigh_log_weights(logw)[0]
        assert np.isclose(w.sum(), 1.0)
        assert np.all(w >= 0)

    def test_all_zero_weights_abort(self):
        with pytest.raises(TotalDegeneracyError):
            weigh_log_weights(np.full(8, -np.inf))

    def test_nan_weight_aborts(self):
        with pytest.raises(TotalDegeneracyError):
            weigh_log_weights(np.array([0.0, np.nan]))
