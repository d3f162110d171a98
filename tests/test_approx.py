"""Projection-update correctness against independent closed forms.

Oracles used here:
* product of two Gaussians: posterior N(m, v) with 1/v = 1/v1 + 1/v2 and
  m = v*(m1/v1 + m2/v2); normalizer Z = N(m1; m2, v1 + v2),
* Gaussian moment ratios for polynomial likelihood hooks,
* brute-force joint enumeration for factorized discrete tables.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramsmc import approx
from paramsmc.approx import (
    CODE_BLOCK,
    COMPONENT_WEIGHT_FLOOR,
    JITTER_RELATIVE,
    LOG_MASS_FLOOR,
    DiscreteCloud,
    FactorizedDiscreteApprox,
    GaussianApprox,
    MixtureApprox,
    MixtureCloud,
    MomentScheme,
    batch_cholesky,
    batch_discrete_match,
    batch_gaussian_points,
    batch_mixture_match,
    batch_moment_match,
    discrete_update,
    enumerate_codes,
    exhaustive_log_prior,
    gauss_hermite,
    gaussian_update,
    mixture_update,
    monte_carlo,
    sample_codes,
    unscented,
)
from paramsmc.benchmarks import slam_large, slam_small
from paramsmc.engine import FilterConfig, run_assumed_density_filter
from paramsmc.errors import DegenerateUpdateError, PointBudgetError
from paramsmc.model import ParamLikelihood, gaussian_logpdf, simulate
from paramsmc.quadrature import DEFAULT_POINT_BUDGET, standard_gauss_hermite_grid
from paramsmc.rng import substream


def conjugate_product(m1, v1, m2, v2):
    """Moments and normalizer of N(theta; m1, v1) * N(theta; m2, v2)."""
    precision = 1.0 / v1 + 1.0 / v2
    v = 1.0 / precision
    m = v * (m1 / v1 + m2 / v2)
    z = np.exp(gaussian_logpdf(m1, m2, np.sqrt(v1 + v2)))
    return m, v, z


def gaussian_loglik(mean, sd):
    def log_t(thetas):
        return gaussian_logpdf(thetas[:, 0], mean, sd)

    return log_t


class TestGaussianUpdate:
    def test_constant_likelihood_is_identity(self):
        q = GaussianApprox(np.array([0.3]), np.array([[1.7]]))
        for scheme in (gauss_hermite(7), unscented()):
            out = gaussian_update(q, lambda th: np.zeros(th.shape[0]), scheme)
            assert np.allclose(out.mean, q.mean, atol=1e-10)
            assert np.allclose(out.cov, q.cov, atol=1e-10)

    def test_conjugate_oracle_gauss_hermite(self):
        # The rule is exact for polynomial integrands only; against a
        # Gaussian likelihood the M=7 error is ~1.3e-4 (mean) and ~6e-3
        # (variance), shrinking super-exponentially with M.
        q = GaussianApprox(np.zeros(1), np.eye(1))
        m, v, _ = conjugate_product(0.0, 1.0, 1.0, 1.0)
        assert (m, v) == (0.5, 0.5)
        out = gaussian_update(q, gaussian_loglik(1.0, 1.0), gauss_hermite(7))
        assert abs(out.mean[0] - m) < 1e-3
        assert abs(out.cov[0, 0] - v) < 1e-2

    @pytest.mark.parametrize("m_points,tol", [(7, 1e-3), (15, 1e-6), (21, 1e-8)])
    def test_conjugate_oracle_convergence_in_m(self, m_points, tol):
        q = GaussianApprox(np.zeros(1), np.eye(1))
        out = gaussian_update(q, gaussian_loglik(1.0, 1.0), gauss_hermite(m_points))
        assert abs(out.mean[0] - 0.5) < tol
        assert abs(out.cov[0, 0] - 0.5) < 10 * tol

    def test_conjugate_oracle_monte_carlo(self):
        q = GaussianApprox(np.zeros(1), np.eye(1))
        out = gaussian_update(
            q, gaussian_loglik(1.0, 1.0), monte_carlo(100_000), substream(7, 0)
        )
        assert abs(out.mean[0] - 0.5) < 0.01
        assert abs(out.cov[0, 0] - 0.5) < 0.02

    def test_conjugate_oracle_monte_carlo_three_se(self):
        q = GaussianApprox(np.zeros(1), np.eye(1))
        estimates = np.array(
            [
                gaussian_update(
                    q, gaussian_loglik(1.0, 1.0), monte_carlo(100_000), substream(s, 0)
                ).mean[0]
                for s in range(20)
            ]
        )
        se = estimates.std(ddof=1)
        assert abs(np.median(estimates) - 0.5) <= 3 * se

    def test_polynomial_hook(self):
        # t(theta) = theta^4 against N(0,1): matched mean 0 and
        # variance E[theta^6]/E[theta^4] = 15/3 = 5.  The relative
        # diagonal jitter (1e-9) is inside the stated tolerance.
        q = GaussianApprox(np.zeros(1), np.eye(1))

        def log_t(thetas):
            with np.errstate(divide="ignore"):
                return 4.0 * np.log(np.abs(thetas[:, 0]))

        out = gaussian_update(q, log_t, gauss_hermite(7))
        assert abs(out.mean[0]) < 1e-9
        assert abs(out.cov[0, 0] - 5.0) / 5.0 < 2e-9

    def test_unscented_identity_map(self):
        q = GaussianApprox(np.array([1.2, -0.3]), np.array([[2.0, 0.5], [0.5, 1.0]]))
        out = gaussian_update(q, lambda th: np.zeros(th.shape[0]), unscented())
        assert np.allclose(out.mean, q.mean, atol=1e-10)
        assert np.allclose(out.cov, q.cov, atol=1e-8)

    def test_degenerate_raises(self):
        q = GaussianApprox(np.zeros(1), np.eye(1))
        with pytest.raises(DegenerateUpdateError):
            gaussian_update(q, lambda th: np.full(th.shape[0], -np.inf), gauss_hermite(7))

    def test_zero_variance_match_is_degenerate(self):
        # All of the likelihood mass lands on one of the seven points, so
        # the matched variance cancels to -2.2e-16 instead of a positive value.
        q = GaussianApprox(np.zeros(1), np.eye(1))
        with pytest.raises(DegenerateUpdateError):
            gaussian_update(q, lambda th: -30.0 * (th[:, 0] - 1.272) ** 2, gauss_hermite(7))

    def test_point_budget_checked_before_the_grid_is_built(self):
        assert 11**5 > DEFAULT_POINT_BUDGET
        standard_gauss_hermite_grid.cache_clear()
        q = GaussianApprox(np.zeros(5), np.eye(5))
        with pytest.raises(PointBudgetError):
            gaussian_update(q, lambda th: np.zeros(th.shape[0]), MomentScheme("gauss_hermite", 11))
        assert standard_gauss_hermite_grid.cache_info().misses == 0

    def test_monte_carlo_convergence_rate(self):
        # error vs the conjugate oracle should decay like M^(-1/2)
        q = GaussianApprox(np.zeros(1), np.eye(1))
        ms = [100, 1_000, 10_000, 100_000]
        slopes = []
        for seed in range(20):
            errs = []
            for i, m in enumerate(ms):
                out = gaussian_update(
                    q, gaussian_loglik(1.0, 1.0), monte_carlo(m), substream(seed, i)
                )
                errs.append(abs(out.mean[0] - 0.5) + 1e-12)
            slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
            slopes.append(slope)
        assert -0.7 <= np.median(slopes) <= -0.3

    @pytest.mark.parametrize("m, sd", [(0.0, 1e-3), (1e3, 1e-3), (1e4, 1e-3), (1e5, 1e-3), (1e6, 1e-2)])
    def test_update_is_the_same_at_any_location(self, m, sd):
        # N(m, sd^2) by the factor N(m + sd; theta, sd^2): exact N(m + sd/2, sd^2/2).
        # Seven points give 1.012466 of the exact variance wherever the prior
        # sits; sums over the raw points gave 1.043 at m = 1e4 and raised
        # DegenerateUpdateError (a variance <= 0) at 1e5.
        q = GaussianApprox(np.array([m]), np.array([[sd * sd]]))
        out = gaussian_update(q, lambda th: gaussian_logpdf(m + sd, th[:, 0], sd), gauss_hermite(7))
        assert out.cov[0, 0] / (0.5 * sd * sd) == pytest.approx(1.012466, rel=1e-6)
        assert (out.mean[0] - m) / sd == pytest.approx(0.5 - 1.321e-4, rel=1e-6)

    @pytest.mark.parametrize("m", [1e3, 1e4, 1e5])
    def test_update_is_the_same_at_any_location_p2_and_monte_carlo(self, m):
        # a correlated two-parameter prior around (m, -m) and a factor
        # offset by one prior sd on each axis; the updates at m must equal
        # those around the origin, in units of the prior's spread
        sd = 1e-3
        cov = sd * sd * np.array([[1.0, 0.3], [0.3, 0.5]])
        center = np.array([m, -m])

        def update(loc, scheme, rng=None):
            def log_t(th):
                return gaussian_logpdf(loc[0] + sd, th[:, 0], sd) + gaussian_logpdf(loc[1] - sd, th[:, 1], sd)

            out = gaussian_update(GaussianApprox(loc, cov), log_t, scheme, rng)
            return (out.mean - loc) / sd, out.cov / (sd * sd)

        for scheme, seed in ((gauss_hermite(7), None), (unscented(), None), (monte_carlo(200), 5)):
            rng = None if seed is None else substream(seed, 0)
            near = update(np.zeros(2), scheme, rng)
            far = update(center, scheme, None if seed is None else substream(seed, 0))
            for a, b in zip(near, far):
                np.testing.assert_allclose(b, a, rtol=1e-5, atol=1e-7)

    def test_2d_conjugate(self):
        # likelihood no narrower than the prior, so the grid under the
        # prior resolves the product well
        q = GaussianApprox(np.zeros(2), np.diag([1.0, 1.0]))
        target_mean = np.array([0.5, -0.5])
        target_cov = np.diag([1.0, 2.0])

        def log_t(thetas):
            out = np.zeros(thetas.shape[0])
            for i in range(2):
                out += gaussian_logpdf(thetas[:, i], target_mean[i], np.sqrt(target_cov[i, i]))
            return out

        out = gaussian_update(q, log_t, gauss_hermite(15))
        for i in range(2):
            m, v, _ = conjugate_product(0.0, q.cov[i, i], target_mean[i], target_cov[i, i])
            assert abs(out.mean[i] - m) < 1e-5
            assert abs(out.cov[i, i] - v) < 1e-5


class TestMixtureUpdate:
    def test_single_component_matches_gaussian_update(self):
        q1 = GaussianApprox(np.array([0.2]), np.array([[1.5]]))
        qm = MixtureApprox(np.array([1.0]), np.array([[0.2]]), np.array([[[1.5]]]))
        log_t = gaussian_loglik(0.8, 0.7)
        a = gaussian_update(q1, log_t, gauss_hermite(7))
        b = mixture_update(qm, log_t, gauss_hermite(7))
        assert b.weights.shape == (1,)
        assert abs(b.weights[0] - 1.0) < 1e-12
        assert np.allclose(a.mean, b.means[0], atol=1e-10)
        assert np.allclose(a.cov, b.covs[0], atol=1e-10)

    def test_constant_likelihood(self):
        qm = MixtureApprox(
            np.array([0.3, 0.7]),
            np.array([[-1.0], [1.0]]),
            np.array([[[0.25]], [[0.25]]]),
        )
        out = mixture_update(qm, lambda th: np.zeros(th.shape[0]), gauss_hermite(7))
        assert np.allclose(out.weights, qm.weights, atol=1e-10)
        assert np.allclose(out.means, qm.means, atol=1e-10)
        assert np.allclose(out.covs, qm.covs, atol=1e-10)

    def test_two_component_reweighting_oracle(self):
        # component-local normalizers follow the product-of-Gaussians
        # formula beta_m = N(mu_m; mu_t, var_m + var_t)
        qm = MixtureApprox(
            np.array([0.5, 0.5]),
            np.array([[-1.0], [1.0]]),
            np.array([[[0.25]], [[0.25]]]),
        )
        log_t = gaussian_loglik(1.0, 0.5)
        _, _, beta1 = conjugate_product(-1.0, 0.25, 1.0, 0.25)
        _, _, beta2 = conjugate_product(1.0, 0.25, 1.0, 0.25)
        expected = np.array([0.5 * beta1, 0.5 * beta2])
        expected /= expected.sum()
        out = mixture_update(qm, log_t, gauss_hermite(7))
        assert np.allclose(out.weights, expected, atol=1e-3)
        # component moments follow the same conjugate oracle, up to the
        # M=7 quadrature error of a few 1e-3
        for i, mu in enumerate([-1.0, 1.0]):
            m, v, _ = conjugate_product(mu, 0.25, 1.0, 0.25)
            assert abs(out.means[i, 0] - m) < 5e-3
            assert abs(out.covs[i, 0, 0] - v) < 5e-3

    def test_component_floor_drop_preserves_ratios(self):
        # one component sits so far away its weight underflows the floor
        qm = MixtureApprox(
            np.array([0.4, 0.4, 0.2]),
            np.array([[0.0], [0.5], [500.0]]),
            np.array([[[0.25]], [[0.25]], [[0.25]]]),
        )
        log_t = gaussian_loglik(0.2, 0.3)
        out = mixture_update(qm, log_t, gauss_hermite(9))
        assert out.weights.shape[0] == 2
        _, _, b1 = conjugate_product(0.0, 0.25, 0.2, 0.09)
        _, _, b2 = conjugate_product(0.5, 0.25, 0.2, 0.09)
        expected_ratio = (0.4 * b1) / (0.4 * b2)
        assert np.isclose(out.weights[0] / out.weights[1], expected_ratio, rtol=1e-2)

    def test_all_components_degenerate_raises(self):
        qm = MixtureApprox(np.array([0.5, 0.5]), np.array([[0.0], [1.0]]), np.array([[[1.0]], [[1.0]]]))
        with pytest.raises(DegenerateUpdateError):
            mixture_update(qm, lambda th: np.full(th.shape[0], -np.inf), gauss_hermite(7))

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_weight_simplex_preserved(self, seed):
        rng = substream(seed, 7)
        l = int(rng.integers(2, 6))
        w = rng.random(l) + 0.05
        qm = MixtureApprox(
            w / w.sum(),
            rng.standard_normal((l, 1)),
            np.tile(np.eye(1) * 0.5, (l, 1, 1)),
        )
        target = float(rng.standard_normal())

        def log_t(thetas):
            return -0.5 * (thetas[:, 0] - target) ** 2

        out = mixture_update(qm, log_t, gauss_hermite(7))
        assert np.all(out.weights >= 0)
        assert np.isclose(out.weights.sum(), 1.0, atol=1e-12)


class TestDiscreteUpdate:
    def test_two_point_bayes(self):
        q = FactorizedDiscreteApprox([np.array([0.5, 0.5])])
        table = np.array([1.0, 3.0])

        def log_t(codes):
            return np.log(table[codes[:, 0]])

        out = discrete_update(q, log_t, m=16)
        assert np.allclose(out.table(0), [0.25, 0.75], atol=1e-12)

    def test_constant_is_identity_exhaustive(self):
        q = FactorizedDiscreteApprox([np.array([0.3, 0.7]), np.array([0.5, 0.25, 0.25])])
        out = discrete_update(q, lambda c: np.zeros(c.shape[0]), m=100)
        assert np.allclose(out.tables, q.tables, atol=1e-15)

    def test_exhaustive_matches_bruteforce_marginals(self):
        rng = substream(3, 1)
        q = FactorizedDiscreteApprox([np.array([0.2, 0.8]), np.array([0.6, 0.4])])
        t_table = rng.random((2, 2)) + 0.05

        def log_t(codes):
            return np.log(t_table[codes[:, 0], codes[:, 1]])

        out = discrete_update(q, log_t, m=4)
        # brute force: joint, reweight, marginalize
        joint = np.einsum("a,b,ab->ab", q.table(0), q.table(1), t_table)
        joint /= joint.sum()
        assert np.allclose(out.table(0), joint.sum(axis=1), atol=1e-12)
        assert np.allclose(out.table(1), joint.sum(axis=0), atol=1e-12)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_exhaustive_matches_bruteforce_randomized(self, seed):
        rng = substream(seed, 2)
        t0 = rng.random(2) + 0.05
        t1 = rng.random(3) + 0.05
        q = FactorizedDiscreteApprox([t0 / t0.sum(), t1 / t1.sum()])
        t_table = rng.random((2, 3)) + 1e-3

        def log_t(codes):
            return np.log(t_table[codes[:, 0], codes[:, 1]])

        out = discrete_update(q, log_t, m=6)
        joint = np.einsum("a,b,ab->ab", q.table(0), q.table(1), t_table)
        joint /= joint.sum()
        assert np.allclose(out.table(0), joint.sum(axis=1), atol=1e-12)
        assert np.allclose(out.table(1), joint.sum(axis=0), atol=1e-12)

    def test_sampled_mode_approaches_exact(self):
        q = FactorizedDiscreteApprox([np.array([0.5, 0.5]), np.array([0.5, 0.5])])
        t_table = np.array([[1.0, 2.0], [3.0, 4.0]])

        def log_t(codes):
            return np.log(t_table[codes[:, 0], codes[:, 1]])

        exact = discrete_update(q, log_t, m=4)
        sampled = discrete_update(q, log_t, m=3, rng=substream(11, 0))
        big = discrete_update(q, log_t, m=200_000, rng=substream(11, 1))
        assert not np.allclose(sampled.tables, exact.tables, atol=1e-6)
        assert np.allclose(big.tables, exact.tables, atol=5e-3)

    def test_degenerate_raises(self):
        q = FactorizedDiscreteApprox([np.array([0.5, 0.5])])
        with pytest.raises(DegenerateUpdateError):
            discrete_update(q, lambda c: np.full(c.shape[0], -np.inf), m=4)

    @pytest.mark.parametrize("m", [0, -3])
    def test_sampled_update_needs_a_code_per_row(self, m):
        q = FactorizedDiscreteApprox([np.array([0.5, 0.5])])
        with pytest.raises(ValueError, match="m >= 1"):
            discrete_update(q, lambda c: np.zeros(c.shape[0]), m=m, rng=substream(1, 0))

    def test_tables_stay_normalized(self):
        rng = substream(5, 5)
        q = FactorizedDiscreteApprox([np.full(4, 0.25)] * 3)

        def log_t(codes):
            return rng.standard_normal(codes.shape[0])

        out = discrete_update(q, log_t, m=64, rng=substream(5, 6))
        sums = out.tables.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)

    def test_exhaustive_larger_joint_vs_bruteforce(self):
        # mixed cardinalities, joint size 4*5*6*7 = 840
        rng = substream(6, 0)
        cards = [4, 5, 6, 7]
        tables = []
        for c in cards:
            t = rng.random(c) + 0.05
            tables.append(t / t.sum())
        q = FactorizedDiscreteApprox(tables)
        t_table = rng.random(tuple(cards)) + 1e-3

        def log_t(codes):
            return np.log(t_table[tuple(codes[:, i] for i in range(4))])

        out = discrete_update(q, log_t, m=1000)
        joint = t_table.copy()
        for i, tab in enumerate(tables):
            shape = [1] * 4
            shape[i] = cards[i]
            joint = joint * tab.reshape(shape)
        joint /= joint.sum()
        for i in range(4):
            axes = tuple(j for j in range(4) if j != i)
            assert np.allclose(out.table(i), joint.sum(axis=axes), atol=1e-12)


class ScopedScore:
    """A factor of codes that reads each row's scope alone: the sum of
    score[owner, i, code_i] over the coordinates i in the owner's scope.
    It refuses a code at or past its coordinate's cardinality."""

    def __init__(self, score, scope, cards):
        self.score, self.scope, self.cards = score, scope, cards

    def param_scope(self, rows):
        return self.scope[rows]

    def __call__(self, codes, rows):  # codes (..., p) against owners that broadcast with them
        assert (codes < self.cards).all()
        scope = self.scope[rows]  # rows' shape, then k
        return self.score[rows[..., None], scope, np.take_along_axis(codes, scope, axis=-1)].sum(axis=-1)


class TestScopedDiscreteUpdate:
    """A factor that declares the coordinates it reads updates those
    marginals exactly, and leaves the others as they were."""

    @staticmethod
    def slam_factor(model, gen, b, k):
        """A SLAM factor for b owners at step k, with windows drawn next to the states."""
        states = gen.integers(0, model.n_cells, size=(b, 1)).astype(np.float64)
        windows = np.clip(states[:, None] + gen.integers(-1, 2, size=(b, 1, 1)), 0, model.n_cells - 1)
        return ParamLikelihood(model, k, np.array([float(gen.integers(0, 2))]), states, windows if k else None)

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_scoped_update_equals_the_exhaustive_update(self, k):
        # 8 joint codes: at m = 8 the update enumerates them, at m = 7 it enumerates the owner's cell
        model = slam_small(n_cells=3, actions=["R", "R", "L", "R", "L", "L"], true_map=[1, 0, 1])
        gen = np.random.default_rng(60 + k)
        b = 80
        tables = gen.dirichlet(np.ones(2), size=(b, 3))
        factor = self.slam_factor(model, gen, b, k)
        rows = gen.permutation(b)
        exhaustive = DiscreteCloud(tables, model.param_cardinalities, 8)
        scoped = DiscreteCloud(tables, model.param_cardinalities, 7)
        assert exhaustive.joint_codes is not None and scoped.joint_codes is None
        want, want_ok = exhaustive.update({"tables": tables}, rows, factor, None, None)
        got, got_ok = scoped.update({"tables": tables}, rows, factor, None, None)
        assert got_ok.tobytes() == want_ok.tobytes()
        if k:
            assert 0 < got_ok.sum() < b  # some owners' windows cannot reach their states
        # the two sum the weights of 8 and 2 codes in their own orders
        assert np.abs(got["tables"] - want["tables"]).max() <= 2 * (8 - 1) * 2.0**-53

    def test_unread_marginals_keep_their_bits(self):
        model = slam_large()
        gen = np.random.default_rng(70)
        b, p = 300, model.n_cells
        tables = gen.dirichlet(np.ones(2), size=(b, p))
        factor = self.slam_factor(model, gen, b, 3)
        rows = gen.permutation(b)
        cloud = DiscreteCloud(tables, model.param_cardinalities, 50)
        new, ok = cloud.update({"tables": tables}, rows, factor, None, None)
        read = np.zeros((b, p), dtype=bool)
        read[np.arange(b), factor.states[rows, 0].astype(np.int64)] = True
        read &= ok[:, None]
        assert 0 < ok.sum() < b
        assert new["tables"][~read].tobytes() == tables[~read].tobytes()
        assert not np.isclose(new["tables"][read], tables[read]).all(axis=-1).any()

    @pytest.mark.parametrize("k", [1, 2])
    def test_mixed_cardinalities_score_only_codes_in_range(self, k):
        # cardinalities 2, 3, 1, 3 padded to 3: 18 joint codes, and 3**k scope codes at m = 17
        cards = np.array([2, 3, 1, 3])
        gen = np.random.default_rng(80 + k)
        b, p = 50, len(cards)
        tables = gen.dirichlet(np.ones(3), size=(b, p))
        tables[:, np.arange(3) >= cards[:, None]] = 0.0
        tables /= tables.sum(axis=-1, keepdims=True)
        score = gen.standard_normal((b, p, 3))
        score[4] = -np.inf  # owner 4 vanishes
        scope = np.array([gen.choice(p, size=k, replace=False) for _ in range(b)])
        factor = ScopedScore(score, scope, cards)
        rows = gen.permutation(b)
        want, want_ok = DiscreteCloud(tables, cards, 18).update({"tables": tables}, rows, factor, None, None)
        got, got_ok = DiscreteCloud(tables, cards, 17).update({"tables": tables}, rows, factor, None, None)
        assert got_ok.tobytes() == want_ok.tobytes() and got_ok.sum() == b - 1
        assert np.abs(got["tables"] - want["tables"]).max() <= 2 * (18 - 1) * 2.0**-53
        assert got["tables"][~got_ok].tobytes() == tables[~got_ok].tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    def test_scoped_update_matches_the_rows_major_reference_bits(self, k):
        # cardinalities 2, 1, 2, 2, 1, 2 padded to 2: 2**k scope codes at m = 4
        cards = np.array([2, 1, 2, 2, 1, 2])
        gen = np.random.default_rng(100 + k)
        b, p = 70, len(cards)
        tables = gen.dirichlet(np.ones(2), size=(b, p))
        tables[:, 1, 1] = tables[:, 4, 1] = 0.0
        tables /= tables.sum(axis=-1, keepdims=True)
        score = gen.standard_normal((b, p, 2))
        score[4] = -np.inf  # owner 4 vanishes
        score[5] = -800.0  # owner 5 falls below the mass floor
        scope = np.array([gen.choice(p, size=k, replace=False) for _ in range(b)])
        scope[:8] = [1, 3][:k]  # some owners read a one-code coordinate
        factor = ScopedScore(score, scope, cards)
        rows = gen.permutation(b)
        cloud = DiscreteCloud(tables, cards, 4)
        assert cloud.joint_codes is None
        got, got_ok = cloud.update({"tables": tables}, rows, factor, None, None)
        want, want_ok = reference_scoped_update(tables, cards, rows, factor, scope[rows])
        assert got_ok.tobytes() == want_ok.tobytes() and got_ok.sum() == b - 2
        assert got["tables"].tobytes() == want.tobytes()

    def test_an_api_run_enumerates_its_scope_codes_once(self, monkeypatch):
        calls = []

        def counting(cardinalities):
            calls.append(len(cardinalities))
            return enumerate_codes(cardinalities)

        monkeypatch.setattr(approx, "enumerate_codes", counting)
        model = slam_large()
        _, obs = simulate(model, model.true_map.astype(float), 20, substream(31, 99))
        result = run_assumed_density_filter(model, obs, FilterConfig(n_particles=100, scheme=monte_carlo(50), seed=3))
        assert len(result.n_updates) == 21 and min(result.n_updates) > 0
        assert calls == [1]  # the one-cell scope's codes, for every step of the run

    def test_a_scope_too_wide_for_m_samples_samples(self):
        # 3**2 = 9 scope codes do not fit in m = 8: the update draws 8 joint codes per row
        cards = np.full(4, 3)
        gen = np.random.default_rng(90)
        b = 20
        tables = gen.dirichlet(np.ones(3), size=(b, 4))
        scope = np.tile([0, 2], (b, 1))
        factor = ScopedScore(gen.standard_normal((b, 4, 3)), scope, cards)
        cloud = DiscreteCloud(tables, cards, 8)
        rows = np.arange(b)
        got, _ = cloud.update({"tables": tables}, rows, factor, None, substream(14, 0))
        want = reference_sampled_update(tables, cards, substream(14, 0), 8, factor, rows[:, None])
        assert got["tables"].tobytes() == want[0].tobytes()


def reference_scoped_update(tables, cards, rows, factor, scope):
    """The scoped update rows-major, as it was first built: (B, J, p)
    codes scored against (B, 1) owners, and the (B, J) weights shifted
    along each row and matched with one product by the (J, k C) scope
    code indicators.  Its k log prior terms are summed before log t is
    added."""
    b, k = scope.shape
    p, cmax = tables.shape[1:]
    local = enumerate_codes(np.full(k, cmax))
    j = len(local)
    owner = np.arange(b)[:, None]
    scope_tables = tables[owner, scope]
    codes = np.zeros((b, j, p), dtype=np.int64)
    codes[owner[:, :, None], np.arange(j)[:, None], scope[:, None, :]] = np.where(
        local < cards[scope][:, None, :], local, 0
    )
    log_t = factor(codes, rows[:, None])
    log_prior = np.zeros((b, j))
    with np.errstate(divide="ignore"):
        for i in range(k):
            log_prior += np.log(scope_tables[:, i, local[:, i]])
    r, total, ok = reference_mass(log_t + log_prior)
    indicators = (local[:, :, None] == np.arange(cmax)).reshape(j, k * cmax).astype(np.float64)
    out = (r @ indicators).reshape(b, k, cmax) / np.where(total > 0, total, 1.0)[:, None, None]
    new_tables = tables.copy()
    new_tables[owner, scope] = np.where(ok[:, None, None], out, scope_tables)
    return new_tables, ok


def reference_gaussian_points(means, sd, z):
    """Points (J, B, 1) batch_gaussian_points must equal bit for bit, one
    point at a time: point j of row b is means[b] + sd[b] * z_j, with z a
    shared (J, 1) grid or (J, B, 1) draws."""
    points = np.empty((z.shape[0],) + means.shape)
    for j in range(z.shape[0]):
        points[j] = means + sd * z[j]
    return points


def reference_moment_match(z, log_weights, log_t, prev_means, prev_covs, chols):
    """The moments batch_moment_match must equal bit for bit: standardized
    sums that add each row's points z_j (a shared (J, p) grid or (J, B, p)
    draws) one at a time, in order, mapped back by theta = m + L z with
    sums in index order."""
    j = log_t.shape[0]
    b, p = prev_means.shape
    shared = z.ndim == 2
    a = log_t + log_weights[:, None]
    a = np.where(np.isnan(a), -np.inf, a)
    shift = np.full(b, -np.inf)
    for k in range(j):
        shift = np.maximum(shift, a[k])
    ok = np.isfinite(shift)
    safe_shift = np.where(ok, shift, 0.0)
    total, first, second = np.zeros(b), np.zeros((b, p)), np.zeros((b, p, p))
    for k in range(j):
        with np.errstate(under="ignore"):
            r = np.where(ok, np.exp(a[k] - safe_shift), 0.0)
        total += r
        zk = np.broadcast_to(z[k], (b, p)) if shared else z[k]
        first += r[:, None] * zk
        if shared:  # the grid's products z z^T, then weighted
            second += r[:, None, None] * (zk[:, :, None] * zk[:, None, :])
        else:
            second += r[:, None, None] * zk[:, :, None] * zk[:, None, :]
    with np.errstate(divide="ignore"):
        log_z = np.where(ok, safe_shift + np.log(total), -np.inf)
    ok = ok & (log_z >= LOG_MASS_FLOOR)
    denom = np.where(total > 0, total, 1.0)
    mu_z = first / denom[:, None]
    cov_z = second / denom[:, None, None] - mu_z[:, :, None] * mu_z[:, None, :]
    mu, half, cov = np.zeros((b, p)), np.zeros((b, p, p)), np.zeros((b, p, p))
    for i in range(p):
        for k in range(p):
            mu[:, i] += chols[:, i, k] * mu_z[:, k]
            for l in range(p):
                half[:, i, l] += chols[:, i, k] * cov_z[:, k, l]  # L Sigma_z
    for i in range(p):
        for l in range(p):
            for k in range(p):
                cov[:, i, l] += half[:, i, k] * chols[:, l, k]  # (L Sigma_z) L^T
    mu += prev_means
    if p == 1:  # L Sigma_z L^T as Sigma_z times the previous variance, L L^T
        cov = cov_z * prev_covs
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    eps = JITTER_RELATIVE * np.trace(cov, axis1=1, axis2=2) / p
    cov += eps[:, None, None] * np.eye(p)[None, :, :]
    ok &= (np.diagonal(cov, axis1=1, axis2=2) > 0).all(axis=1)
    means_out = np.where(ok[:, None], mu, prev_means)
    covs_out = np.where(ok[:, None, None], cov, prev_covs)
    return means_out, covs_out, log_z, ok


def random_frames(gen, b, p):
    """Row means (B, p) away from the origin, covariances (B, p, p) and
    their Cholesky factors, as the cloud updates pass them."""
    means = 5.0 + gen.standard_normal((b, p))
    factors = np.tril(gen.standard_normal((b, p, p)))
    covs = factors @ np.transpose(factors, (0, 2, 1)) + 0.1 * np.eye(p)
    return means, covs, batch_cholesky(covs)


def reference_mixture_match(alphas, means, covs, z, log_weights, log_t, chols):
    """The mixture update batch_mixture_match must equal bit for bit: each
    component moment matched by reference_moment_match, then the weights
    reweighted, floored and renormalized row by row."""
    b, l, p = means.shape
    new_means, new_covs, log_beta, comp_ok = reference_moment_match(
        z, log_weights, log_t, means.reshape(b * l, p), covs.reshape(b * l, p, p), chols
    )
    with np.errstate(divide="ignore"):
        log_post = np.where(comp_ok.reshape(b, l), np.log(alphas) + log_beta.reshape(b, l), -np.inf)
    shift = log_post.max(axis=1)
    ok = np.isfinite(shift)
    with np.errstate(under="ignore"):
        w = np.where(ok[:, None], np.exp(log_post - np.where(ok, shift, 0.0)[:, None]), 0.0)
    totals = w.sum(axis=1)
    w = w / np.where(totals > 0, totals, 1.0)[:, None]
    w = np.where(w < COMPONENT_WEIGHT_FLOOR, 0.0, w)
    totals = w.sum(axis=1)
    w = w / np.where(totals > 0, totals, 1.0)[:, None]
    return (
        np.where(ok[:, None], w, alphas),
        np.where(ok[:, None, None], new_means.reshape(b, l, p), means),
        np.where(ok[:, None, None, None], new_covs.reshape(b, l, p, p), covs),
        ok,
    )


def row_major_moment_match(points, log_weights, log_t):
    """The row-major formulas the points-major kernel replaced: points
    (B, J, p) and log_t (B, J), each row's sums over its innermost axes.
    Returns (means, covs, log_z), before the previous moments fill in."""
    b, j, p = points.shape
    a = log_t + log_weights[None, :]
    shift = np.max(a, axis=1)
    r = np.exp(a - shift[:, None])
    total = r.sum(axis=1)
    log_z = shift + np.log(total)
    mu = np.einsum("bj,bjp->bp", r, points) / total[:, None]
    second = np.einsum("bj,bjp,bjq->bpq", r, points, points) / total[:, None, None]
    cov = second - np.einsum("bp,bq->bpq", mu, mu)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))
    eps = JITTER_RELATIVE * np.trace(cov, axis1=1, axis2=2) / p
    cov += eps[:, None, None] * np.eye(p)[None, :, :]
    return mu, cov, log_z, second


def reference_mass(a):
    """Row weights exp(a - max a) (B, J), their totals and ok flags, NaN
    counting as -inf: the shift the match kernels share, unblocked."""
    a = np.where(np.isnan(a), -np.inf, a)
    shift = np.max(a, axis=1)
    ok = np.isfinite(shift)
    with np.errstate(under="ignore"):
        r = np.exp(a - np.where(ok, shift, 0.0)[:, None])
    r[~ok] = 0.0
    total = r.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_z = np.where(ok, shift, 0.0) + np.log(total)
    return r, total, ok & (log_z >= LOG_MASS_FLOOR)


def reference_sampled_update(tables, cards, rng, m, factor, rows):
    """The one-shot sampled update the blocked one must equal bit for bit:
    every row's codes from one (B, m, p) draw, each code value's table
    column one matrix product over all rows."""
    b, p, cmax = tables.shape
    cdf = np.cumsum(tables[:, :, :-1], axis=-1)
    cdf[:, np.arange(cmax - 1) >= cards[:, None] - 1] = np.inf
    u = rng.random((b, m, p))
    codes = np.zeros((b, m, p), dtype=np.int64)
    for c in range(cmax - 1):
        codes += u >= cdf[:, None, :, c]
    r, total, ok = reference_mass(factor(codes, rows))
    out = np.stack([np.matmul(r[:, None, :], (codes == c).astype(float))[:, 0] for c in range(cmax)], axis=-1)
    out = out / np.where(total > 0, total, 1.0)[:, None, None]
    return np.where(ok[:, None, None], out, tables), ok


def bincount_discrete_match(tables, codes, log_prior_w, log_t):
    """The scatter-add match the matrix products replaced: one bincount per
    dimension, each (row, code) bin adding its weights in point order."""
    b, p, cmax = tables.shape
    r, total, ok = reference_mass(log_t if log_prior_w is None else log_t + log_prior_w)
    out = np.zeros_like(tables)
    offsets = (np.arange(b) * cmax)[:, None]
    for i in range(p):
        idx = (codes[:, :, i] + offsets).ravel()
        out[:, i, :] = np.bincount(idx, weights=r.ravel(), minlength=b * cmax).reshape(b, cmax)
    out = out / np.where(total > 0, total, 1.0)[:, None, None]
    return np.where(ok[:, None, None], out, tables), ok


def discrete_match_inputs(gen, cmax, b, p):
    """Padded tables (B, p, C) with every cardinality from 1 to cmax, and
    row scores (B, C, p): rows 3 to 5 are dead, NaN and below the floor."""
    cards = np.resize(np.arange(1, cmax + 1), p)
    tables = gen.dirichlet(np.ones(cmax), size=(b, p))
    tables[:, np.arange(cmax) >= cards[:, None]] = 0.0
    tables /= tables.sum(axis=-1, keepdims=True)
    score = 2.0 * gen.standard_normal((b, cmax, p))
    score[3] = -np.inf  # row 3 is dead
    score[4, 0] = np.nan  # every point of row 4 is NaN
    score[5] = -800.0  # row 5's mass is below the floor
    if cmax > 1:
        score[6, 1, 1] = np.nan  # row 6 has NaN points among finite ones and stays ok
    return cards, tables, score


def discrete_match_codes(mode, tables, cards, score, rng, m):
    """A match kernel's codes, log prior and scores (score from
    discrete_match_inputs) in either mode: m sampled codes (B, m, p) and
    (B, m) scores, or, exhaustive, the enumerated joint codes (J, p)
    with their (J, B) log prior and scores, points-major."""
    b, p, _ = tables.shape
    if mode == "sampled":
        codes = sample_codes(tables, cards, rng, m)
        return codes, None, score[np.arange(b)[:, None, None], codes, np.arange(p)].sum(axis=-1)
    codes = enumerate_codes(cards)
    log_t = score[np.arange(b)[:, None], codes[:, None, :], np.arange(p)].sum(axis=-1)
    return codes, exhaustive_log_prior(tables, codes), log_t


class TestBatchKernels:
    """The in-place kernels against the allocating formulas they replaced."""

    @pytest.mark.parametrize("scheme", [gauss_hermite(7), monte_carlo(40)])
    def test_gaussian_points_match_reference_bits(self, scheme):
        gen = np.random.default_rng(3)
        means = gen.standard_normal((300, 1))
        covs = gen.random((300, 1, 1)) + 0.05
        points, _, frame_z, chols = batch_gaussian_points(means, covs, scheme, substream(3, 0))
        if scheme.kind == "gauss_hermite":
            z = batch_gaussian_points(np.zeros((1, 1)), np.ones((1, 1, 1)), scheme, None)[0][:, 0]
            assert frame_z.tobytes() == z.tobytes()
        else:
            z = substream(3, 0).standard_normal((scheme.m, 300, 1))
            assert frame_z.tobytes() == z.tobytes()
        assert chols.tobytes() == np.sqrt(covs).tobytes()
        expected = reference_gaussian_points(means, np.sqrt(covs)[:, :, 0], z)
        assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_moment_match_matches_reference_bits(self, p):
        gen = np.random.default_rng(p)
        b = 400
        for j in (2, 7, 9, 200):
            draws = gen.standard_normal((j, b, p))
            log_weights = np.log(gen.dirichlet(np.ones(j)))
            log_t = 3.0 * gen.standard_normal((j, b))
            log_t[1, ::7] = np.nan
            log_t[:, 5] = -np.inf  # every point at -inf
            log_t[:, 9] = np.nan
            log_t[:, 11] = -800.0  # mass below the floor
            prev_means, prev_covs, chols = random_frames(gen, b, p)
            before = log_t.copy()
            # Monte Carlo draws, one set per row, and a grid shared by the rows
            for z in (draws, draws[:, 0]):
                got = batch_moment_match(z, log_weights, log_t, prev_means, prev_covs, chols)
                ref = reference_moment_match(z, log_weights, log_t, prev_means, prev_covs, chols)
                for g, r in zip(got, ref):
                    assert g.dtype == r.dtype and g.shape == r.shape
                    assert g.tobytes() == r.tobytes(), (j, z.ndim)
                assert not got[3][[5, 9, 11]].any()
                # the in-place arithmetic never writes to its inputs
                assert before.tobytes() == log_t.tobytes()
        # every row ok: no NaN, dead or below-floor row
        z = gen.standard_normal((7, b, p))
        log_weights = np.log(gen.dirichlet(np.ones(7)))
        log_t = 3.0 * gen.standard_normal((7, b))
        prev_means, prev_covs, chols = random_frames(gen, b, p)
        got = batch_moment_match(z, log_weights, log_t, prev_means, prev_covs, chols)
        ref = reference_moment_match(z, log_weights, log_t, prev_means, prev_covs, chols)
        assert got[3].all()
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("p", [1, 2])
    def test_mixture_match_matches_reference_bits(self, p):
        gen = np.random.default_rng(20 + p)
        b, l, j = 60, 10, 7
        alphas = gen.dirichlet(np.ones(l), size=b)
        alphas[3, 6:] = 0.0  # zero-weight tails
        alphas[4, 1:] = 0.0
        alphas[5, 2] = 1e-14  # under the floor before the update
        alphas /= alphas.sum(axis=1, keepdims=True)
        means = gen.standard_normal((b, l, p))
        covs = np.broadcast_to(0.3 * np.eye(p), (b, l, p, p)).copy()
        chols = batch_cholesky(covs.reshape(b * l, p, p))
        z = gen.standard_normal((j, b * l, p))
        log_weights = np.log(gen.dirichlet(np.ones(j)))
        log_t = gen.standard_normal((j, b * l))
        log_t[:, 7 * l : 8 * l] = -np.inf  # owner 7: every component degenerates
        log_t[:, 8 * l : 9 * l] = np.nan  # owner 8 likewise, through NaN
        log_t[:, 9 * l + 2] = -np.inf  # owner 9 loses one component
        log_t[:, 10 * l + 4] -= 40.0  # owner 10's component 4 falls under the floor
        log_t[:, 11 * l : 12 * l] -= 800.0  # owner 11's components all fall under the mass floor
        before = log_t.copy()
        got = batch_mixture_match(alphas, means, covs, z, log_weights, log_t, chols)
        ref = reference_mixture_match(alphas, means, covs, z, log_weights, log_t, chols)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()
        ok, w = got[3], got[0]
        assert not ok[[7, 8, 11]].any() and ok.sum() == b - 3
        assert w[9, 2] == 0.0 and w[10, 4] == 0.0 and w[5, 2] == 0.0
        assert before.tobytes() == log_t.tobytes()
        # a second call with every owner ok
        log_t = gen.standard_normal((j, b * l))
        got = batch_mixture_match(alphas, means, covs, z[:, 0], log_weights, log_t, chols)
        ref = reference_mixture_match(alphas, means, covs, z[:, 0], log_weights, log_t, chols)
        assert got[3].all()
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype and g.shape == r.shape
            assert g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("j", [2, 7, 9, 200])
    @pytest.mark.parametrize("p", [1, 2])
    def test_moment_match_agrees_with_row_major_formulas(self, p, j):
        # Points-major sums add each row's points in another order than the
        # row-major ones did, so the two agree to rounding, not to the bit.
        gen = np.random.default_rng(10 * j + p)
        b = 300
        z = gen.standard_normal((j, b, p))
        log_weights = np.log(gen.dirichlet(np.ones(j)))
        log_t = 3.0 * gen.standard_normal((j, b))
        prev_means = np.full((b, p), 0.5)
        prev_covs = chols = np.broadcast_to(np.eye(p), (b, p, p))
        points = prev_means + z
        means, covs, log_z, ok = batch_moment_match(z, log_weights, log_t, prev_means, prev_covs, chols)
        assert ok.all()
        mu, cov, ref_log_z, second = row_major_moment_match(
            points.transpose(1, 0, 2), log_weights, log_t.T
        )
        np.testing.assert_allclose(means, mu, rtol=1e-12, atol=0)
        np.testing.assert_allclose(log_z, ref_log_z, rtol=1e-12, atol=0)
        # a covariance is a difference of second moments: its rounding scales with them
        scale = np.abs(second).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(covs - cov) <= 1e-12 * scale)

    @pytest.mark.parametrize("cmax", [2, 3])
    def test_blocked_discrete_update_matches_one_shot_bits(self, cmax):
        gen = np.random.default_rng(10 + cmax)
        b, p, m = 500, 10, 40
        step = CODE_BLOCK // (m * p)
        assert b > 2 * step and b % step  # four blocks, the last one partial
        cards = gen.integers(1, cmax + 1, size=p)
        cards[:6] = cmax  # a joint of more than m codes, so the update samples
        tables = gen.dirichlet(np.ones(cmax), size=(b, p))
        tables[:, np.arange(cmax) >= cards[:, None]] = 0.0
        tables /= tables.sum(axis=-1, keepdims=True)
        score = gen.standard_normal((b, p, cmax))
        score[7] = -np.inf  # owner 7 vanishes
        score[8] = -800.0  # owner 8 falls below the mass floor

        def factor(codes, rows):  # rows (B, 1) against (B, m, p) codes
            return score[rows[:, :, None], np.arange(p), codes].sum(axis=-1)

        rows = gen.permutation(b)
        cloud = DiscreteCloud(tables, cards, m)
        assert cloud.joint_codes is None
        got = cloud.update(cloud.arrays, rows, factor, None, substream(8, cmax))
        ref = reference_sampled_update(tables, cards, substream(8, cmax), m, factor, rows[:, None])
        assert got[0]["tables"].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()
        assert not got[1][np.isin(rows, [7, 8])].any() and got[1].sum() == b - 2
        assert np.allclose(got[0]["tables"].sum(axis=-1), 1.0)

    @pytest.mark.parametrize("cmax", [1, 2, 3, 4])
    @pytest.mark.parametrize("mode", ["sampled", "exhaustive"])
    def test_discrete_match_agrees_with_bincount(self, mode, cmax):
        # BLAS sums a row's M point weights in its own order, bincount in
        # point order; two orders of summing M non-negative terms differ by
        # at most 2 (M - 1) 2**-53 of their sum, and a table entry is at most 1.
        gen = np.random.default_rng(40 + cmax)
        b, p = 60, 7
        cards, tables, score = discrete_match_inputs(gen, cmax, b, p)
        codes, log_prior, log_t = discrete_match_codes(mode, tables, cards, score, substream(12, cmax), 50)
        got = batch_discrete_match(tables, codes, log_prior, log_t)
        if mode == "sampled":
            ref = bincount_discrete_match(tables, codes, None, log_t)
        else:
            # the reference takes each row's copy of the codes, and rows-major weights
            row_codes = np.broadcast_to(codes, (b,) + codes.shape)
            ref = bincount_discrete_match(tables, row_codes, log_prior.T, log_t.T)
        m = 50 if mode == "sampled" else len(log_t)
        assert got[1].tobytes() == ref[1].tobytes()
        assert not got[1][3:6].any() and got[1].sum() == b - 3
        assert np.abs(got[0] - ref[0]).max() <= 2 * (m - 1) * 2.0**-53

    @pytest.mark.parametrize("cmax", [1, 2, 3])
    def test_discrete_match_leaves_codes_and_gives_tables(self, cmax):
        gen = np.random.default_rng(50 + cmax)
        b, p = 60, 7
        cards, tables, score = discrete_match_inputs(gen, cmax, b, p)
        for mode in ("sampled", "exhaustive"):
            codes, log_prior, log_t = discrete_match_codes(mode, tables, cards, score, substream(13, cmax), 40)
            before, log_t_before = codes.copy(), log_t.copy()
            weights = np.empty(codes.shape) if mode == "sampled" else None
            new, ok = batch_discrete_match(tables, codes, log_prior, log_t, weights)
            assert codes.tobytes() == before.tobytes() and log_t.tobytes() == log_t_before.tobytes()
            assert new.shape == tables.shape and ok.sum() == b - 3
            assert np.all(new[ok] >= 0.0)
            assert np.all(np.abs(new[ok].sum(axis=-1) - 1.0) <= 1e-12)
            assert new[~ok].tobytes() == tables[~ok].tobytes()
            assert not new[ok][:, np.arange(cmax) >= cards[:, None]].any()  # padding keeps no mass

    def test_sampled_discrete_update_memory_is_bounded(self):
        """One update's traced peak is one block's scratch plus the new
        tables, whatever B is; one (B, m, p) draw took 26 MB here."""
        b, p, m = 1500, 20, 50
        cloud = DiscreteCloud(np.full((b, p, 2), 0.5), np.full(p, 2), m)

        def factor(codes, rows):
            return -0.1 * codes.sum(axis=-1)

        tracemalloc.start()
        try:
            cloud.update(cloud.arrays, np.arange(b), factor, None, substream(9, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestSampling:
    def test_gaussian_sample_mean(self):
        q = GaussianApprox(np.zeros(2), np.eye(2))
        draws = q.sample(substream(1, 2), size=100_000)
        assert np.all(np.abs(draws.mean(axis=0)) < 0.02)

    def test_mixture_point_mass_component(self):
        q = MixtureApprox(
            np.array([1.0, 0.0]),
            np.array([[0.0], [100.0]]),
            np.array([[[1.0]], [[1.0]]]),
        )
        draws = q.sample(substream(2, 2), size=10_000)
        assert np.all(np.abs(draws[:, 0]) < 10.0)

    def test_mixture_never_draws_a_zero_weight_component(self):
        # Ten 0.1s sum to 1 - 2**-53, so a draw just below 1 passes the
        # last positive component's cumulative weight.
        class TopRng:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

            def standard_normal(self, shape):
                return np.zeros(shape)

        q = MixtureApprox(np.array([0.1] * 10 + [0.0]), np.arange(11.0)[:, None], np.ones((11, 1, 1)))
        assert q.sample(TopRng(), size=3).tolist() == [[9.0]] * 3

    @pytest.mark.parametrize("p", [1, 2])
    def test_mixture_sample_matches_cumsum_formula_bits(self, p):
        gen = np.random.default_rng(30 + p)
        n, l = 1000, 10
        alphas = gen.dirichlet(np.ones(l), size=n)
        alphas[::7, 4:] = 0.0  # rows whose tail weights are zero
        alphas[::11, 1:] = 0.0
        alphas /= alphas.sum(axis=1, keepdims=True)
        means = 100.0 * np.arange(l)[None, :, None] + gen.standard_normal((n, l, p))
        covs = np.broadcast_to(0.5 * np.eye(p), (n, l, p, p))
        got = MixtureCloud(alphas=alphas, means=means, covs=covs).sample(substream(4, p))
        # The row-wise cumulative weights the sampler replaced, on the same generator.
        rng = substream(4, p)
        cdf = np.cumsum(alphas, axis=1)
        cdf[cdf >= cdf[:, -1:]] = np.inf
        comp = (rng.random((n, 1)) >= cdf).sum(axis=1)
        rows = np.arange(n)
        expected = batch_gaussian_points(means[rows, comp], covs[rows, comp], monte_carlo(1), rng)[0][0]
        assert got.tobytes() == expected.tobytes()
        assert np.all(alphas[rows, np.rint(got[:, 0] / 100.0).astype(int)] > 0)

    def test_factorized_joint_frequencies(self):
        q = FactorizedDiscreteApprox([np.array([0.3, 0.7]), np.array([0.5, 0.5])])
        n = 100_000
        draws = q.sample(substream(3, 3), size=n)
        for a in (0, 1):
            for b in (0, 1):
                p = q.table(0)[a] * q.table(1)[b]
                freq = np.mean((draws[:, 0] == a) & (draws[:, 1] == b))
                sigma = np.sqrt(p * (1 - p) / n)
                assert abs(freq - p) < 3 * sigma + 1e-9

    def test_codes_stay_below_cardinality_when_cdf_rounds_short(self):
        # Ten 0.1s sum to 1 - 2**-53 in float64; a draw of that size or
        # more reaches past the last cumulative column.
        class TopRng:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        q = FactorizedDiscreteApprox([np.full(10, 0.1)])
        assert q.sample(TopRng(), size=3).tolist() == [[9]] * 3
        q = FactorizedDiscreteApprox([np.full(10, 0.1), np.full(11, 1 / 11)])
        assert q.sample(TopRng()).tolist() == [9, 10]

    @pytest.mark.parametrize("cmax", [2, 3, 10])
    @pytest.mark.parametrize("padded", [False, True])
    def test_codes_match_full_comparison_formula(self, cmax, padded):
        gen = np.random.default_rng(cmax)
        b, p, m = 40, 6, 25
        cards = gen.integers(1, cmax + 1, size=p) if padded else np.full(p, cmax)
        cards[0] = cmax
        if padded:
            tables = gen.dirichlet(np.ones(cmax), size=(b, p))
            tables[:, np.arange(cmax) >= cards[:, None]] = 0.0
            tables /= tables.sum(axis=-1, keepdims=True)
        else:
            tables = np.full((b, p, cmax), 1.0 / cmax)
        # The (B, m, p, C) comparison the kernel replaced.
        cdf = np.cumsum(tables, axis=-1)
        u = substream(5, cmax).random((b, m, p))
        expected = (u[..., None] >= cdf[:, None]).sum(axis=-1)
        codes = sample_codes(tables, cards, substream(5, cmax), m)
        assert codes.dtype == np.int64
        np.testing.assert_array_equal(codes, expected)
        assert np.all(codes < cards)

    @pytest.mark.parametrize("cmax", [2, 3, 10])
    @pytest.mark.parametrize("padded", [False, True])
    def test_codes_match_cumsum_formula_bits(self, cmax, padded):
        # Draws on and just below every cumulative entry that np.cumsum
        # gives: a table whose columns differ from it in one bit moves a code.
        gen = np.random.default_rng(60 + cmax)
        b, p = 30, 6
        cards = gen.integers(1, cmax + 1, size=p) if padded else np.full(p, cmax)
        cards[0] = cmax
        tables = gen.dirichlet(np.ones(cmax), size=(b, p))
        tables[:, np.arange(cmax) >= cards[:, None]] = 0.0
        tables /= tables.sum(axis=-1, keepdims=True)
        edges = np.cumsum(tables[:, :, :-1], axis=-1)
        draws = np.stack([edges, np.nextafter(edges, 0.0)], axis=-1).reshape(b, p, -1).transpose(0, 2, 1).copy()
        cdf = edges.copy()
        cdf[:, np.arange(cmax - 1) >= cards[:, None] - 1] = np.inf
        expected = (draws[..., None] >= cdf[:, None]).sum(axis=-1)

        class FixedRng:
            def random(self, shape=None, out=None):
                if out is None:
                    return draws.copy()
                out[...] = draws
                return out

        m = draws.shape[1]
        assert sample_codes(tables, cards, FixedRng(), m).tobytes() == expected.tobytes()
        scratch = (np.empty(draws.shape), np.empty(draws.shape, dtype=np.int64))
        assert sample_codes(tables, cards, FixedRng(), m, out=scratch).tobytes() == expected.tobytes()

    @given(st.integers(0, 1000))
    @settings(max_examples=20)
    def test_scheme_validation(self, m):
        if m < 1:
            with pytest.raises(ValueError):
                MomentScheme(kind="monte_carlo", m=m)
        else:
            assert MomentScheme(kind="monte_carlo", m=m).m == m
