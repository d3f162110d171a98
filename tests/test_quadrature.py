"""Point-rule correctness: both rules are checked against closed forms.

The independent oracle for Gaussian moments is the double-factorial
formula E[Z^r] = (r-1)!! for even r and 0 for odd r.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paramsmc.approx import gauss_hermite_points, unscented_points
from paramsmc.errors import PointBudgetError, SingularCovarianceError
from paramsmc.quadrature import DEFAULT_POINT_BUDGET, gauss_hermite_1d


def gaussian_moment(r: int) -> float:
    """E[Z^r] for Z ~ N(0,1): (r-1)!! for even r, 0 for odd."""
    if r % 2 == 1:
        return 0.0
    out = 1.0
    for k in range(r - 1, 0, -2):
        out *= k
    return out


class TestGaussHermite:
    def test_two_point_rule(self):
        # H_2 roots transformed to the probabilists' convention
        points, weights = gauss_hermite_points(np.zeros(1), np.eye(1), 2)
        assert np.allclose(sorted(points[:, 0]), [-1.0, 1.0], atol=1e-12)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-12)

    def test_second_moment_exact_with_two_points(self):
        points, weights = gauss_hermite_points(np.zeros(1), np.eye(1), 2)
        assert np.isclose(weights @ points[:, 0] ** 2, 1.0, atol=1e-14)

    def test_sixth_moment_with_four_points(self):
        # degree 2M-1 = 7 exactness covers theta^6
        points, weights = gauss_hermite_points(np.zeros(1), np.eye(1), 4)
        assert np.isclose(weights @ points[:, 0] ** 6, 15.0, atol=1e-10)

    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_moments_exact_up_to_degree(self, m):
        points, weights = gauss_hermite_points(np.zeros(1), np.eye(1), m)
        for r in range(2 * m):
            estimate = weights @ points[:, 0] ** r
            exact = gaussian_moment(r)
            scale = max(1.0, abs(exact))
            assert abs(estimate - exact) / scale <= 1e-9, (m, r)

    def test_shifted_scaled_moments(self):
        mu, var = 1.3, 2.25
        points, weights = gauss_hermite_points(np.array([mu]), np.array([[var]]), 7)
        assert np.isclose(weights @ points[:, 0], mu, atol=1e-12)
        assert np.isclose(weights @ (points[:, 0] - mu) ** 2, var, atol=1e-12)

    def test_tensor_grid_2d(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        mean = np.array([0.5, -1.0])
        points, weights = gauss_hermite_points(mean, cov, 5)
        assert points.shape == (25, 2)
        assert np.isclose(weights.sum(), 1.0, atol=1e-12)
        est_mean = weights @ points
        dev = points - est_mean
        est_cov = np.einsum("k,kp,kq->pq", weights, dev, dev)
        assert np.allclose(est_mean, mean, atol=1e-10)
        assert np.allclose(est_cov, cov, atol=1e-10)

    def test_point_budget(self):
        assert 7**8 > DEFAULT_POINT_BUDGET
        with pytest.raises(PointBudgetError):
            gauss_hermite_points(np.zeros(8), np.eye(8), 7)

    def test_singular_covariance(self):
        with pytest.raises(SingularCovarianceError):
            gauss_hermite_points(np.zeros(2), np.zeros((2, 2)), 3)

    def test_weights_positive(self):
        _, weights = gauss_hermite_1d(13)
        assert np.all(weights > 0)
        assert np.isclose(weights.sum(), 1.0, atol=1e-12)


class TestUnscented:
    def test_scalar_example(self):
        points, weights = unscented_points(np.array([2.0]), np.array([[4.0]]))
        assert set(np.round(points[:, 0], 12)) == {4.0, 0.0}
        assert np.allclose(weights, 0.5)

    def test_identity_2d(self):
        points, _ = unscented_points(np.zeros(2), np.eye(2))
        expected = {(np.sqrt(2), 0.0), (0.0, np.sqrt(2)), (-np.sqrt(2), 0.0), (0.0, -np.sqrt(2))}
        got = {tuple(np.round(row, 12)) for row in points}
        assert got == {tuple(np.round(np.array(e), 12)) for e in expected}

    @given(
        mu0=st.floats(-5, 5),
        mu1=st.floats(-5, 5),
        a=st.floats(0.2, 3.0),
        b=st.floats(0.2, 3.0),
        rho=st.floats(-0.8, 0.8),
    )
    def test_moment_identity(self, mu0, mu1, a, b, rho):
        # the point cloud reproduces (mean, cov) exactly, any valid input
        mean = np.array([mu0, mu1])
        cov = np.array([[a * a, rho * a * b], [rho * a * b, b * b]])
        points, weights = unscented_points(mean, cov)
        assert points.shape == (4, 2)
        est_mean = weights @ points
        dev = points - est_mean
        est_cov = np.einsum("k,kp,kq->pq", weights, dev, dev)
        assert np.allclose(est_mean, mean, atol=1e-12)
        assert np.allclose(est_cov, cov, atol=1e-12)
