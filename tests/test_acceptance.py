"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line with the measured quantities before
asserting, so a -s run doubles as the acceptance report.  Shared datasets
and expensive run batches live in module-scoped fixtures.

Criterion 6a runs its Gauss-Hermite projection at 15 points.  A rule of
M points is exact for polynomial integrands of degree <= 2M-1 only, and
against the Gaussian likelihood factor of the conjugate oracle its own
error at M=7 is ~1.3e-4 (mean) and ~6.2e-3 (variance), far above the
demanded 1e-6.  M=15 is the smallest point count whose rule meets 1e-6,
so the check keeps its tolerance.  The M=7 error is pinned at its
attainable tolerance in tests/test_approx.py (TestGaussianUpdate).
"""

import time

import numpy as np
import pytest

import paramsmc as ps
from paramsmc import rng as streams
from paramsmc.approx import (
    FactorizedDiscreteApprox,
    GaussianApprox,
    MixtureApprox,
    gauss_hermite,
    gauss_hermite_points,
    monte_carlo,
    unscented_points,
)
from paramsmc.engine import FilterConfig, PmmhConfig
from paramsmc.model import gaussian_logpdf
from paramsmc.oracles import kalman_filter, kl_factorized, mse
from paramsmc.rng import substream
from test_golden import UnscopedSlam

pytestmark = pytest.mark.acceptance

DATA_SEED = 8
N_SEEDS = 10
THETA_STAR_SIN = -0.5
THETA_STAR_BIMODAL = 0.7


# Collected by the pytest_terminal_summary hook in conftest.py, so the
# one-line-per-criterion report appears even under output capture.
REPORT_LINES: list[str] = []


def report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    REPORT_LINES.append(line)


# ---------------------------------------------------------------------------
# Shared datasets and run batches
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sin_dataset():
    model = ps.get_model("sin")
    _, obs = ps.simulate(model, np.array([THETA_STAR_SIN]), 5000, substream(DATA_SEED, streams.DATA))
    return model, obs


@pytest.fixture(scope="module")
def api_sin_runs(sin_dataset):
    model, obs = sin_dataset
    started = time.perf_counter()
    results = [
        ps.run_assumed_density_filter(
            model, obs, FilterConfig(n_particles=1000, scheme=gauss_hermite(7), seed=seed)
        )
        for seed in range(N_SEEDS)
    ]
    elapsed = time.perf_counter() - started
    return results, elapsed


@pytest.fixture(scope="module")
def bimodal_dataset():
    model = ps.get_model("sin-bimodal")
    _, obs = ps.simulate(
        model, np.array([THETA_STAR_BIMODAL]), 2000, substream(DATA_SEED, streams.DATA)
    )
    return model, obs


@pytest.fixture(scope="module")
def slam_batch():
    """Median KLs to the exact map marginals, by update path, (N, M) and algorithm.

    The bundled slam-small declares its factors' scope, so its discrete
    updates are scoped, and exact whatever M is; the same model without
    the declaration takes the sampled path, the one M sizes.
    """
    model = ps.get_model("slam-small")
    _, obs = ps.simulate(model, model.true_map.astype(float), 16, substream(DATA_SEED, streams.DATA))
    exact = ps.slam_exact_forward(model, obs)

    def median_kl(model, algorithm, n, m, seeds=20):
        kls = []
        for seed in range(seeds):
            config = FilterConfig(n_particles=n, scheme=monte_carlo(max(m, 1)), seed=seed)
            run = (
                ps.run_assumed_density_filter(model, obs, config)
                if algorithm == "api"
                else ps.run_bootstrap_filter(model, obs, config)
            )
            kls.append(kl_factorized(run.fused.tables, exact.map_marginals))
        return float(np.median(kls))

    sampled = UnscopedSlam(model)
    return {
        "scoped": {nm: median_kl(model, "api", *nm) for nm in ((100, 50), (500, 50), (1500, 50))},
        "sampled": {
            nm: median_kl(sampled, "api", *nm) for nm in ((100, 50), (500, 50), (1500, 5), (1500, 50), (1500, 200))
        },
        "pf": {(1500, 0): median_kl(model, "pf", 1500, 0)},
    }


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_sin_accuracy(api_sin_runs):
    results, elapsed = api_sin_runs
    estimates = np.array([r.estimate[0] for r in results])
    value = mse(estimates, np.array([THETA_STAR_SIN]))
    ok = value <= 1e-3 and elapsed <= 60.0
    report(
        "criterion 1 (SIN accuracy)",
        ok,
        f"MSE {value:.3e} (<= 1e-3), wall clock {elapsed:.1f}s (<= 60s), N=1000 M=7 T=5000",
    )
    assert value <= 1e-3
    assert elapsed <= 60.0


def test_criterion_2_algorithm_ordering(sin_dataset, api_sin_runs):
    model, obs = sin_dataset
    api_results, _ = api_sin_runs
    api_err = np.array([(r.estimate[0] - THETA_STAR_SIN) ** 2 for r in api_results])
    budget = float(np.median([r.elapsed_s for r in api_results]))

    lw_err = []
    for seed in range(N_SEEDS):
        run = ps.run_liu_west_filter(
            model, obs, FilterConfig(n_particles=1000, seed=seed, shrinkage=0.98)
        )
        lw_err.append((run.estimate[0] - THETA_STAR_SIN) ** 2)
    lw_err = np.array(lw_err)

    # Matched compute: one PMMH iteration costs about one inner likelihood,
    # and the chain also pays one for its initial draw, so it gets the
    # smallest k >= 1 with (k + 1) * cost > budget.  Every seed gets this k.
    t0 = time.perf_counter()
    ps.pf_log_likelihood(model, np.array([THETA_STAR_SIN]), obs, 1000, substream(0, streams.CHAIN))
    cost = time.perf_counter() - t0
    iterations = max(1, int(budget // cost))

    pm_err, pm_accept = [], []
    for seed in range(N_SEEDS):
        res = ps.run_pmmh(
            model,
            obs,
            PmmhConfig(
                inner_particles=1000,
                iterations=iterations,
                proposal_sd=0.15,
                bounds=(-5.0, 5.0),
                seed=seed,
            ),
        )
        pm_err.append((res.estimate[0] - THETA_STAR_SIN) ** 2)
        pm_accept.append(res.acceptance_rate)
    pm_err = np.array(pm_err)

    lw_wins = int(np.sum(api_err < lw_err))
    pm_wins = int(np.sum(api_err < pm_err))
    lw_ratio = float(np.median(lw_err) / np.median(api_err))
    pm_ratio = float(np.median(pm_err) / np.median(api_err))
    ok = lw_wins >= 8 and pm_wins >= 8 and lw_ratio >= 10 and pm_ratio >= 10
    report(
        "criterion 2 (ordering on SIN)",
        ok,
        f"paired wins vs LW {lw_wins}/10, vs PMMH {pm_wins}/10; "
        f"median ratios LW {lw_ratio:.1f}x, PMMH {pm_ratio:.1f}x (>= 10x); "
        f"PMMH {iterations} iterations per chain at matched compute "
        f"(api median {budget:.2f}s, {cost:.2f}s per N=1000 likelihood), "
        f"median acceptance {np.median(pm_accept):.2f}",
    )
    assert lw_wins >= 8 and pm_wins >= 8
    assert lw_ratio >= 10 and pm_ratio >= 10


def _mode_masses(fused):
    lo = fused.interval_mass(-THETA_STAR_BIMODAL - 0.15, -THETA_STAR_BIMODAL + 0.15)
    hi = fused.interval_mass(THETA_STAR_BIMODAL - 0.15, THETA_STAR_BIMODAL + 0.15)
    return lo, hi


def test_criterion_3_bimodality(bimodal_dataset):
    model, obs = bimodal_dataset
    passes = 0
    masses = []
    for seed in range(N_SEEDS):
        config = FilterConfig(
            n_particles=1000,
            scheme=gauss_hermite(7),
            family="mixture",
            mixture_size=10,
            seed=seed,
        )
        run = ps.run_assumed_density_filter(model, obs, config)
        lo, hi = _mode_masses(run.fused)
        masses.append((lo, hi))
        if lo >= 0.2 and hi >= 0.2:
            passes += 1

    lw = ps.run_liu_west_filter(
        model, obs, FilterConfig(n_particles=100_000, seed=0, shrinkage=0.98)
    )
    lw_lo, lw_hi = _mode_masses(lw.fused)
    lw_fails_two_modes = not (lw_lo >= 0.2 and lw_hi >= 0.2)

    ok = passes >= 8 and lw_fails_two_modes
    report(
        "criterion 3 (bimodality)",
        ok,
        f"two-mode recovery in {passes}/10 seeds (>= 8) with L=10; "
        f"Liu-West at N=1e5 masses ({lw_lo:.3f}, {lw_hi:.3f}) fails two-mode: {lw_fails_two_modes}",
    )
    assert passes >= 8
    assert lw_fails_two_modes


def test_criterion_4_slam_exactness(slam_batch):
    pf = slam_batch["pf"][(1500, 0)]
    checks, details = [], []
    for path in ("scoped", "sampled"):
        api = slam_batch[path]
        kl_1500 = api[(1500, 50)]
        monotone = api[(100, 50)] >= api[(500, 50)] >= api[(1500, 50)]
        pf_ratio = pf / kl_1500
        checks.append((path, kl_1500 <= 0.1, monotone, pf_ratio >= 5.0))
        details.append(
            f"{path}: median KL at N=1500,M=50 {kl_1500:.4f} (<= 0.1); "
            f"monotone over N {api[(100, 50)]:.3f} >= {api[(500, 50)]:.3f} >= {kl_1500:.3f}: {monotone}; "
            f"PF/API ratio {pf_ratio:.1f}x (>= 5x)"
        )
    ok = all(all(check[1:]) for check in checks)
    report("criterion 4 (SLAM exactness)", ok, " | ".join(details))
    for path, small_kl, monotone, ratio_ok in checks:
        assert small_kl, path
        assert monotone, path
        assert ratio_ok, path


def test_criterion_5_parameter_sweep_shape(slam_batch):
    # M sizes the sampled update alone: a scoped update is exact at every M
    api = slam_batch["sampled"]
    non_increasing_in_n = api[(100, 50)] >= api[(500, 50)] >= api[(1500, 50)]
    gain_small_to_mid = api[(1500, 5)] - api[(1500, 50)]
    gain_mid_to_big = api[(1500, 50)] - api[(1500, 200)]
    saturated = gain_mid_to_big < 0.2 * gain_small_to_mid
    ok = non_increasing_in_n and saturated
    report(
        "criterion 5 (sweep shape, sampled update)",
        ok,
        f"KL non-increasing in N: {non_increasing_in_n}; "
        f"M gain 5->50 {gain_small_to_mid:.3f}, 50->200 {gain_mid_to_big:.3f} "
        f"({100 * gain_mid_to_big / gain_small_to_mid:.0f}% < 20%)",
    )
    assert non_increasing_in_n
    assert saturated


def _conjugate_oracle():
    # q = N(0,1), likelihood factor N(theta; 1, 1): posterior N(0.5, 0.5)
    def log_t(thetas):
        return gaussian_logpdf(thetas[:, 0], 1.0, 1.0)

    return GaussianApprox(np.zeros(1), np.eye(1)), log_t, 0.5, 0.5


def test_criterion_6a_projection_oracle_gauss_hermite():
    # M=15 is the smallest point count whose rule's own error on this
    # Gaussian integrand is below 1e-6: 4.4e-7 (mean) / 5.3e-7 (variance),
    # against 1.2e-6 / 2.3e-6 at M=14 and 1.3e-4 / 6.2e-3 at M=7.
    points = 15
    q, log_t, m_star, v_star = _conjugate_oracle()
    out = ps.gaussian_update(q, log_t, gauss_hermite(points))
    err_m = abs(out.mean[0] - m_star)
    err_v = abs(out.cov[0, 0] - v_star)
    ok = err_m < 1e-6 and err_v < 1e-6
    report(
        f"criterion 6a (projection vs conjugate, GH M={points})",
        ok,
        f"mean err {err_m:.2e}, cov err {err_v:.2e} (demanded < 1e-6)",
    )
    assert err_m < 1e-6
    assert err_v < 1e-6


def test_criterion_6b_projection_oracle_monte_carlo():
    q, log_t, m_star, v_star = _conjugate_oracle()
    estimates = np.array(
        [
            ps.gaussian_update(q, log_t, monte_carlo(100_000), substream(seed, 0)).mean[0]
            for seed in range(12)
        ]
    )
    se = estimates.std(ddof=1)
    err = abs(np.median(estimates) - m_star)
    ok = err <= 3 * se
    report(
        "criterion 6b (projection vs conjugate, MC M=1e5)",
        ok,
        f"median err {err:.2e} <= 3 SE = {3 * se:.2e}",
    )
    assert err <= 3 * se


def test_criterion_6c_exhaustive_discrete_vs_bruteforce():
    rng = substream(17, 0)
    tables = [np.array([0.35, 0.65]), np.array([0.2, 0.5, 0.3])]
    q = FactorizedDiscreteApprox(tables)
    t_table = rng.random((2, 3)) + 0.05

    def log_t(codes):
        return np.log(t_table[codes[:, 0], codes[:, 1]])

    out = ps.discrete_update(q, log_t, m=6)
    joint = np.einsum("a,b,ab->ab", q.table(0), q.table(1), t_table)
    joint /= joint.sum()
    err = max(
        np.abs(out.table(0) - joint.sum(axis=1)).max(),
        np.abs(out.table(1) - joint.sum(axis=0)).max(),
    )
    ok = err <= 1e-12
    report("criterion 6c (exhaustive discrete vs brute force)", ok, f"max err {err:.2e} <= 1e-12")
    assert err <= 1e-12


def test_criterion_6d_mixture_reduces_to_gaussian():
    q, log_t, _, _ = _conjugate_oracle()
    qm = MixtureApprox(np.ones(1), q.mean[None, :], q.cov[None, :, :])
    a = ps.gaussian_update(q, log_t, gauss_hermite(7))
    b = ps.mixture_update(qm, log_t, gauss_hermite(7))
    err = max(
        abs(a.mean[0] - b.means[0, 0]),
        abs(a.cov[0, 0] - b.covs[0, 0, 0]),
        abs(b.weights[0] - 1.0),
    )
    ok = err <= 1e-10
    report("criterion 6d (mixture L=1 equals Gaussian update)", ok, f"max err {err:.2e} <= 1e-10")
    assert err <= 1e-10


def test_criterion_7_quadrature_exactness():
    worst = 0.0
    for m in (2, 4, 7):
        points, weights = gauss_hermite_points(np.zeros(1), np.eye(1), m)
        for r in range(2 * m):
            exact = 0.0 if r % 2 else float(np.prod(np.arange(r - 1, 0, -2), initial=1.0))
            estimate = float(weights @ points[:, 0] ** r)
            rel = abs(estimate - exact) / max(1.0, abs(exact))
            worst = max(worst, rel)
    mean = np.array([0.7, -1.2])
    cov = np.array([[1.5, 0.4], [0.4, 0.9]])
    upoints, uweights = unscented_points(mean, cov)
    got_mean = uweights @ upoints
    dev = upoints - got_mean
    got_cov = np.einsum("k,kp,kq->pq", uweights, dev, dev)
    moment_err = max(np.abs(got_mean - mean).max(), np.abs(got_cov - cov).max())
    ok = worst <= 1e-9 and moment_err <= 1e-12
    report(
        "criterion 7 (quadrature exactness)",
        ok,
        f"GH rel err {worst:.2e} <= 1e-9 up to degree 2M-1; "
        f"sigma-point moment err {moment_err:.2e} <= 1e-12",
    )
    assert worst <= 1e-9
    assert moment_err <= 1e-12


def test_criterion_8_baseline_validity():
    # PMMH against the exact grid posterior
    model = ps.get_model("lg")
    _, obs = ps.simulate(model, np.array([0.7]), 60, substream(DATA_SEED, streams.DATA))
    oracle = ps.grid_posterior(model, obs, np.linspace(-3, 3, 301))
    res = ps.run_pmmh(
        model,
        obs,
        PmmhConfig(inner_particles=50, iterations=5000, proposal_sd=0.2, bounds=(-5, 5), seed=0),
    )
    kept = res.burned_in()[:, 0]
    x = kept - kept.mean()
    acf1 = min(max(float(np.corrcoef(x[:-1], x[1:])[0, 1]), 0.0), 0.99)
    n_eff = kept.size * (1 - acf1) / (1 + acf1)
    se = kept.std(ddof=1) / np.sqrt(n_eff)
    pmmh_err = abs(res.estimate[0] - oracle.mean())
    pmmh_ok = pmmh_err <= 3 * se

    # bootstrap-filter state means against the exact filter.  The Monte
    # Carlo standard error of the weighted mean is sd/sqrt(ESS); the
    # 3-sigma check applies per estimate, with a multiplicity allowance
    # for taking the max over 61 dependent steps.
    state_model = ps.get_model("lg", theta_fixed=0.8)
    _, obs2 = ps.simulate(state_model, np.zeros(0), 60, substream(DATA_SEED + 1, streams.DATA))
    kal = kalman_filter(ps.get_model("lg"), 0.8, obs2)
    n = 10_000
    run = ps.run_bootstrap_filter(state_model, obs2, FilterConfig(n_particles=n, seed=0))
    sd = np.sqrt(kal.variances)
    z = np.abs(run.state_mean[:, 0] - kal.means) / (sd / np.sqrt(run.ess))
    pf_ok = bool(np.median(z) <= 3.0 and z[-1] <= 3.0 and z.max() <= 4.5)

    ok = pmmh_ok and pf_ok
    report(
        "criterion 8 (baseline validity)",
        ok,
        f"PMMH err {pmmh_err:.4f} <= 3 chain SE {3 * se:.4f}; "
        f"PF state means vs exact filter: median z {np.median(z):.2f} (<= 3), "
        f"final z {z[-1]:.2f} (<= 3), max z {z.max():.2f} (<= 4.5 over 61 steps)",
    )
    assert pmmh_ok
    assert pf_ok


def test_criterion_9_performance_contract(sin_dataset, step_memory):
    model, obs = sin_dataset

    # 9a: traced memory stays flat in T over the steady state, sampled once
    # per step over 400 steps on a fresh (wrapped) model instance
    growth = {}
    for name, run, config in (
        (
            "api gaussian",
            ps.run_assumed_density_filter,
            FilterConfig(n_particles=500, scheme=gauss_hermite(7), seed=0),
        ),
        (
            "api mixture",
            ps.run_assumed_density_filter,
            FilterConfig(n_particles=500, scheme=gauss_hermite(7), family="mixture", seed=0),
        ),
        ("pf", ps.run_bootstrap_filter, FilterConfig(n_particles=500, seed=0)),
    ):
        with step_memory() as mem:
            run(mem.watch(ps.get_model("sin")), obs[:400], config)
        growth[name] = mem.steady_growth_kib()
    memory_ok = all(g <= mem.LIMIT_KIB for g in growth.values())

    # 9b: joint-filter overhead within 4x of the bootstrap filter, as the
    # ratio of medians over 5 alternating api/pf runs, so that a burst of
    # load from another process on the host moves one run, not the ratio
    short = obs[:2000]
    api_times, pf_times = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        ps.run_assumed_density_filter(
            model, short, FilterConfig(n_particles=1000, scheme=gauss_hermite(7), seed=1)
        )
        api_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        ps.run_bootstrap_filter(model, short, FilterConfig(n_particles=1000, seed=1))
        pf_times.append(time.perf_counter() - t0)
    ratio = float(np.median(api_times) / np.median(pf_times))
    ratio_ok = ratio <= 4.0

    # 9c: resample-before-update performs fewer updates than particles
    skew_model = ps.get_model("lg", obs_sd=0.05)
    _, skew_obs = ps.simulate(skew_model, np.array([0.7]), 30, substream(DATA_SEED, streams.DATA))
    skew_run = ps.run_assumed_density_filter(
        skew_model, skew_obs, FilterConfig(n_particles=200, scheme=gauss_hermite(7), seed=0)
    )
    updates_ok = bool(np.all(skew_run.n_updates[1:] < 200))

    ok = memory_ok and ratio_ok and updates_ok
    report(
        "criterion 9 (performance contract)",
        ok,
        "steady-state traced memory growth "
        + ", ".join(f"{name} {kib:.1f}" for name, kib in growth.items())
        + f" KiB (<= {mem.LIMIT_KIB}); "
        f"wall-clock ratio of medians api/pf {ratio:.2f} over 5 runs each (<= 4); "
        f"distinct-ancestor updates < N on skewed weights: {updates_ok} "
        f"(mean {skew_run.n_updates[1:].mean():.0f}/200)",
    )
    assert memory_ok
    assert ratio_ok
    assert updates_ok
