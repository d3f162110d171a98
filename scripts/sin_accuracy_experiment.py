"""Accuracy comparison on the SIN model within matched compute.

Runs the joint filter, the Liu-West filter, and PMMH on one shared
dataset over several seeds, then prints a squared-error table.  Every
PMMH chain gets the same iteration count: the number the median
joint-filter run's time buys at the measured cost of one inner
likelihood, which each iteration and the initial draw pay once.
Reproduces the headline single-parameter comparison.

Usage: python scripts/sin_accuracy_experiment.py [--seeds 10] [--steps 5000]
"""

import argparse
import time

import numpy as np

import paramsmc as ps
from paramsmc import rng as streams
from paramsmc.engine import FilterConfig, PmmhConfig


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--particles", type=int, default=1000)
    parser.add_argument("--data-seed", type=int, default=8)
    args = parser.parse_args()

    theta_star = -0.5
    model = ps.get_model("sin")
    _, obs = ps.simulate(
        model, np.array([theta_star]), args.steps, ps.substream(args.data_seed, streams.DATA)
    )

    rows = []
    api_times = []
    for seed in range(args.seeds):
        t0 = time.perf_counter()
        run = ps.run_assumed_density_filter(
            model, obs, FilterConfig(n_particles=args.particles, scheme=ps.gauss_hermite(7), seed=seed)
        )
        api_times.append(time.perf_counter() - t0)
        rows.append(("api", seed, run.estimate[0]))

    for seed in range(args.seeds):
        run = ps.run_liu_west_filter(
            model, obs, FilterConfig(n_particles=args.particles, seed=seed, shrinkage=0.98)
        )
        rows.append(("liu-west", seed, run.estimate[0]))

    budget = float(np.median(api_times))
    t0 = time.perf_counter()
    ps.pf_log_likelihood(model, np.array([theta_star]), obs, args.particles, ps.substream(0, streams.CHAIN))
    cost = time.perf_counter() - t0
    # the smallest k >= 1 with (k + 1) * cost > budget
    iterations = max(1, int(budget // cost))
    accept = []
    for seed in range(args.seeds):
        res = ps.run_pmmh(
            model,
            obs,
            PmmhConfig(
                inner_particles=args.particles,
                iterations=iterations,
                proposal_sd=0.15,
                bounds=(-5, 5),
                seed=seed,
            ),
        )
        rows.append(("pmmh", seed, res.estimate[0]))
        accept.append(res.acceptance_rate)

    print(f"dataset: SIN, T={args.steps}, theta*={theta_star}, N={args.particles}")
    print(
        f"pmmh iterations per run: {iterations} at matched compute "
        f"(median joint-filter time {budget:.2f}s, {cost * 1e3:.1f} ms per likelihood), "
        f"median acceptance {np.median(accept):.2f}"
    )
    print(f"{'algorithm':<10} {'mse':>12} {'median |err|':>14}")
    for algo in ("api", "liu-west", "pmmh"):
        errs = np.array([est - theta_star for a, _, est in rows if a == algo])
        print(f"{algo:<10} {np.mean(errs**2):>12.3e} {np.median(np.abs(errs)):>14.4f}")


if __name__ == "__main__":
    main()
