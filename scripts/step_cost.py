"""Cost of one bootstrap filter step, at the layer level.

Times oracles.pf_log_likelihood, PMMH's inner likelihood, on a fixed
series simulated from the linear-Gaussian model, at several particle
counts.  The repeats are interleaved: each round calls the filter once
at every particle count, so a slow spell of the machine lands on all of
them alike.  Prints the median and quartiles of the microseconds per
step over the rounds, and the log-likelihood, which the same seed makes
the same on every call.

Usage: python scripts/step_cost.py [--particles 50 200 1000] [--steps 300] [--repeats 25]
"""

import argparse
import statistics
import time

import numpy as np

import paramsmc as ps
from paramsmc import rng as streams
from paramsmc.oracles import pf_log_likelihood

THETA = 0.7
DATA_SEED = 1  # the lg series
SEED = 0  # the filter's stream, the same on every call


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--particles", type=int, nargs="+", default=[50, 200, 1000])
    parser.add_argument("--steps", type=int, default=300, help="the series has steps + 1 observations")
    parser.add_argument("--repeats", type=int, default=25)
    args = parser.parse_args()

    model = ps.get_model("lg")
    _, obs = ps.simulate(model, np.array([THETA]), args.steps, ps.substream(DATA_SEED, streams.DATA))
    per_step = {n: [] for n in args.particles}
    log_liks = {}
    for n in args.particles:  # one untimed call each, so lazy set-up is not timed
        log_liks[n] = pf_log_likelihood(model, [THETA], obs, n, ps.substream(SEED, 0))
    for _ in range(args.repeats):
        for n in args.particles:
            rng = ps.substream(SEED, 0)
            start = time.perf_counter()
            pf_log_likelihood(model, [THETA], obs, n, rng)
            per_step[n].append((time.perf_counter() - start) / obs.shape[0] * 1e6)

    print(f"pf_log_likelihood on lg, theta={THETA}, {obs.shape[0]} observations, {args.repeats} interleaved repeats")
    print(f"{'N':>6}  {'median us/step':>14}  {'quartiles':>15}  log-likelihood")
    for n, times in per_step.items():
        median = statistics.median(times)
        q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (median,) * 3
        print(f"{n:>6}  {median:>14.2f}  {q1:>7.2f}-{q3:<7.2f}  {log_liks[n]!r}")


if __name__ == "__main__":
    main()
