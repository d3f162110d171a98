"""Grid localization-and-mapping study: KL to the exact posterior.

Sweeps particle count N and update-sample count M for the joint filter on
the small instance, plus the bootstrap baseline, and prints median KL
divergences against the exact forward-pass posterior.

The bundled model declares that each step's factor reads one cell, so
its discrete updates are scoped: exact, whatever M is.  The M columns run
a copy of the model without that declaration, whose updates weight M
sampled codes; the "scoped" column runs the bundled model itself.

Usage: python scripts/slam_kl_sweep.py [--seeds 20]
"""

import argparse

import numpy as np

import paramsmc as ps
from paramsmc import rng as streams
from paramsmc.benchmarks import SlamModel
from paramsmc.engine import FilterConfig


class SampledSlam(SlamModel):
    """A copy of a SLAM model that declares no parameter scope: its updates sample."""

    def __init__(self, model: SlamModel):
        vars(self).update(vars(model))

    def param_scope(self, t, states):
        return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--data-seed", type=int, default=8)
    parser.add_argument("--particles", default="100,500,1500")
    parser.add_argument("--samples", default="5,50,200")
    args = parser.parse_args()

    model = ps.get_model("slam-small")
    _, obs = ps.simulate(
        model, model.true_map.astype(float), model.n_steps(), ps.substream(args.data_seed, streams.DATA)
    )
    exact = ps.slam_exact_forward(model, obs)
    sampled = SampledSlam(model)

    def median_kl(model, algorithm, n, m):
        kls = []
        for seed in range(args.seeds):
            config = FilterConfig(n_particles=n, scheme=ps.monte_carlo(m), seed=seed)
            run = (
                ps.run_assumed_density_filter(model, obs, config)
                if algorithm == "api"
                else ps.run_bootstrap_filter(model, obs, config)
            )
            kls.append(ps.kl_factorized(run.fused.tables, exact.map_marginals))
        return float(np.median(kls))

    n_values = [int(v) for v in args.particles.split(",")]
    m_values = [int(v) for v in args.samples.split(",")]

    print(f"exact posterior log evidence: {exact.log_evidence:.4f}")
    print(f"median KL(exact || estimate) over {args.seeds} seeds; sampled updates by M, scoped, pf")
    header = "N \\ M " + "".join(f"{m:>10}" for m in m_values) + f"{'scoped':>10}{'pf':>10}"
    print(header)
    for n in n_values:
        cells = [median_kl(sampled, "api", n, m) for m in m_values]
        # the scope's codes are one cell's labels: M = n_labels enumerates them
        cells.append(median_kl(model, "api", n, model.n_labels))
        cells.append(median_kl(model, "pf", n, 1))
        print(f"{n:<6}" + "".join(f"{c:>10.4f}" for c in cells))


if __name__ == "__main__":
    main()
