"""Cost of the projection and resampling kernels and of the bootstrap step, at the benchmark's shapes.

Times each kernel of paramsmc.approx and paramsmc.resampling on fixed
inputs shaped as the benchmark workloads call it, and the bootstrap
filter that scores PMMH's proposals:

* batch_gaussian_points and batch_moment_match at 410 rows (sin-api's
  distinct ancestors) and 4,070 rows (407 mixture owners x L = 10), each
  row with a 7-point Gauss-Hermite rule in p = 1, and GaussianCloud.update
  at 410 rows: points, a fixed factor and the match;
* batch_mixture_match and MixtureCloud.update at 407 owners x L = 10, and
  MixtureCloud.sample at N = 1,000, L = 10 (sin-bimodal-mixture);
* sample_codes and batch_discrete_match on one 65 x 50 x 20 block of
  two-valued codes, the sampled discrete update's block
  (slam-large-discrete), and batch_discrete_match in exhaustive mode on
  slam-small's 256 joint codes of 8 two-valued cells at 1,500 rows;
* DiscreteCloud.update at 1,000 rows of slam-large at M = 50, with the
  model's own factor at step 3: each owner's factor reads its cell, so
  the update is scoped where the model declares that (a tree without
  the declaration samples 50 codes per row);
* both resamplers at N = 50, 1,000 and 1,500;
* oracles.pf_log_likelihood (pmmh-lg's inner likelihood, through the
  one bootstrap step every filter runs) at N = 50, 200 and 1,000, on a
  301-observation series that the lg model draws at theta = 0.7 from
  data seed 1, in microseconds per step.

batch_moment_match at 4,070 rows and batch_mixture_match are timed again
on "bad" inputs, where one row (owner) in 50 is dead, every point at
-inf, and one in 50 holds a NaN point: the fallback path that keeps a
flagged row's previous moments.  The benchmark workloads never take it
(every call's rows are all ok there), so the plain cases are the ones
they run.

The repeats are interleaved: each round times every case once, so a
slow spell of the machine lands on all of them alike.  A kernel's round
time is the mean over --calls calls, each timed alone, so the untimed
copy of an input that a kernel writes into is left out; a filter's is
one call of 301 steps, divided by its steps, and the filter draws from
the same stream on every call.  Prints the median and quartiles of the
microseconds per call (per step, for a filter) over the rounds.

With --against SRC, SRC being another checkout's src directory, each
case of that tree is timed in the same process and round as this
tree's, back to back in alternating order, so a change of the machine's
speed between processes cannot read as a change of the code.  It prints
both medians and the rounds in which this tree's case was faster.  A tree
whose batch_moment_match and batch_mixture_match take evaluation points
rather than standard points and Cholesky factors gets those points in
their place; the cloud updates take the same arguments in every tree.

Usage: python scripts/kernel_cost.py [--repeats 25] [--calls 20] [--against SRC]
"""

import argparse
import functools
import importlib.util
import inspect
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import paramsmc
from paramsmc import rng as streams
from paramsmc.approx import (
    batch_gaussian_points,
    enumerate_codes,
    exhaustive_log_prior,
    gauss_hermite,
    sample_codes,
)

SEED = 0  # the inputs and the filter's stream, the same on every run
GH7 = gauss_hermite(7)
THETA = 0.7  # the filter's lg parameter
DATA_SEED = 1  # the filter's lg series


class Case(NamedTuple):
    """One timed case: what it times, at what shape, its arguments, and its callable in a tree."""

    name: str
    shape: str
    make_args: object  # () -> the arguments of one call
    get: object  # a tree's paramsmc package -> the callable
    steps: int = 0  # a filter's steps per call; 0 for a kernel, timed over --calls calls


def log_factor(points):
    """A smooth likelihood factor over the last axis, p = 1: every row keeps its mass."""
    return -0.5 * ((points[..., 0] - 0.4) / 0.3) ** 2


def module_kernel(name):
    """The kernel `name` of a tree's approx or resampling module."""
    return lambda tree: getattr(tree.approx, name, None) or getattr(tree.resampling, name)


def frame_kernel(name, points):
    """The match kernel `name` of a tree, called with standard points z and
    Cholesky factors; a tree whose kernel takes the evaluation points
    instead is called with points in z's place and without the factors."""

    def get(tree):
        kernel = getattr(tree.approx, name)
        if "chols" in inspect.signature(kernel).parameters:
            return kernel
        at = 0 if name == "batch_moment_match" else 3  # where z stands in the arguments
        return lambda *args: kernel(*args[:at], points, *args[at + 1 : -1])

    return get


def fixed_factor(points, rows):
    """The cloud updates' likelihood factor: log_factor of every point, whatever its owner."""
    return log_factor(points)


def spoil(logt, rows, every=50):
    """A copy of logt (J, rows * k) with one row in `every` dead and one holding a NaN point."""
    bad = logt.copy()
    per_row = bad.reshape(bad.shape[0], rows, -1)
    per_row[:, ::every] = -np.inf
    per_row[0, every // 2 :: every, 0] = np.nan
    return bad


def gaussian_cases(gen, rows, with_bad=False, with_update=False):
    means = gen.standard_normal((rows, 1))
    covs = 0.05 + 0.1 * gen.random((rows, 1, 1))
    points, logw, z, chols = batch_gaussian_points(means, covs, GH7, None)
    logt = log_factor(points)
    shape = f"{rows} x 7 x 1"
    match = frame_kernel("batch_moment_match", points)
    cases = [
        Case("batch_gaussian_points", shape, lambda: (means, covs, GH7, None), module_kernel("batch_gaussian_points")),
        Case("batch_moment_match", shape, lambda: (z, logw, logt, means, covs, chols), match),
    ]
    if with_bad:
        bad = spoil(logt, rows)
        cases.append(Case("batch_moment_match", f"{shape} bad", lambda: (z, logw, bad, means, covs, chols), match))
    if with_update:
        prev, owners = {"means": means, "covs": covs}, np.arange(rows)
        cases.append(
            Case(
                "GaussianCloud.update",
                shape,
                lambda: (prev, owners, fixed_factor, GH7, None),
                lambda tree: tree.approx.GaussianCloud(**prev).update,
            )
        )
    return cases


def mixture_cases(gen, owners, l, n):
    alphas = gen.dirichlet(np.ones(l), size=owners)
    means = gen.standard_normal((owners, l, 1))
    covs = 0.05 + 0.1 * gen.random((owners, l, 1, 1))
    points, logw, z, chols = batch_gaussian_points(means.reshape(-1, 1), covs.reshape(-1, 1, 1), GH7, None)
    logt = log_factor(points)
    cloud = dict(
        alphas=gen.dirichlet(np.ones(l), size=n),
        means=gen.standard_normal((n, l, 1)),
        covs=0.05 + 0.1 * gen.random((n, l, 1, 1)),
    )
    bad = spoil(logt, owners)
    rng = np.random.default_rng(SEED)
    shape = f"{owners} x {l} x 7 x 1"
    match = frame_kernel("batch_mixture_match", points)
    prev, rows = {"alphas": alphas, "means": means, "covs": covs}, np.arange(owners)
    return [
        Case("batch_mixture_match", shape, lambda: (alphas, means, covs, z, logw, logt, chols), match),
        Case("batch_mixture_match", f"{shape} bad", lambda: (alphas, means, covs, z, logw, bad, chols), match),
        Case(
            "MixtureCloud.update",
            shape,
            lambda: (prev, rows, fixed_factor, GH7, None),
            lambda tree: tree.approx.MixtureCloud(**prev).update,
        ),
        Case("MixtureCloud.sample", f"{n} x {l}", lambda: (rng,), lambda tree: tree.approx.MixtureCloud(**cloud).sample),
    ]


def discrete_cases(gen, b, m, p, joint_rows, joint_p):
    cards = np.full(p, 2)
    tables = gen.dirichlet(np.ones(2), size=(b, p))
    rng = np.random.default_rng(SEED)
    draws, codes = np.empty((b, m, p)), np.empty((b, m, p), dtype=np.int64)
    fresh = sample_codes(tables, cards, rng, m)
    logt = -0.1 * fresh.sum(axis=-1)

    def match_args():
        # fresh codes on every call, untimed, for a tree whose kernel writes into them
        np.copyto(codes, fresh)
        return tables, codes, None, logt, draws

    joint = enumerate_codes(np.full(joint_p, 2))
    joint_tables = gen.dirichlet(np.ones(2), size=(joint_rows, joint_p))
    joint_codes = np.broadcast_to(joint, (joint_rows,) + joint.shape)
    log_prior = exhaustive_log_prior(joint_tables, joint)
    joint_logt = -0.1 * joint_codes.sum(axis=-1)

    match = module_kernel("batch_discrete_match")
    shape = f"{b} x {m} x {p}"
    return [
        Case("sample_codes", shape, lambda: (tables, cards, rng, m, (draws, codes)), module_kernel("sample_codes")),
        Case("batch_discrete_match", shape, match_args, match),
        Case(
            "batch_discrete_match",
            f"{joint_rows} x {len(joint)} x {joint_p} joint",
            lambda: (joint_tables, joint_codes, log_prior, joint_logt),
            match,
        ),
    ]


def scoped_cases(gen, b, m):
    """DiscreteCloud.update at b rows of slam-large, under the model's factor at step 3, in each tree."""
    p = 20
    tables = gen.dirichlet(np.ones(2), size=(b, p))
    states = gen.integers(0, p, size=(b, 1)).astype(np.float64)
    windows = states[:, None]  # the robot stayed: every owner's transition has mass
    rng = np.random.default_rng(SEED)
    prev, rows = {"tables": tables}, np.arange(b)

    def get(tree):
        model = tree.get_model("slam-large")
        factor = tree.model.ParamLikelihood(model, 3, np.ones(1), states, windows)
        cloud = tree.approx.DiscreteCloud(tables, model.param_cardinalities, m)
        return functools.partial(cloud.update, prev, rows, factor, None)

    return [Case("DiscreteCloud.update", f"{b} x {p} slam-large", lambda: (rng,), get)]


def resampler_cases(gen, sizes):
    rng = np.random.default_rng(SEED)
    cases = []
    for n in sizes:
        weights = gen.dirichlet(np.ones(n))
        for name in ("multinomial_resample", "systematic_resample"):
            cases.append(Case(name, f"{n}", lambda w=weights: (w, rng), module_kernel(name)))
    return cases


def filter_cases(sizes):
    model = paramsmc.get_model("lg")
    _, obs = paramsmc.simulate(model, np.array([THETA]), 300, paramsmc.substream(DATA_SEED, streams.DATA))

    def make_args():
        return (paramsmc.substream(SEED, 0),)

    def get(n):
        return lambda tree: functools.partial(tree.oracles.pf_log_likelihood, tree.get_model("lg"), [THETA], obs, n)

    steps = obs.shape[0]
    return [Case("pf_log_likelihood", f"{n} x {steps}, per step", make_args, get(n), steps) for n in sizes]


def load_tree(src):
    """The paramsmc package under another tree's src, imported under a name of its own."""
    init = Path(src) / "paramsmc" / "__init__.py"
    spec = importlib.util.spec_from_file_location("paramsmc_against", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def time_calls(kernel, make_args, calls):
    """Mean microseconds per call over `calls` calls, each timed alone."""
    total = 0.0
    for _ in range(calls):
        call_args = make_args()
        start = time.perf_counter()
        kernel(*call_args)
        total += time.perf_counter() - start
    return total / calls * 1e6


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=25)
    parser.add_argument("--calls", type=int, default=20, help="calls timed per kernel and round")
    parser.add_argument("--against", type=Path, help="another checkout's src directory, timed in the same rounds")
    args = parser.parse_args()

    trees = [paramsmc]
    if args.against is not None:
        trees.insert(0, load_tree(args.against))
    gen = np.random.default_rng(SEED)
    cases = gaussian_cases(gen, 410, with_update=True) + gaussian_cases(gen, 4070, with_bad=True)
    cases += mixture_cases(gen, 407, 10, 1000) + discrete_cases(gen, 65, 50, 20, 1500, 8) + scoped_cases(gen, 1000, 50)
    cases += resampler_cases(gen, (50, 1000, 1500)) + filter_cases((50, 200, 1000))
    kernels = [[case.get(tree) for tree in trees] for case in cases]
    for case, tree_kernels in zip(cases, kernels):
        for kernel in tree_kernels:  # one untimed call each, so lazy set-up is not timed
            kernel(*case.make_args())
    per_call = [[[] for _ in trees] for _ in cases]
    for repeat in range(args.repeats):
        order = list(range(len(trees)))[:: 1 if repeat % 2 == 0 else -1]
        for times, tree_kernels, case in zip(per_call, kernels, cases):
            calls = 1 if case.steps else args.calls
            for side in order:
                times[side].append(time_calls(tree_kernels[side], case.make_args, calls) / (case.steps or 1))

    print(f"{args.repeats} interleaved repeats of {args.calls} calls per kernel, one call per filter")
    if args.against is None:
        print(f"{'kernel':<22}  {'shape':<20}  {'median us/call':>14}  {'quartiles':>17}")
        for (times,), (name, shape, *_) in zip(per_call, cases):
            median = statistics.median(times)
            q1, _, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else (median,) * 3
            print(f"{name:<22}  {shape:<20}  {median:>14.2f}  {q1:>8.2f}-{q3:<8.2f}")
        return
    print(f"{'kernel':<22}  {'shape':<20}  {'against us':>10}  {'this us':>10}  {'change':>7}  {'this faster':>11}")
    for (against, this), (name, shape, *_) in zip(per_call, cases):
        before, after = statistics.median(against), statistics.median(this)
        faster = sum(b < a for a, b in zip(against, this))
        print(
            f"{name:<22}  {shape:<20}  {before:>10.2f}  {after:>10.2f}  {after / before - 1:>+7.1%}  "
            f"{faster:>4} of {args.repeats:<4}"
        )


if __name__ == "__main__":
    main()
