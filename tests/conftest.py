import sys
import tracemalloc

import hypothesis
import numpy as np
import pytest

# underflow-to-zero is the intended semantics of max-shifted weights
np.seterr(all="warn", under="ignore")

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, print_blob=True
)
hypothesis.settings.register_profile("fast", deadline=None, max_examples=10)
hypothesis.settings.load_profile("default")


class StepMemory:
    """tracemalloc's current traced size, sampled once per filter step.

    watch(model) wraps obs_logdensity on the model instance and samples at
    the first call of each step: the filters call it to weight the
    particles and the joint filter again inside its update.  The sample
    buffer is allocated before tracing starts, so recording adds no growth.

    A run whose steady state holds on to memory grows linearly in T; one
    leaked N=500 float row per step adds about 1.3 MB over 400 steps to
    steady_growth_kib, against LIMIT_KIB.
    """

    LIMIT_KIB = 64
    MIN_STEPS = 400

    def __init__(self):
        self.samples = np.zeros(4096, dtype=np.int64)
        self.count = 0
        self._step = None

    def watch(self, model):
        inner = model.obs_logdensity

        def sampled(t, *args):
            if t != self._step and self.count < self.samples.size:
                self._step = t
                self.samples[self.count] = tracemalloc.get_traced_memory()[0]
                self.count += 1
            return inner(t, *args)

        model.obs_logdensity = sampled
        return model

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        return False

    def steady_growth_kib(self) -> float:
        """Mean of the last tenth of the samples minus the mean of the second tenth."""
        if self.count < self.MIN_STEPS:
            raise ValueError(f"only {self.count} steps sampled, need {self.MIN_STEPS}")
        s = self.samples[: self.count].astype(np.float64)
        tenth = s.size // 10
        return float((s[-tenth:].mean() - s[tenth : 2 * tenth].mean()) / 1024.0)


@pytest.fixture
def step_memory():
    """A factory: each call gives a fresh StepMemory."""
    return StepMemory


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criteria report after the test summary."""
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "REPORT_LINES", None):
            terminalreporter.section("acceptance criteria")
            for line in mod.REPORT_LINES:
                terminalreporter.write_line(line)
            break
