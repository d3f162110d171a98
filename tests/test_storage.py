"""Particle-store contracts: windows, ancestry, and arrays handed out."""

import numpy as np
import pytest

from paramsmc.rng import substream
from paramsmc.storage import ParticleStore


def test_push_then_window_round_trip():
    store = ParticleStore(4, 2, markov_order=1)
    x0 = np.arange(8.0).reshape(4, 2)
    store.push(x0)
    win = store.window()
    assert win.shape == (4, 1, 2)
    assert np.array_equal(win[:, -1, :], x0)


def test_window_before_time_zero_reads_zero():
    store = ParticleStore(3, 1, markov_order=2)
    store.push(np.ones((3, 1)))
    win = store.window()
    assert np.array_equal(win[:, 0, 0], np.zeros(3))
    assert np.array_equal(win[:, 1, 0], np.ones(3))


def test_resample_duplicates_rows():
    store = ParticleStore(4, 1, markov_order=1)
    store.push(np.array([[0.0], [1.0], [2.0], [3.0]]))
    store.resample(np.array([1, 1, 2, 2]))
    win = store.window()
    assert np.array_equal(win[:, -1, 0], np.array([1.0, 1.0, 2.0, 2.0]))


def test_push_shifts_in_place_and_resample_copies():
    # the bootstrap step pushes only once its consumer is done with the
    # step's windows, so push shifts them in place, copying the states in;
    # resample builds a new array, so windows handed out before it keep their rows
    store = ParticleStore(3, 1, markov_order=2)
    store.push(np.array([[1.0], [2.0], [3.0]]))
    held = store.window()
    states = np.array([[4.0], [5.0], [6.0]])
    store.push(states)
    states[:] = 0.0
    shifted = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
    assert np.array_equal(held[:, :, 0], shifted)
    store.resample(np.array([2, 0, 0]))
    assert np.array_equal(held[:, :, 0], shifted)
    assert np.array_equal(store.window()[:, :, 0], np.array([[3.0, 6.0], [1.0, 4.0], [1.0, 4.0]]))


def test_ancestry_composition_across_steps():
    # after two resamplings the window must reflect composed ancestry
    store = ParticleStore(3, 1, markov_order=1)
    store.push(np.array([[10.0], [20.0], [30.0]]))
    store.resample(np.array([2, 2, 0]))
    store.push(np.array([[1.0], [2.0], [3.0]]))
    store.resample(np.array([0, 0, 1]))
    win = store.window()
    assert np.array_equal(win[:, -1, 0], np.array([1.0, 1.0, 2.0]))


def test_gather_current_rows():
    store = ParticleStore(4, 1, markov_order=1)
    store.push(np.array([[5.0], [6.0], [7.0], [8.0]]))
    store.resample(np.array([3, 3, 0, 1]))
    got = store.gather_current(np.array([0, 2]))
    assert np.array_equal(got[:, 0], np.array([8.0, 5.0]))


@pytest.mark.parametrize("order, d", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2)])
def test_advance_is_push_then_resample_bits(order, d):
    rng = substream(31, 10 * order + d)
    n = 6
    stepwise, gathered = ParticleStore(n, d, order), ParticleStore(n, d, order)
    for step in range(7):
        states = rng.standard_normal((n, d))
        if step == 3:
            states = rng.integers(-5, 5, size=(n, d))  # push copies into a float64 array
        elif d == 1 and step == 4:
            states = states[:, 0]  # (n,) states reshape like (n, 1) ones
        elif step == 5:
            states.flags.writeable = False  # a read-only array
        elif step == 6:
            states = rng.standard_normal((d, 2 * n)).T[::2]  # a strided one
        ancestors = np.sort(rng.integers(0, n, size=n))
        stepwise.push(states)
        stepwise.resample(ancestors)
        gathered.advance(states, ancestors)
        want, got = stepwise.window(), gathered.window()
        assert got.dtype == want.dtype == np.float64 and got.shape == want.shape == (n, order, d)
        assert got.tobytes() == want.tobytes()


def test_advance_builds_new_windows():
    # the bootstrap step yields its windows before it advances: they keep
    # their rows, and the store holds no view of the states it was given
    store = ParticleStore(3, 1, markov_order=2)
    store.advance(np.array([[1.0], [2.0], [3.0]]), np.arange(3))
    held = store.window()
    before = held.copy()
    states = np.array([[4.0], [5.0], [6.0]])
    store.advance(states, np.array([2, 0, 0]))
    states[:] = 0.0
    assert np.array_equal(held, before)
    assert np.array_equal(store.window()[:, :, 0], np.array([[3.0, 6.0], [1.0, 4.0], [1.0, 4.0]]))
