"""The greedy pour against its earlier form, bit for bit.

``reference_pour`` is the pour as it stood when each step called ``min``.
``_pour`` writes that call as one comparison; it must return the same list
bytes on every instance: charge-only and V2G lower bounds (``-0.0``
among them), capped widths down to ``0.0``, a ``remaining`` that runs out
exactly, at a slot boundary or inside a slot, and price orders with ties.
"""

import numpy as np

from fleetdr.subproblem import _pour


def reference_pour(x, width, remaining, order):
    for i in order.tolist():
        if remaining <= 0:
            break
        add = min(width[i], remaining)
        x[i] += add
        remaining -= add
    return x


def pour_instance(rng):
    """A pour over 1-24 slots. Half the instances use widths in quarters of
    a kWh and a ``remaining`` that is a sum of them in pour order, so the
    pour runs out exactly, often right at a slot boundary."""
    k = int(rng.integers(1, 25))
    rate = 1.8
    lo = rng.choice([0.0, -0.0, -rate], k).tolist()
    if rng.random() < 0.5:
        width = (rng.integers(0, 8, k) * 0.25).tolist()  # exact in binary
    else:
        # up cut to a cap's head-room, never below lo
        up = np.maximum(np.minimum(rate, rng.uniform(-2.0, 2.0, k)), lo)
        width = (up - np.array(lo)).tolist()
    coeff = rng.integers(0, 4, k).astype(float)  # ties in every order
    order = coeff.argsort(kind="stable")
    cut = int(rng.integers(0, k + 1))
    if rng.random() < 0.5:
        remaining = 0.0
        for i in order[:cut].tolist():
            remaining += width[i]
    else:
        remaining = float(rng.uniform(-0.5, sum(width) + 0.5))
    return lo, width, remaining, order


def assert_same_pour(lo, width, remaining, order):
    got = _pour(list(lo), width, remaining, order)
    want = reference_pour(list(lo), width, remaining, order)
    assert np.array(got).tobytes() == np.array(want).tobytes(), (
        lo, width, remaining, order)
    return got


def runs_out_at_a_boundary(width, remaining, order):
    """Does ``remaining`` reach exactly 0 as a slot fills?"""
    for i in order.tolist():
        if remaining <= 0:
            return False
        if remaining == width[i]:
            return True
        remaining -= min(width[i], remaining)
    return False


def test_pour_matches_reference_on_seeded_instances():
    rng = np.random.default_rng(2001)
    boundary = zero_width = negative_zero = 0
    for _ in range(5000):
        lo, width, remaining, order = pour_instance(rng)
        assert_same_pour(lo, width, remaining, order)
        boundary += runs_out_at_a_boundary(width, remaining, order)
        zero_width += 0.0 in width
        negative_zero += any(np.signbit(v) and v == 0 for v in lo)
    # the cases the instances are drawn for must really occur
    assert boundary >= 500, boundary
    assert zero_width >= 1000, zero_width
    assert negative_zero >= 1000, negative_zero


def test_pour_matches_reference_on_edge_instances():
    order = np.array([2, 0, 1])
    lo = [-1.8, -0.0, 0.0]
    for width in ([0.0, 0.0, 0.0], [1.8, 0.0, 3.6], [0.5, 0.25, 0.25]):
        for remaining in (-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 3.6, 5.4, 9.0):
            assert_same_pour(lo, width, remaining, order)
    # runs out exactly where the first slot fills, then leaves -0.0 alone
    got = assert_same_pour(lo, [1.8, 0.0, 3.6], 3.6, order)
    assert np.array(got).tobytes() == np.array([-1.8, -0.0, 3.6]).tobytes()
