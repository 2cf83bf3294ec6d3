"""The prefix-band DP against its earlier form, bit for bit.

``reference_band_fill`` is the DP as it stood before its forward pass took
the backtrack's sums as it went: it kept a copy of the pieces before every
slot and summed them again in the backtrack. ``_prefix_band_fill`` must
return the same verdict and the same bytes on every instance, including
those whose equal-slope pieces are trimmed from both ends.
"""

import bisect

import numpy as np

from test_subproblem import band_instance

from fleetdr.subproblem import FEAS_TOL, _prefix_band_fill


def reference_band_fill(lo, up, coeff, floor, ceiling, target):
    start = 0.0
    pieces = []
    stages = []  # (start, pieces) of the cost before each slot
    for i in range(len(lo)):
        stages.append((start, pieces.copy()))
        start += lo[i]
        if up[i] > lo[i]:
            bisect.insort(pieces, (coeff[i], up[i] - lo[i]))
        if start < floor:
            cut = floor - start
            while pieces and pieces[0][1] <= cut:
                cut -= pieces.pop(0)[1]
            if pieces:
                pieces[0] = (pieces[0][0], pieces[0][1] - cut)
            elif cut > FEAS_TOL:
                return None
            start = floor
        end = start + sum(length for _, length in pieces)
        if end > ceiling:
            cut = end - ceiling
            while pieces and pieces[-1][1] <= cut:
                cut -= pieces.pop()[1]
            if pieces:
                pieces[-1] = (pieces[-1][0], pieces[-1][1] - cut)
            elif cut > FEAS_TOL:
                return None
    end = start + sum(length for _, length in pieces)
    if not start - FEAS_TOL <= target <= end + FEAS_TOL:
        return None

    x = np.zeros(len(lo))
    s = target
    for i in range(len(lo) - 1, -1, -1):
        start, pieces = stages[i]
        cheaper = sum(length for slope, length in pieces if slope < coeff[i])
        tied = sum(length for slope, length in pieces if slope == coeff[i])
        end = start + sum(length for _, length in pieces)
        best = min(max(s, start + cheaper), start + cheaper + tied)
        prev = min(max(best, start, s - up[i]), end, s - lo[i])
        x[i] = s - prev
        s = prev
    return x


def unordered_tie_trims(lo, up, coeff, floor, ceiling):
    """Count the right trims that leave the last piece shorter than an
    earlier piece of the same slope, so that the pieces are no longer in
    (slope, length) order. Replays only the forward pass's piece list."""
    start, pieces, count = 0.0, [], 0
    for i in range(len(lo)):
        start += lo[i]
        if up[i] > lo[i]:
            bisect.insort(pieces, (coeff[i], up[i] - lo[i]))
        if start < floor:
            cut = floor - start
            while pieces and pieces[0][1] <= cut:
                cut -= pieces.pop(0)[1]
            if not pieces:
                return count
            pieces[0] = (pieces[0][0], pieces[0][1] - cut)
            start = floor
        cut = start + sum(length for _, length in pieces) - ceiling
        if cut > 0:
            while pieces and pieces[-1][1] <= cut:
                cut -= pieces.pop()[1]
            if not pieces:
                return count
            pieces[-1] = (pieces[-1][0], pieces[-1][1] - cut)
            count += len(pieces) > 1 and pieces[-2] > pieces[-1]
    return count


def tie_instance(rng):
    """A band LP whose prices come from {0, 1, 2}, so equal-slope pieces
    pile up, with uneven widths and a band narrow enough to trim them from
    both ends."""
    k = int(rng.integers(2, 25))
    lo = np.where(rng.random(k) < 0.3, -rng.uniform(0.0, 1.8, k), 0.0)
    up = lo + rng.uniform(0.0, 1.8, k)
    floor = -float(rng.uniform(0.0, 4.0))
    ceiling = floor + float(rng.uniform(0.5, 6.0))
    coeff = rng.integers(0, 3, k).astype(float)
    return lo, up, coeff, floor, ceiling, rng.uniform(floor - 0.5,
                                                      ceiling + 0.5)


def assert_same(lo, up, coeff, floor, ceiling, target):
    args = (lo.tolist(), up.tolist(), coeff.tolist(), floor, ceiling,
            target)
    got, want = _prefix_band_fill(*args), reference_band_fill(*args)
    assert (got is None) == (want is None), args
    if got is not None:
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), args
    return got is not None


def test_band_fill_matches_reference_on_band_instances():
    rng = np.random.default_rng(4401)
    solved = 0
    for _ in range(2000):
        sub = band_instance(rng)
        solved += assert_same(sub.lo, sub.up, sub.coeff, sub.min_prefix,
                              sub.max_prefix, sub.target)
    assert 500 <= solved <= 1500, solved


def test_band_fill_matches_reference_on_tied_prices():
    rng = np.random.default_rng(4402)
    solved = unordered = 0
    for _ in range(2000):
        inst = tie_instance(rng)
        solved += assert_same(*inst)
        unordered += unordered_tie_trims(*inst[:-1]) > 0
    assert 500 <= solved <= 1500, solved
    # the case only the tuple bisect gets right must really occur
    assert unordered >= 500, unordered
