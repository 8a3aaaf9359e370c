"""Float arithmetic in numpy's order without numpy, and where it runs.

FLOAT_POINTS is the rule: ``linspace`` and ``geomspace`` give a grid of at
most that many points (every default grid of the magic search, `clock-line`
and `sidebands`) as a list, evaluated a point at a time on floats with
numpy's bits, and a larger one as a numpy array with the same bits. Code
handed a grid takes its mode from its type, and every grid a table is
written on passes ``increasing`` first.
"""

from __future__ import annotations

import math

FLOAT_POINTS = 2000


def linspace(lo: float, hi: float, n: int):
    """n points from lo to hi with the bits of ``np.linspace(lo, hi, n)``
    (k * step + lo, the last exact) wherever its step is not 0: that array
    above FLOAT_POINTS, else a list."""
    if n > FLOAT_POINTS:
        import numpy as np
        return np.linspace(lo, hi, n)
    step = (hi - lo) / max(n - 1, 1)
    grid = [k * step + lo for k in range(n)]
    if n > 1:
        grid[-1] = hi
    return grid


def geomspace(lo: float, hi: float, n: int):
    """``np.geomspace(lo, hi, n)`` for lo > 0 in ``linspace``'s container, its
    exponents raised by libm's pow (``**``, or ``np.float_power``: ``np.power``
    may take a SIMD kernel) and both ends exact, under any numpy dispatch."""
    exponents = linspace(math.log10(lo), math.log10(hi), n)
    if isinstance(exponents, list):
        grid = [10.0 ** y for y in exponents]
    else:
        import numpy as np
        grid = np.float_power(10.0, exponents)
    if n:  # hi first, so that one point is [lo]
        grid[-1], grid[0] = hi, lo
    return grid


def increasing(grid) -> bool:
    """Whether each point of a list or a 1-D array is above the one before."""
    if isinstance(grid, list):
        return all(a < b for a, b in zip(grid, grid[1:]))
    import numpy as np
    return bool(np.all(np.diff(grid) > 0))


def pairwise_sum(term, lo: int, hi: int):
    """term(lo) + ... + term(hi - 1) in the order numpy's pairwise
    ``.sum(axis=-1)`` adds a row: one running sum below 8 terms, 8 running
    sums up to 128, and above that two halves split at a multiple of 8. A
    float or an array of terms gets the bits of that reduction, 0 as +0.0."""
    n = hi - lo
    if n > 128:
        mid = lo + n // 2 - n // 2 % 8
        return pairwise_sum(term, lo, mid) + pairwise_sum(term, mid, hi)
    total, rest = 0.0, range(lo, hi)
    if n >= 8:
        r = [term(k) for k in range(lo, lo + 8)]
        for k in range(lo + 8, hi - n % 8):
            r[(k - lo) % 8] += term(k)
        total += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = range(hi - n % 8, hi)
    for k in rest:
        total += term(k)
    return total
