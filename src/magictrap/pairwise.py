"""Float sums in the order of numpy's pairwise reduction, without numpy."""

from __future__ import annotations


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
