"""Wigner 6-j symbols via the Racah sum formula, and the light
polarizations whose geometry factors weight the vector and tensor parts.

Angular momenta may be half-integers; internally everything is doubled to
stay in exact integer arithmetic. Results are exact rationals under a square
root, evaluated in float (plenty for the J <= 2 couplings used here).
"""

from functools import lru_cache
from math import cos, factorial, sqrt
from typing import NamedTuple

from .errors import ValidationError


def _two(j):
    two_j = round(2 * j)
    if abs(2 * j - two_j) > 1e-9 or two_j < 0:
        raise ValueError(f"angular momentum {j} is not a non-negative half-integer")
    return two_j


def _triangle_ok(a, b, c):
    # doubled integers; parity condition makes a+b+c an even doubled sum
    return abs(a - b) <= c <= a + b and (a + b + c) % 2 == 0


def _delta(a, b, c):
    # triangle coefficient on doubled integers
    return (factorial((a + b - c) // 2)
            * factorial((a - b + c) // 2)
            * factorial((-a + b + c) // 2)
            / factorial((a + b + c) // 2 + 1))


@lru_cache(maxsize=None)
def _wigner_6j_doubled(a, b, c, d, e, f):
    if not (_triangle_ok(a, b, c) and _triangle_ok(a, e, f)
            and _triangle_ok(d, b, f) and _triangle_ok(d, e, c)):
        return 0.0

    t1 = (a + b + c) // 2
    t2 = (a + e + f) // 2
    t3 = (d + b + f) // 2
    t4 = (d + e + c) // 2
    t5 = (a + b + d + e) // 2
    t6 = (b + c + e + f) // 2
    t7 = (a + c + d + f) // 2

    total = 0.0
    for t in range(max(t1, t2, t3, t4), min(t5, t6, t7) + 1):
        total += ((-1) ** t * factorial(t + 1)
                  / (factorial(t - t1) * factorial(t - t2)
                     * factorial(t - t3) * factorial(t - t4)
                     * factorial(t5 - t) * factorial(t6 - t)
                     * factorial(t7 - t)))
    return sqrt(_delta(a, b, c) * _delta(a, e, f)
                * _delta(d, b, f) * _delta(d, e, c)) * total


def wigner_6j(j1, j2, j3, j4, j5, j6):
    """{j1 j2 j3; j4 j5 j6}; zero when any triangle condition fails."""
    return _wigner_6j_doubled(_two(j1), _two(j2), _two(j3),
                              _two(j4), _two(j5), _two(j6))


class LinearPolarization(NamedTuple):
    """Linear polarization; ``theta_p`` is the angle between the
    polarization axis and the quantization axis (radians)."""

    theta_p: float = 0.0

    @property
    def circular_degree(self) -> float:
        # A cos(kappa) = 0: linear light drives no vector shift
        return 0.0

    @property
    def tensor_angle_factor(self) -> float:
        return 0.5 * (3.0 * cos(self.theta_p) ** 2 - 1.0)


class CircularPolarization(NamedTuple):
    """sigma+ (sign=+1) or sigma- (sign=-1), propagating along the
    quantization axis; the polarization plane is then transverse, so the
    tensor geometry factor is -1/2."""

    sign: int = +1

    @property
    def circular_degree(self) -> float:
        if self.sign not in (-1, 1):
            raise ValidationError("circular polarization sign must be +1 or -1")
        return float(self.sign)

    @property
    def tensor_angle_factor(self) -> float:
        return -0.5


Polarization = LinearPolarization | CircularPolarization
