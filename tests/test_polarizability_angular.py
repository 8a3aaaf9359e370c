"""Cross-check of the sublevel-resolved polarizability against an explicit
Clebsch-Gordan construction.

The oracle builds <k m'|d_q|J m> matrices from CG coefficients (normalized
to the catalog line strength), forms D = d.eps for the actual complex
polarization vector, and evaluates the second-order AC shift term by term:
co-rotating |<m'|D|m>|^2/(w_ki - w) plus counter-rotating
|<m'|D*|m>|^2/(w_ki + w). No 6-j symbols, no scalar/vector/tensor split.
"""

import math

import numpy as np
import pytest

from conftest import synth_species
from magictrap.constants import HARTREE_HZ
from magictrap.fieldtrap import CircularPolarization, LinearPolarization
from magictrap.polarizability import alpha_m_resolved

pytest.importorskip("sympy")


def cg(j1, m1, j2, m2, J, M):
    from sympy import Rational
    from sympy.physics.quantum.cg import CG
    return float(CG(Rational(round(2 * j1), 2), Rational(round(2 * m1), 2),
                    Rational(round(2 * j2), 2), Rational(round(2 * m2), 2),
                    Rational(round(2 * J), 2), Rational(round(2 * M), 2)).doit())


def dipole_matrices(J, Jk, d_au):
    """<k m'|d_q|J m> with the package normalization: the per-m strength sum
    over (q, m') equals d^2/(2J+1)."""
    ms = [m - J for m in range(round(2 * J) + 1)]
    mks = [m - Jk for m in range(round(2 * Jk) + 1)]
    raw = {q: np.zeros((len(mks), len(ms))) for q in (-1, 0, 1)}
    for q in (-1, 0, 1):
        for i, mk in enumerate(mks):
            for j, m in enumerate(ms):
                if abs(m + q - mk) < 1e-9:
                    raw[q][i, j] = cg(J, m, 1, q, Jk, mk)
    total_m0 = sum(np.sum(raw[q][:, 0] ** 2) for q in (-1, 0, 1))
    scale = math.sqrt((d_au**2 / (2 * J + 1)) / total_m0)
    return {q: scale * raw[q] for q in (-1, 0, 1)}


def alpha_oracle(J, Jk, d_au, w_ki, w, eps):
    dq = dipole_matrices(J, Jk, d_au)
    dz = dq[0]
    dx = (dq[-1] - dq[1]) / math.sqrt(2)
    dy = 1j * (dq[-1] + dq[1]) / math.sqrt(2)
    d_co = eps[0] * dx + eps[1] * dy + eps[2] * dz
    d_ct = np.conj(eps[0]) * dx + np.conj(eps[1]) * dy + np.conj(eps[2]) * dz
    out = {}
    for j, m in enumerate(m - J for m in range(round(2 * J) + 1)):
        co = np.sum(np.abs(d_co[:, j]) ** 2) / (w_ki - w)
        ct = np.sum(np.abs(d_ct[:, j]) ** 2) / (w_ki + w)
        out[m] = float(co + ct)
    return out


THETA = 0.6458


POLARIZATIONS = [
    ("linear_z", LinearPolarization(0.0), (0.0, 0.0, 1.0)),
    ("linear_tilted", LinearPolarization(THETA),
     (math.sin(THETA), 0.0, math.cos(THETA))),
    ("sigma_plus", CircularPolarization(+1),
     (-1 / math.sqrt(2), -1j / math.sqrt(2), 0.0)),
    ("sigma_minus", CircularPolarization(-1),
     (1 / math.sqrt(2), -1j / math.sqrt(2), 0.0)),
]


def frac(j):
    return f"{j:g}" if float(j).is_integer() else f"{round(2 * j)}/2"


# every dipole-allowed partner J - 1, J, J + 1 of J = 1/2, 1, 3/2 and 2; the
# J = 1 cases are named by the partner alone, the others as "J-partner"
J_PAIRS = [pytest.param(J, J + dj, id=frac(J + dj) if J == 1 else f"{frac(J)}-{frac(J + dj)}")
           for J in (0.5, 1, 1.5, 2) for dj in (-1, 0, 1) if J + dj >= 0]


@pytest.mark.parametrize("J,j_partner", J_PAIRS)
@pytest.mark.parametrize("name,pol,eps", POLARIZATIONS)
def test_per_m_matches_cg_construction(J, j_partner, name, pol, eps):
    d_au, nu0, lam = 2.3, 5.0e14, 8.5e-7
    species = synth_species([("g", 0.0, J), ("e", nu0, j_partner)],
                            [("g", "e", d_au)])
    got = alpha_m_resolved(species, "g", lam, pol).per_m_au
    w = (2.99792458e8 / lam) / HARTREE_HZ
    want = alpha_oracle(J, j_partner, d_au, nu0 / HARTREE_HZ, w, eps)
    assert sorted(got) == sorted(want)
    scale = max(abs(v) for v in want.values())
    for m in want:
        assert got[m] == pytest.approx(want[m], rel=1e-12, abs=1e-12 * scale)


def test_sigma_plus_resonates_the_m_minus_one_sublevel():
    """For J=1 -> J'=0 and sigma+ light, only m = -1 can absorb a photon, so
    it carries the near-resonant response; m = 0 has none at all."""
    species = synth_species([("g", 0.0, 1), ("e", 5.0e14, 0)], [("g", "e", 2.3)])
    got = alpha_m_resolved(species, "g", 8.5e-7, CircularPolarization(+1)).per_m_au
    assert got[-1] > got[+1] > 0
    assert got[0] == pytest.approx(0.0, abs=1e-12 * got[-1])


def test_pi_light_on_j0_partner_shifts_only_m0():
    """J=1 -> J'=0 under z-polarized light: only the m=0 sublevel couples."""
    species = synth_species([("g", 0.0, 1), ("e", 5.0e14, 0)], [("g", "e", 2.3)])
    got = alpha_m_resolved(species, "g", 8.5e-7, LinearPolarization(0.0)).per_m_au
    assert got[0] > 0
    assert got[1] == pytest.approx(0.0, abs=1e-12 * got[0])
    assert got[-1] == pytest.approx(0.0, abs=1e-12 * got[0])
