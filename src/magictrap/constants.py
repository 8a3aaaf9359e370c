"""Physical constants (CODATA 2018) and atomic-unit conversion factors.

All quantities SI unless the name says otherwise. Frequencies are ordinary
frequencies (Hz); angular frequencies are built where formulas need them.
"""

import math

# Exact SI defining constants (2019 redefinition)
SPEED_OF_LIGHT = 299792458.0          # m/s
PLANCK = 6.62607015e-34               # J s
ELEMENTARY_CHARGE = 1.602176634e-19   # C

HBAR = PLANCK / (2.0 * math.pi)       # J s

# CODATA 2018 measured values
VACUUM_PERMITTIVITY = 8.8541878128e-12   # F/m
BOHR_RADIUS = 5.29177210903e-11          # m
HARTREE = 4.3597447222071e-18            # J

# Atomic units in SI
DIPOLE_AU = ELEMENTARY_CHARGE * BOHR_RADIUS            # C m per e*a0
POLARIZABILITY_AU = (4.0 * math.pi * VACUUM_PERMITTIVITY
                     * BOHR_RADIUS**3)                  # C m^2/V per a.u.
HARTREE_HZ = HARTREE / PLANCK                           # Hz per hartree

# Prefactor of the decay-rate/dipole relation:
# gamma = omega^3 d^2 / (GAMMA_PREFACTOR * (2J_upper + 1))
GAMMA_PREFACTOR = 3.0 * math.pi * VACUUM_PERMITTIVITY * HBAR * SPEED_OF_LIGHT**3
