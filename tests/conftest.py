import pytest

from magictrap.atomdata import (Level, Species, TransitionLine,
                                bundled_species_path, gamma_from_dipole,
                                load_species)


@pytest.fixture(scope="session")
def sr87():
    return load_species(bundled_species_path("sr87"))


@pytest.fixture(scope="session")
def sr87_cal():
    return load_species(bundled_species_path("sr87"), use_calibration=True)


@pytest.fixture(scope="session")
def cs133():
    return load_species(bundled_species_path("cs133"))


def synth_species(levels, lines, name="Synth", mass_kg=1e-25, nuclear_spin=0.0):
    """Build a Species directly from (label, energy_hz, J) levels and
    (lower, upper, d_au) lines; frequencies come from the level energies."""
    level_objs = tuple(Level(lab, e, j) for lab, e, j in levels)
    by_label = {lv.label: lv for lv in level_objs}
    line_objs = []
    for lower, upper, d_au in lines:
        freq = by_label[upper].energy_hz - by_label[lower].energy_hz
        degeneracy = round(2 * by_label[upper].J) + 1
        line_objs.append(TransitionLine(
            lower, upper, freq, gamma_from_dipole(d_au, freq, degeneracy), d_au))
    return Species(name, mass_kg, nuclear_spin, level_objs, tuple(line_objs))
