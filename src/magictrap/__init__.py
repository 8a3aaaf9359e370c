"""State-insensitive optical traps: polarizabilities, magic wavelengths,
lattice-clock spectroscopy, and cavity QED with FORT shifts."""

__version__ = "0.1.0"
