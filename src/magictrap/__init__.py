"""State-insensitive optical traps: polarizabilities, magic wavelengths,
lattice-clock spectroscopy, and cavity QED with FORT shifts."""

import os
from pathlib import Path

__version__ = "0.1.0"


def data_dir() -> Path:
    """Directory holding the bundled species files.

    The MAGICTRAP_DATA environment variable overrides the packaged data.
    """
    override = os.environ.get("MAGICTRAP_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"
