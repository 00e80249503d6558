"""Import the program from this checkout's ``src/``, never from elsewhere."""

from __future__ import annotations

import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on the path and prove it is used.

    Exits with an error when the sources are missing or when ``repro``
    is imported from anywhere else.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != (SOURCE / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")
