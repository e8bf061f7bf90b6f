"""Locate the fxcast sources of the checkout this benchmark sits in.

The benchmark never uses an installed copy of fxcast: it runs the sources
of the checkout it belongs to, so that two checkouts can be compared.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def use_checkout_source():
    """Put ``<checkout>/src`` first on the import path, for this process and
    for every interpreter it starts; exit with an error if it is missing."""
    package = SRC / "fxcast"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fxcast sources at {package}")
    sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    import fxcast

    if Path(fxcast.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported fxcast from {fxcast.__file__}, not {package}")
