"""Let the Python processes that the tests start import the package
from this checkout's src/, as the test process itself does through the
pytest pythonpath setting in pyproject.toml."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
