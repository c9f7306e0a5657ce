"""Let the CLI processes that tests spawn import the package from ``src/``, as
the test process does through the ``pythonpath`` setting in pyproject.toml."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = [path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
