import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Subprocesses started by tests (`python -m flowplan.cli`) import the package
# from src/, as pytest's `pythonpath` setting makes the test process do.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path)
