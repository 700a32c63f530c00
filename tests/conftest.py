import json
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def frozen_constants() -> dict[str, float]:
    """The 50-digit values of scripts/frozen_constants.py, rounded to doubles."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "frozen_constants.py"
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True)
    return {name: float(v) for name, v in json.loads(out.stdout).items()}
