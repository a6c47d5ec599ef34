import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(p.name for p in DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs_clean(script, tmp_path):
    # demos that write files take their output directory as the first
    # argument, so the run leaves demos/output untouched
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / script), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stderr}"
    assert proc.stdout.strip()  # every demo narrates something
