"""Each demo script runs to completion against the package in ``src`` and
prints exactly the recorded stdout, pinned by its sha256 digest."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_step_semantics.py": "d98b6f4a97847849611b5e102dd0ed19657df5a3e3b7b822d6b9509029ec98fc",
    "02_whole_genome_radix.py": "507dec3da457ae60134e7e5dc2ecd8a41ea60724741f55848cb9cc80f5995d3d",
    "03_bounded_width_bucket.py": "38e3190e856c963e02f9c74890d59e0351daae1c8daaeba18d3c80fc55348f08",
    "04_one_step_classes.py": "ae53f334825b77f5737b57655af05db41325ec27ad9ca37ff732d4a384c32350",
    "05_vp_toolkit.py": "754144b623cb29caacb67d0ecca5eaca8b72fabd948ec511ae04723513622297",
    "06_benchmark.py": "86b8a7267636663cf48fdf61c37b4a23deaad4d4f6f6e9954931ac1dd5397e4a",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
