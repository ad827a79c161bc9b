"""tools/exhaustive_check.py, at a size tier-1 can afford."""

import os
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "exhaustive_check.py"


def test_passes_up_to_four_vertices_and_five_up_to_isomorphism():
    done = subprocess.run([sys.executable, str(TOOL), "--max-n", "4"], capture_output=True, text=True,
                          env=dict(os.environ), check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    counts = [int(re.search(r": (\d+) graphs, sha256 [0-9a-f]{64}$", line).group(1)) for line in lines]
    # Connected labelled graphs on 1..4 vertices, then 21 connected classes on 5 under 3 relabellings.
    assert counts == [1, 1, 4, 38, 63]
