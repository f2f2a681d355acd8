"""Set-up probe: a fresh interpreter imports qbclink, makes one workload's
first and smallest call, and prints the monotonic clock when it returns.

    python3 probe.py SRC_DIR cli '["oracle", "--trials", "1"]'
    python3 probe.py SRC_DIR mesh '[8]'

``time.monotonic`` reads CLOCK_MONOTONIC, which every process on the host
shares, so the parent subtracts its own reading taken before the spawn.
"""

import sys
import time

src, kind, spec = sys.argv[1:4]
sys.path.insert(0, src)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402

import numpy as np  # noqa: E402

from qbclink import cli, mesh  # noqa: E402

args = json.loads(spec)
with contextlib.redirect_stdout(io.StringIO()):
    if kind == "cli":
        rc = cli.main(args)
    else:
        (n,) = args
        grid = np.arange(n)
        mesh.clements_decompose(np.exp(-2j * np.pi * np.outer(grid, grid) / n) / np.sqrt(n))
        rc = 0
if rc != 0:
    sys.exit(f"probe call exited with {rc}")
print(time.monotonic())
