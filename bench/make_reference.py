"""Write bench/reference.npy, the stored raw samples the fading workloads
compare against.

    python3 bench/make_reference.py

For every sweep seed in ``range(REFERENCE_SEEDS)`` it stores the first
``REFERENCE_TRIALS`` per-trial log10 mode gains of each (rank, protocol)
block, shape ``(seeds, ranks * protocols, trials)``.  Trial ``i`` of a rank
point does not depend on the trial count, so these are the first rows of
every benchmark sweep at that seed.  Regenerate only on purpose: a change
that moves them by more than a few ulp is a regression.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

from qbclink import ChannelKind, ExperimentSpec, QiParams, run_rank_sweep  # noqa: E402

from workloads import (  # noqa: E402
    ARRAY, ETA, NS, NZ, PROTOCOLS, RANKS, REFERENCE_FILE, REFERENCE_SEEDS, REFERENCE_TRIALS,
)


def main() -> None:
    table = np.empty((REFERENCE_SEEDS, len(RANKS) * len(PROTOCOLS), REFERENCE_TRIALS))
    for seed in range(REFERENCE_SEEDS):
        spec = ExperimentSpec(
            n_tx=ARRAY, n_rx=ARRAY, rank_sweep=RANKS, reference_rtt=ETA,
            qi=QiParams(n_signal=NS, n_thermal=NZ, modes=1e9),
            trials=REFERENCE_TRIALS, seed=seed, channel_kind=ChannelKind.DOUBLE_RAYLEIGH,
        )
        results = run_rank_sweep(spec)
        if [(r.rank, r.protocol) for r in results] != [(r, p) for r in RANKS for p in PROTOCOLS]:
            sys.exit("run_rank_sweep changed its result order")
        table[seed] = [r.samples for r in results]
    np.save(REFERENCE_FILE, table)


if __name__ == "__main__":
    main()
