"""Re-pin ``goldens.json`` from the current simulator.

Run from the repository root after an intended change of simulated
behaviour (never to make a failing benchmark pass)::

    python3 perfbench/pin_goldens.py

Pins every sweep and scalar point's counts and a digest of its per-CPU
results, plus the footprint abort rates at the default seed.
"""

from __future__ import annotations

import json
import os
import sys

from run import require_source

require_source()

import workloads  # noqa: E402


def main() -> int:
    points = {}
    for name in ("lock-storm", "tx-sweep"):
        for item in workloads.build(name, workloads.DEFAULT_SEED):
            if item.golden is not None and item.golden not in points:
                points[item.golden] = item.run().fingerprint
                print(item.golden, points[item.golden])
    with open(workloads.GOLDENS_PATH, "w") as handle:
        json.dump({"seed": workloads.DEFAULT_SEED, "points": points}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {len(points)} points in "
          f"{os.path.relpath(workloads.GOLDENS_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
