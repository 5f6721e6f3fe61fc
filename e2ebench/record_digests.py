"""Re-record ``digests.json``: every point's digest for a range of seeds.

Run from the root of a checkout, on a commit whose outputs are known
good (a change that must keep outputs byte-identical never re-records)::

    python3 e2ebench/record_digests.py

``gtc-ops`` and ``pixie3d-mhd`` take no seed, so their points are stored
under ``"any"``; ``chaos-flow`` labels each point with its own seed, so
its points are stored under ``"any"`` too; ``dataspaces-query`` is
stored per seed.
"""

from __future__ import annotations

import json
import sys

import worker

#: workload -> (benchmark seeds to record, whether digests depend on the seed)
PLAN = {
    "gtc-ops": ((0,), False),
    "pixie3d-mhd": ((0,), False),
    "dataspaces-query": (tuple(range(20)), True),
    "chaos-flow": ((0, 40, 80), False),  # each sweep covers 40 chaos seeds
}


def main():
    sys.path[:0] = [str(worker.ROOT / "src"), str(worker.HERE)]
    table = {}
    for name, (seeds, per_seed) in PLAN.items():
        runner = worker.Runner(name, seeds[0], expected={})
        for seed in seeds:
            runner.seed, runner.reference = seed, {}
            recs, wall = runner.sweep()
            if runner.failed:
                raise SystemExit(f"{name} seed {seed}: {runner.failures}")
            key = str(seed) if per_seed else "any"
            table.setdefault(name, {}).setdefault(key, {}).update(
                {r.label: r.digest for r in recs}
            )
            print(f"{name} seed={seed}: {len(recs)} points, {wall:.1f} s", flush=True)
    path = worker.DIGESTS
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
