"""Record the risk-CSV digests that run.py checks at the default seed.

    python3 perfbench/record_digests.py

Runs every risk item of a default-length run (run_seconds from
BENCHMARK.json) at the default seed and writes perfbench/digests.json.
Run it only at a commit whose risk rows are known good: the digests pin
those rows byte for byte.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.pin_blas_threads()
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    import tracer
    import workloads

    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    api = tracer.Hooks(spans=False).api
    digests = {}
    for name in ("risk_graphon", "risk_matrix"):
        wl = workloads.workload(name)
        cycles = max(1, round(seconds / wl.cycle_s))
        items = workloads.make_items(wl, workloads.DEFAULT_SEED, cycles)[1]
        digests[name] = [workloads.csv_digest(workloads.run_item(it, api)[1]) for it in items]
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
