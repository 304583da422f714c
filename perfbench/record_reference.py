"""Record the reference SSDs and state traces the benchmark checks against.

    python3 perfbench/record_reference.py

Runs one compare per workload at the default seed and writes
perfbench/reference/ssd.json and perfbench/reference/states.npz. Rerun it
only when a change is meant to alter the closed-loop numerics.
"""

import json

# run pins BLAS to one thread before it loads numpy, as in a benchmark run.
from run import (DEFAULT_SEED, REFERENCE_SSD, REFERENCE_STATES, ROOT, VARIANTS, WORKLOADS,
                 Bench, np)


def main() -> None:
    ssd, states = {}, {}
    for workload in WORKLOADS:
        bench = Bench(ROOT, workload, DEFAULT_SEED)
        results: list = []
        with bench.capturing(results):
            bench.compare()
        ssd[workload] = {}
        for res in results:
            if res.status != "ok":
                raise SystemExit(f"{workload}/{res.variant}: {res.status}")
            ssd[workload][res.variant] = res.ssd
            states[f"{workload}.{res.variant}"] = res.states
        assert tuple(ssd[workload]) == VARIANTS
    REFERENCE_SSD.parent.mkdir(exist_ok=True)
    with open(REFERENCE_SSD, "w") as handle:
        json.dump(ssd, handle, indent=2)
        handle.write("\n")
    np.savez_compressed(REFERENCE_STATES, **states)


if __name__ == "__main__":
    main()
