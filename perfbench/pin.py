"""Pin the sweep's expected outputs in ``perfbench/digests.json``.

    python3 perfbench/pin.py

For every experiment seed the sweep can use, runs one traced cold pass
of ``repro run E1,E2,E3`` and records the sha256 of the experiments'
derived values and the total search requests the trace counted.  Run
it only when the experiments' numbers are meant to change; a
performance change must leave both untouched.
"""

from __future__ import annotations

import json
import sys

import measure
import run


def main() -> int:
    seeds = {}
    for seed in range(1, run.SWEEP_SEED_CLASSES + 1):
        ctx = run.Context("pin", seed)
        try:
            trace = ctx.path("trace")
            cold = ctx.path("cold")
            ctx.run(
                [
                    "run", run.SWEEP_EXPERIMENTS, "--seed", str(seed),
                    "--jobs", str(ctx.nproc), "--json-dir", cold,
                ],
                trace,
            )
            spans, _, problems = run.merged_spans([trace])
            layers, _ = run.spanlib.layer_metrics(spans)
            if problems:
                raise SystemExit(f"trace problems: {problems}")
            seeds[str(seed)] = {
                "derived_sha256": measure.digest(run._derived(cold)),
                "search_requests": layers["search.requests"],
            }
            print(seed, seeds[str(seed)], flush=True)
        finally:
            ctx.close(keep=False)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(
            {"experiments": run.SWEEP_EXPERIMENTS, "seeds": seeds},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
