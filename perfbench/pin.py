"""Pin the outputs a workload's targets must reproduce.

    python3 perfbench/pin.py --workload detect-minimize --seeds 0-39

Runs every candidate target twice, untraced, and records its
deterministic outputs (``checks``) and exact-repeat counters
(``counters``) in ``expected/<workload>.json``, the oracle ``run.py``
checks every sample against. A candidate whose two runs differ stops
the pinning. Candidates are kept in the workload's pool when:

- fuzz-clean: the campaign stays clean and tests
  ``sample.FUZZ_CLEAN_INPUTS`` inputs;
- detect-minimize: the violation is found within
  ``sample.DETECT_BAND`` test cases, up to ``sample.DETECT_TARGETS``
  targets per ISA;
- sweep-grid: always.

Re-pinning is only legitimate when a change is meant to alter what the
engine reports; a speed-up must leave every pin unchanged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import ARCHES, WORK, pin_path, preflight, run_sample
from sample import DETECT_BAND, DETECT_TARGETS, FUZZ_CLEAN_INPUTS


def seed_range(text):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def keep(workload, sample, kept):
    """Whether a candidate joins the pool, given the ``kept`` targets
    of its ISA so far."""
    if workload == "fuzz-clean":
        return (not sample["checks"]["found"]
                and sample["inputs"] == FUZZ_CLEAN_INPUTS)
    if workload == "detect-minimize":
        low, high = DETECT_BAND
        return (low <= sample["checks"]["test_cases_until_found"] <= high
                and len(kept) < DETECT_TARGETS)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz-clean", "detect-minimize", "sweep-grid"))
    parser.add_argument("--seeds", type=seed_range, required=True)
    args = parser.parse_args()
    preflight()
    arches = (None,) if args.workload == "sweep-grid" else ARCHES
    workdir = os.path.join(WORK, f"pin-{os.getpid()}")
    pool = {}
    for arch in arches:
        for seed in args.seeds:
            target = {"seed": seed} if arch is None else {"arch": arch, "seed": seed}
            try:
                first, second = (
                    run_sample(args.workload, target, False, workdir)
                    for _ in range(2)
                )
            except RuntimeError as exc:
                print(f"{target} dropped: {str(exc).splitlines()[-1]}", flush=True)
                continue
            pinned = {key: first[key] for key in ("checks", "counters")}
            for key in pinned:
                if second[key] != pinned[key]:
                    sys.exit(f"{target} does not repeat: {key} "
                             f"{pinned[key]} vs {second[key]}")
            slot = pool if arch is None else pool.setdefault(arch, {})
            kept = keep(args.workload, first, slot)
            print(json.dumps({"target": target, "kept": kept,
                              "wall_s": [first["wall_s"], second["wall_s"]],
                              **pinned}), flush=True)
            if kept:
                slot[str(seed)] = pinned
    with open(pin_path(args.workload), "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
