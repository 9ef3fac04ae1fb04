#!/usr/bin/env python3
"""Record the outcome of every benchmark operation in perfbench/expected.json.

    python3 perfbench/make_expected.py

Run it only on the commit whose outputs are the reference; the benchmark
judges later commits against the file. For each argument list the run
workloads and the tiny self-test use, it stores the exit code, the set of
(check name, status) pairs and the payload. The key leaves out ``--seed``;
verify commands are recorded under two seeds, and the script stops if the
two outcomes differ.
"""
from __future__ import annotations

import json
import random
import sys

import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    rng = random.Random(0)
    argvs = {}
    for batch, tiny in run.WORKLOADS.values():
        for argv in batch(rng) + tiny(rng):
            argvs.setdefault(run.expected_key(argv), argv)
    expected = {}
    for key, argv in sorted(argvs.items()):
        seeds = [["--seed", "11"], ["--seed", "977"]] if "--seed" in argv else [[]]
        outcomes = []
        for seed in seeds:
            res = run.spawn([sys.executable, "-c", run.NBK_MAIN, *key.split(), *seed])
            outcomes.append(run.outcome(res["exit"], run.read_report(res["stdout"])))
        if outcomes[0] is None or any(o != outcomes[0] for o in outcomes):
            print(f"{key}: outcome missing or seed-dependent", file=sys.stderr)
            return 1
        expected[key] = outcomes[0]
        print(f"{key}: exit {outcomes[0]['exit']}, {len(outcomes[0]['checks'])} checks")
    run.EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
