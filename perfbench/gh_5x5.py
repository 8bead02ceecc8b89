"""Time one Gromov-Hausdorff instance at 5x5 points, the size the `gh`
workload leaves out because one call takes tens of seconds.

    python3 perfbench/gh_5x5.py --seed 1
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from time import perf_counter

from run import setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    setup("gh", args.seed)
    import inputs
    from metricat import geometry, jsonio

    rng = random.Random(f"perfbench:gh5x5:{args.seed}")
    x = jsonio.metric_space_from_json(inputs.metric_doc(inputs.rand_metric(rng, 5), list("abcde")))
    y = jsonio.metric_space_from_json(inputs.metric_doc(inputs.rand_metric(rng, 5), list("vwxyz")))
    t0 = perf_counter()
    value = geometry.gh_distance(x, y)
    seconds = perf_counter() - t0
    print(json.dumps({"size": "5x5", "seed": args.seed, "gh": str(value), "seconds": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
