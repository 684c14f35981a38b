"""One CLI start-up: import starkchain, then parse and validate a workload's configs.

run.py times this script in fresh interpreters for setup_s:
    python3 perfbench/setup_probe.py --workload paper_noisy --seed 0
"""

import argparse
import os
import sys

import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath("src"))
    from starkchain.config import parse_config

    for raw in workloads.workload_runs(args.workload, args.seed):
        parse_config(raw)


if __name__ == "__main__":
    main()
