"""Fresh-interpreter set-up of one workload, timed by the parent process.

Usage: python3 bench/setup_probe.py <workload> <seed>

Imports the package, builds the workload's config, detector quantile and
inputs, runs the one-step warm-up, prints "ready" and exits. `run.py`
times it from process start to that line.
"""

import sys

import workloads


def main(argv):
    name, seed = argv[1], int(argv[2])
    workloads.setup(workloads.WORKLOADS[name], seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv)
