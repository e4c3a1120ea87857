"""One set-up of a workload in a fresh interpreter: import, validate, deploy, build providers.

`run.py` times this process from spawn to exit; the median of several such
times is the benchmark's `setup_s`.
"""

import argparse

from bootstrap import add_program


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    add_program()
    import workloads
    workloads.WORKLOADS[args.workload].prepare(args.seed)


if __name__ == "__main__":
    main()
