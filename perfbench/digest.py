"""Print the simulated-statistics digest of one round of each workload, untimed.

    python3 perfbench/digest.py --seed 1                      # this checkout's src/
    python3 perfbench/digest.py --seed 1 --src /path/to/src   # any other source tree

To compare two commits, extract the other commit's sources with
`git archive <commit> src | tar -x -C <dir>` and diff the two outputs. A
change that only aims at speed leaves every line unchanged. The lines match
the `digest` lines that `run.py` prints before its result.
"""

import argparse

from bootstrap import add_program


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", help="manetwalk source tree (default: this checkout's src/)")
    args = parser.parse_args()
    add_program(args.src)
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        rnd = workload.run_round(args.seed, workloads.Env(workers=1))
        for line in workloads.digest_lines(name, args.seed, rnd):
            print(line)


if __name__ == "__main__":
    main()
