"""Run every workload several times and print the end-to-end table.

    python3 perfbench/suite.py [--runs N] [--seed S] [--checkout DIR ...]
                               [--trace]

Each run is one `perfbench/run.py` invocation with its own seed (S, S+1, ...)
and the run length fixed in BENCHMARK.json.  S defaults to the seed the
expected metric values were recorded at (expected.json), so the first run of
each workload also checks the seed-dependent ones.  With two --checkout
directories (say the parent commit and a change) the runs alternate between
them, swapping which goes first in each pair, and compare.py labels the
change.  --trace adds one traced run per workload and checkout, at S.
Records are appended to .perfbench_results/results.jsonl under the current
directory; the tables come from compare.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from workloads import load_expected  # noqa: E402


def main(argv=None):
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=load_expected()["seed"])
    ap.add_argument("--checkout", action="append", type=Path, default=[],
                    help="checkout to measure (repeat for parent and change)")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkout] or [Path.cwd()]
    out = Path(".perfbench_results/results.jsonl").resolve()
    out.parent.mkdir(parents=True, exist_ok=True)

    def run(checkout, workload, seed, trace):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(int(trace)), "--record", str(out)]
        done = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True)
        last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
        print(f"{checkout.name} {workload} seed={seed} trace={int(trace)}: "
              f"exit {done.returncode} {last[0][:160]}", flush=True)
        if done.returncode != 0:
            print(done.stderr[-2000:], file=sys.stderr)

    for workload in names:
        for i in range(args.runs):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for checkout in order:
                run(checkout, workload, args.seed + i, False)
        if args.trace:
            for checkout in checkouts:
                run(checkout, workload, args.seed, True)

    return compare.main([str(out)])


if __name__ == "__main__":
    sys.exit(main())
