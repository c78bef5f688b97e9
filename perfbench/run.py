"""pilotwave scenario benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record RESULTS.jsonl]

Run from the root of a pilotwave checkout; it runs that checkout's `src/`.
Every scenario run is a fresh `pilotwave run --threads 1` process (see
child.py), and runs go one at a time: a closed loop with one client.  The
seed is forwarded as `--seed`; only interference's inputs depend on it.

--trace 0 measures the end-to-end metrics in BENCHMARK.json:
  wall_ref     a run's wall_s divided by the time the calibration kernel
               takes (see calibrate()) just before and just after that run
               (median of runs); wall_s is the seconds from entering
               `cmd_run` to its return
  setup_s      seconds from process start until the spec is loaded and
               validated (median over the runs' own processes and
               SETUP_PROBES set-up-only processes, half of them started
               before the scenario runs and half after, so that the median
               spans the runs' time and not only a few seconds)
  peak_rss_mb  peak resident memory of a run's process, MiB (median)
Scenario runs start while the measuring window of S seconds has room for
another run as long as the last one; there is always at least one.  The
workloads are sized so that a window holds several runs (see workloads.py).
The host this was tuned on changes speed by up to 1.7x over minutes, and
the raw wall_s of two sets of the same code spread by up to 27%; dividing
each run by the calibration kernel timed around it cancels most of that.
The raw wall_s is printed and recorded too.

--trace 1 runs the workload once untraced and once traced, requires both to
report identical metrics, and prints the per-layer metrics in BENCHMARK.json;
`trace.overhead_s` is measured inside the traced process (see spans.py).

Every run is checked (workloads.check_run); a failed check, an unexpected
exit code or a crash counts in `failed`.  The last line of standard output
is the result as one JSON object; --record also appends it, with the run
context and every run's samples, to a JSON-lines file for suite.py and
compare.py.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import uuid
from pathlib import Path

import numpy as np
import scipy.fft

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import quartiles  # noqa: E402
from workloads import WORKLOADS, check_run, load_expected  # noqa: E402

SETUP_PROBES = 4         # set-up-only processes per untraced invocation
BUDGET_S = 170.0         # processes still running this long after start die

# calibration kernel: FFTs of a 1.5 MiB array (past L1, inside L2) and a
# loop of numpy scalar operations, the two kinds of work pilotwave's
# workloads spend their time on; about 0.5 s on the host it was tuned on
_CAL = np.random.default_rng(0).standard_normal((2, 64, 64, 24))
_CAL_FIELD = _CAL[0] + 1j * _CAL[1]
_CAL_PHASE = np.exp(1j * _CAL[1])
_CAL_POINTS = _CAL[0].ravel()[:2000]


def calibrate():
    """Seconds the calibration kernel takes now: a gauge of host speed.

    The kernel does fixed work with fixed inputs and calls nothing from
    pilotwave, so its time changes only when the host's speed does.
    """
    t0 = time.perf_counter()
    psi = _CAL_FIELD
    for _ in range(60):
        psi = scipy.fft.ifftn(scipy.fft.fftn(psi, workers=1) * _CAL_PHASE,
                              workers=1)
    acc = 0.0
    for _ in range(200):
        for x in _CAL_POINTS:
            acc += float(np.floor(x * 3.0))
    return time.perf_counter() - t0


def spawn(root, mode, run_dir, cli_args, timeout):
    """Run child.py once; returns (exit code or None on timeout, timings)."""
    run_dir.mkdir(parents=True)
    timings = run_dir / "timings.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(timings), "--",
           *cli_args]
    with open(run_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            code = proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    t = json.loads(timings.read_text()) if timings.is_file() else {}
    if "loaded" in t:
        t["setup_s"] = t["loaded"] - t_spawn
    if "enter" in t:
        t["wall_s"] = t["exit"] - t["enter"]
    return code, t


def print_stderr(run_dir):
    tail = (run_dir / "stderr.txt").read_text(errors="replace")[-2000:]
    if tail.strip():
        print(tail.rstrip(), file=sys.stderr)


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.name = workload
        self.seed = seed
        self.wl = WORKLOADS[workload]
        self.expected = load_expected()
        self.workdir = root / ".perfbench_out" / f"{workload}-{uuid.uuid4().hex[:8]}"
        self.n = 0
        self.deadline = time.monotonic() + BUDGET_S

    def cli_args(self, out):
        args = ["--spec", self.wl["spec"], "--out", str(out), "--threads", "1",
                "--seed", str(self.seed)]
        for s in self.wl["overrides"]:
            args += ["--set", s]
        return args

    def _dir(self):
        self.n += 1
        return self.workdir / f"run{self.n}"

    def setup_probe(self):
        run_dir = self._dir()
        code, t = spawn(self.root, "setup", run_dir,
                        self.cli_args(self.workdir / "unused"),
                        self.deadline - time.monotonic())
        if code != 0 or "setup_s" not in t:
            print_stderr(run_dir)
            raise RuntimeError(f"set-up probe exited with {code}")
        return t["setup_s"]

    def scenario(self, mode):
        """One checked scenario run: (timings, report or None, problems)."""
        run_dir = self._dir()
        out = run_dir / "out"
        code, t = spawn(self.root, mode, run_dir, self.cli_args(out),
                        self.deadline - time.monotonic())
        report = None
        if (out / "report.json").is_file():
            report = json.loads((out / "report.json").read_text())
        if code is None:
            problems = [f"killed {BUDGET_S:.0f} s after the benchmark started"]
        else:
            problems = check_run(self.name, code, report, self.seed,
                                 self.expected)
        if problems:
            print_stderr(run_dir)
        if report is not None:
            t["out_bytes"] = sum(p.stat().st_size for p in out.iterdir())
        t["run_dir"] = run_dir
        return t, report, problems


def measure(bench, seconds):
    """Untraced runs; returns (attempted, failed, samples per metric)."""
    setups = [bench.setup_probe() for _ in range(SETUP_PROBES // 2)]
    walls, refs, wall_refs, rss = [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    last = 0.0
    ref = calibrate()
    while attempted == 0 or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        t, _, problems = bench.scenario("run")
        ref_before, ref = ref, calibrate()
        last = time.monotonic() - t0
        attempted += 1
        state = "; ".join(problems) if problems else "correct"
        print(f"run {attempted}: wall_s={t.get('wall_s', float('nan')):.4f} "
              f"ref_s={(ref_before + ref) / 2:.4f} "
              f"setup_s={t.get('setup_s', float('nan')):.4f} "
              f"peak_rss_mb={t.get('maxrss_kib', 0) / 1024:.1f}  {state}")
        if problems:
            failed += 1
            continue
        walls.append(t["wall_s"])
        refs.append((ref_before + ref) / 2)
        wall_refs.append(walls[-1] / refs[-1])
        setups.append(t["setup_s"])
        rss.append(t["maxrss_kib"] / 1024)
    setups += [bench.setup_probe()
               for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    return attempted, failed, {"wall_ref": wall_refs, "setup_s": setups,
                               "peak_rss_mb": rss, "wall_s": walls,
                               "ref_s": refs}


def traced(bench):
    """One untraced and one traced run; returns (attempted, failed, metrics)."""
    from spans import layer_metrics

    _, base_report, base_problems = bench.scenario("run")
    t, report, problems = bench.scenario("trace")
    failed = int(bool(base_problems)) + int(bool(problems))
    for p in base_problems:
        print(f"untraced run: {p}", file=sys.stderr)
    for p in problems:
        print(f"traced run: {p}", file=sys.stderr)
    if base_report is not None and report is not None:
        # compared as serialised text: float for float, NaN included
        keys = ("metrics", "twin", "verdicts")
        if any(json.dumps(base_report[k]) != json.dumps(report[k])
               for k in keys):
            print("traced run: report differs from the untraced run",
                  file=sys.stderr)
            failed += 1
    spans_file = t["run_dir"] / "spans.json"
    if failed or not spans_file.is_file():
        return 2, max(failed, 1), {}
    m = layer_metrics(json.loads(spans_file.read_text()))
    m["cli.out_bytes"] = t["out_bytes"]
    return 2, 0, m


def source_digest(root):
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_context(root, args, attempted):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (d / "size").read_text().strip()
        except OSError:
            pass
    wl = WORKLOADS[args.workload]
    return {
        "git_revision": rev, "source_sha256": source_digest(root),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "caches": caches, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "workload": args.workload, "seed": args.seed,
        "spec": wl["spec"], "overrides": wl["overrides"], "threads": 1,
        "seconds": args.seconds, "trace": args.trace, "runs": attempted,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path, default=None,
                    help="append the result and its context to this file")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pilotwave" / "cli.py").is_file():
        print(f"error: {root} is not a pilotwave checkout (no src/pilotwave)",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]

    bench = Bench(root, args.workload, args.seed)
    started = time.time()
    try:
        if args.trace:
            attempted, failed, values = traced(bench)
            metrics = {m["name"]: values[m["name"]] for m in wanted
                       if m["name"] in values}
        else:
            attempted, failed, samples = measure(bench, args.seconds)
            units = {"wall_s": "s", "ref_s": "s",
                     **{m["name"]: m["unit"] for m in wanted}}
            medians = {}
            for name, vals in samples.items():
                if not vals:
                    continue
                q1, medians[name], q3 = quartiles(vals)
                print(f"{name}: median {medians[name]:.4f} {units[name]}  "
                      f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(vals)}")
            print(f"fail_ratio: {failed}/{attempted} = "
                  f"{failed / attempted:.3f}")
            metrics = {m["name"]: medians[m["name"]] for m in wanted
                       if m["name"] in medians}
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
        try:
            bench.workdir.parent.rmdir()
        except OSError:
            pass

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not failed:
        print("error: no value for " + ", ".join(missing), file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    ctx = run_context(root, args, attempted)
    print("context: " + json.dumps(ctx))
    if args.record is not None:
        rec = {"label": root.name, "started_unix": started,
               "context": ctx, "result": result}
        if not args.trace:
            rec["samples"] = samples
        with open(args.record, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
