"""Command-line interface: run scenarios, summarize runs, emit plot data.

A run directory holds spec.json (the effective, validated spec after
overrides), report.json, metrics.csv, and manifest.json listing every other
file with its sha256.  `report` is read-only; `plotdata` writes plain-text
columnar files for external plotting tools (no rendering here).

Exit codes: 0 scenario passed, 1 error, 2 scenario failed, 3 inconclusive.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import scipy.fft

from . import __version__
from .fields import FieldError
from .scenarios import SpecError, load_spec, run_scenario

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

_VERDICT_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL,
                 "inconclusive": EXIT_INCONCLUSIVE}

# metric keys that form the per-time series table, with column names
_SERIES_COLUMNS = (
    ("r_series", "r"),
    ("l1_series", "interference_L1"),
    ("deviation_series", "deviation"),
    ("h_series", "H"),
    ("h_eq_series", "H_eq"),
)

PLOT_WHAT = ("density", "metrics", "trajectories")


def _utcnow():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _fmt(v):
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _series_table(metrics):
    """Time axis plus every stored series that shares its length."""
    times = metrics.get("times") or []
    cols = [("t", times)]
    for key, name in _SERIES_COLUMNS:
        v = metrics.get(key)
        if isinstance(v, list) and len(v) == len(times):
            cols.append((name, v))
    return cols


# ---------------------------------------------------------------------------
# run

def cmd_run(spec_path, out_dir, overrides=(), seed=None, threads=None):
    if threads is not None and threads < 1:
        print(f"error: --threads must be at least 1, got {threads}",
              file=sys.stderr)
        return EXIT_ERROR
    overrides = list(overrides)
    if seed is not None:
        overrides.append(f"seed={seed}")
    try:
        spec = load_spec(spec_path, overrides)
    except (SpecError, OSError, json.JSONDecodeError) as e:
        print(f"error: invalid spec: {e}", file=sys.stderr)
        return EXIT_ERROR

    threads = threads or os.cpu_count() or 1
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = _utcnow()
    try:
        with scipy.fft.set_workers(threads):
            report = run_scenario(spec)
    except (FieldError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR

    with open(out / "spec.json", "w") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)
    with open(out / "metrics.csv", "w", newline="") as fh:
        cols = _series_table(report.metrics)
        w = csv.writer(fh)
        w.writerow([name for name, _ in cols])
        for row in zip(*[vals for _, vals in cols]):
            w.writerow([_fmt(v) for v in row])
    report.artifacts = ["spec.json", "report.json", "metrics.csv"]
    report.save(out / "report.json")

    inventory = {p.name: _sha256(p) for p in sorted(out.iterdir())
                 if p.is_file() and p.name != "manifest.json"}
    manifest = {
        "tool_version": __version__,
        "spec_hash": report.spec_hash,
        "seed": spec["seed"],
        "started_utc": started,
        "finished_utc": _utcnow(),
        "threads": threads,
        "files": inventory,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)

    print(f"{spec['kind']}: {report.verdict}  ({out / 'report.json'})")
    for name, v in report.verdicts.items():
        print(f"  {name}: {v}")
    return _VERDICT_EXIT[report.verdict]


# ---------------------------------------------------------------------------
# report

def _load_run(run_dir):
    run = Path(run_dir)
    mpath = run / "manifest.json"
    if not mpath.is_file():
        raise FileNotFoundError(f"no manifest in {run}")
    with open(mpath) as fh:
        manifest = json.load(fh)
    bad = [name for name, digest in sorted(manifest["files"].items())
           if not (run / name).is_file() or _sha256(run / name) != digest]
    if bad:
        raise ValueError("checksum mismatch: " + ", ".join(bad))
    with open(run / "report.json") as fh:
        report = json.load(fh)
    if report["spec_hash"] != manifest["spec_hash"]:
        raise ValueError("spec hash in report does not match manifest")
    return manifest, report


def _scalar_rows(d, prefix=""):
    rows = []
    for k, v in d.items():
        if isinstance(v, (int, float, bool, str)) or v is None:
            rows.append((prefix + k, v))
        elif isinstance(v, dict) and k not in ("density", "trajectories",
                                               "equivariance"):
            rows.extend(_scalar_rows(v, prefix + k + "."))
    return rows


def cmd_report(run_dir):
    try:
        manifest, report = _load_run(run_dir)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR

    print(f"scenario : {report['kind']}")
    print(f"spec hash: {report['spec_hash']}")
    print(f"seed     : {manifest['seed']}")
    print(f"tool     : pilotwave {manifest['tool_version']}"
          f" ({manifest['threads']} threads)")
    print()
    print("metrics:")
    for name, v in _scalar_rows(report["metrics"]):
        print(f"  {name:34s} {_fmt(v)}")
    if report.get("twin"):
        print("twin (env coupling off):")
        for name, v in _scalar_rows(report["twin"]):
            print(f"  {name:34s} {_fmt(v)}")
    print("verdicts:")
    for name, v in report["verdicts"].items():
        print(f"  {name:34s} {v}")
    print(f"overall  : {report['verdict']}")
    runtime = report.get("runtime", {})
    for key, what in (("substep_caps", "intervals capped at MAX_SUBSTEPS"),
                      ("speed_caps", "particle stages slowed at nodes"),
                      ("frozen_particles", "on a stencil nodal everywhere")):
        if key in runtime:
            print(f"{key.replace('_', ' ')}: {runtime[key]} ({what})")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# plotdata

def _plot_header(report, what):
    return [f"# pilotwave {what}",
            f"# kind={report['kind']} seed={report['spec']['seed']}"
            f" spec_hash={report['spec_hash']}"]


def cmd_plotdata(run_dir, what, out_path):
    if what not in PLOT_WHAT:
        print(f"error: unknown series {what!r}; available: "
              + ", ".join(PLOT_WHAT), file=sys.stderr)
        return EXIT_ERROR
    try:
        _, report = _load_run(run_dir)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR

    metrics = report["metrics"]
    lines = _plot_header(report, what)
    if what == "metrics":
        cols = _series_table(metrics)
        if len(cols) < 2:
            print(f"error: no metric series stored in this run",
                  file=sys.stderr)
            return EXIT_ERROR
        lines.append("# columns: " + " ".join(name for name, _ in cols))
        for row in zip(*[vals for _, vals in cols]):
            lines.append(" ".join(_fmt(v) for v in row))
    elif what == "density":
        blk = metrics.get("density")
        if blk is None:
            print("error: no density block stored in this run",
                  file=sys.stderr)
            return EXIT_ERROR
        lines.append(f"# marginal density along axis {blk['axis']}"
                     f" at t={_fmt(blk['t'])}")
        lines.append("# columns: x rho")
        for x, r in zip(blk["x"], blk["rho"]):
            lines.append(f"{_fmt(x)} {_fmt(r)}")
    else:
        blk = metrics.get("trajectories")
        if blk is None:
            print("error: no trajectories stored in this run",
                  file=sys.stderr)
            return EXIT_ERROR
        lines.append("# one block per trajectory; columns: t x...")
        for label, path in zip(blk["labels"], blk["paths"]):
            lines.append("")
            lines.append(f"# {label}")
            for t, pos in zip(blk["times"], path):
                coords = pos if isinstance(pos, list) else [pos]
                lines.append(" ".join(_fmt(v) for v in [t, *coords]))

    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_PASS


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="pilotwave",
        description="Pilot-wave scenario runner and report/plot-data tool.")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run a scenario spec")
    pr.add_argument("--spec", required=True, help="scenario spec JSON file")
    pr.add_argument("--out", required=True, help="output run directory")
    pr.add_argument("--seed", type=int, default=None,
                    help="override the spec seed")
    pr.add_argument("--threads", type=int, default=None,
                    help="FFT worker threads, at least 1 (default: hardware "
                         "count); bitwise reproducibility requires --threads 1")
    pr.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a spec entry (dotted path, JSON value); "
                         "applied before hashing")

    pp = sub.add_parser("report", help="print a run summary (read-only)")
    pp.add_argument("--run", required=True, help="run directory")

    pd = sub.add_parser("plotdata", help="emit plain-text plot data")
    pd.add_argument("--run", required=True, help="run directory")
    pd.add_argument("--what", required=True,
                    help="one of: " + ", ".join(PLOT_WHAT))
    pd.add_argument("--out", required=True, help="output text file")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.spec, args.out, args.set,
                       seed=args.seed, threads=args.threads)
    if args.command == "report":
        return cmd_report(args.run)
    return cmd_plotdata(args.run, args.what, args.out)


if __name__ == "__main__":
    sys.exit(main())
