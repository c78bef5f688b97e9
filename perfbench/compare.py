"""Summarise benchmark results and compare two result sets.

    python3 perfbench/compare.py RESULTS.jsonl [...] [--parent L] [--change L]

Reads the records run.py --record appends (suite.py writes them).  Untraced
records are grouped by label, one label per checkout.  For each label,
workload and end-to-end metric it prints the median, quartiles, sample count
and fail ratio (with the raw wall_s and calibration time ref_s behind
wall_ref), then the per-layer metrics of each label's latest traced run.
With two labels it also compares them pair by pair: the i-th run of the
parent against the i-th run of the change, in start order.

A change is labelled
  improved    at least 10 pairs, run in alternating order, the change wins at
              least 9/10 of them (ties count for neither), and the medians
              differ by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound, and either every change run is worse than every
              parent run or the parent's spread is within the bound;
  unresolved  the parent's own spread (IQR / median) exceeds the metric's
              bound, unless every change run beats every parent run;
  no-worse    otherwise.
Bounds and directions come from BENCHMARK.json.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def load(paths):
    records = []
    for p in paths:
        with open(p) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    return sorted(records, key=lambda r: r["started_unix"])


def _value(record, metric):
    """A record's value of an end-to-end metric, or the median of one of its
    raw samples (such as `wall_s`); None if it has neither."""
    if metric in record["result"]["metrics"]:
        return record["result"]["metrics"][metric]["value"]
    vals = record.get("samples", {}).get(metric)
    return quartiles(vals)[1] if vals else None


def series(records, label, workload, metric):
    """(start time, value) of every untraced run of one label and workload."""
    out = [(r["started_unix"], _value(r, metric)) for r in records
           if r["label"] == label and r["context"]["workload"] == workload
           and not r["context"]["trace"]]
    return [(t, v) for t, v in out if v is not None]


def fail_ratio(records, label, workload):
    rs = [r["result"] for r in records if r["label"] == label
          and r["context"]["workload"] == workload]
    attempted = sum(r["attempted"] for r in rs)
    return sum(r["failed"] for r in rs), attempted


def summary(records, bench):
    labels = list(dict.fromkeys(r["label"] for r in records))
    workloads = list(dict.fromkeys(r["context"]["workload"] for r in records))
    print(f"{'label':<20} {'workload':<18} {'metric':<12} {'unit':<5} "
          f"{'median':>10} {'q1':>10} {'q3':>10} {'n':>3}")
    raw = [{"name": "wall_s", "unit": "s"}, {"name": "ref_s", "unit": "s"}]
    for label in labels:
        for w in workloads:
            for m in bench["end_to_end"] + raw:
                vals = [v for _, v in series(records, label, w, m["name"])]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                print(f"{label:<20} {w:<18} {m['name']:<12} {m['unit']:<5} "
                      f"{med:>10.4f} {q1:>10.4f} {q3:>10.4f} {len(vals):>3}")
            failed, attempted = fail_ratio(records, label, w)
            if attempted:
                print(f"{label:<20} {w:<18} {'fail_ratio':<12} {'':<5} "
                      f"{failed / attempted:>10.4f} {'':>10} {'':>10} "
                      f"{attempted:>3}")


def layer_table(records, bench):
    """Per-layer metrics of the latest traced run, one column per workload."""
    latest = {}
    for r in records:
        if r["context"]["trace"]:
            latest[(r["label"], r["context"]["workload"])] = r["result"]
    for label in dict.fromkeys(lbl for lbl, _ in latest):
        cols = [w for lbl, w in latest if lbl == label]
        print(f"\nper-layer, traced run ({label})")
        print(f"{'metric':<40} {'unit':<6}" + "".join(f"{w:>19}" for w in cols))
        for m in bench["per_layer"]:
            vals = [latest[(label, w)]["metrics"].get(m["name"], {})
                    .get("value") for w in cols]
            print(f"{m['name']:<40} {m['unit']:<6}" + "".join(
                f"{'-':>19}" if v is None else f"{v:>19.6g}" for v in vals))


def verdict(parent, change, bound, lower_is_better):
    """Label one metric on one workload from (start, value) series."""
    sign = 1.0 if lower_is_better else -1.0
    p = [v for _, v in parent]
    c = [v for _, v in change]
    pq1, pmed, pq3 = quartiles(p)
    _, cmed, _ = quartiles(c)
    pairs = list(zip(parent, change))
    wins = sum(sign * (cv - pv) < 0 for (_, pv), (_, cv) in pairs)
    first = [ct < pt for (pt, _), (ct, _) in pairs]
    alternating = all(a != b for a, b in zip(first, first[1:]))
    gap = sign * (pmed - cmed)  # positive when the change is better
    beats_all = max(c) < min(p) if lower_is_better else min(c) > max(p)
    loses_all = min(c) > max(p) if lower_is_better else max(c) < min(p)
    noisy = (pq3 - pq1) / pmed > bound
    if (len(pairs) >= 10 and alternating and wins >= 0.9 * len(pairs)
            and gap > pq3 - pq1):
        label = "improved"
    elif -gap > bound * pmed and (loses_all or not noisy):
        label = "worse"
    elif noisy and not beats_all:
        label = "unresolved"
    else:
        label = "no-worse"
    return label, wins, len(pairs), alternating, cmed


def compare(records, bench, parent, change):
    workloads = list(dict.fromkeys(r["context"]["workload"] for r in records))
    print(f"\n{'workload':<18} {'metric':<12} {'parent':>10} {'change':>10} "
          f"{'wins':>7}  {'order':<11} verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            ps = series(records, parent, w, m["name"])
            cs = series(records, change, w, m["name"])
            if not ps or not cs:
                continue
            label, wins, n, alternating, cmed = verdict(
                ps, cs, m["bound"], m["better"] == "lower")
            pmed = quartiles([v for _, v in ps])[1]
            order = "alternating" if alternating else "same-order"
            print(f"{w:<18} {m['name']:<12} {pmed:>10.4f} {cmed:>10.4f} "
                  f"{wins:>3}/{n:<3}  {order:<11} {label}")
        pf, pa = fail_ratio(records, parent, w)
        cf, ca = fail_ratio(records, change, w)
        print(f"{w:<18} {'fail_ratio':<12} {pf:>5}/{pa:<4} {cf:>5}/{ca:<4}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+", type=Path)
    ap.add_argument("--parent", default=None, help="label of the parent runs")
    ap.add_argument("--change", default=None, help="label of the change runs")
    args = ap.parse_args(argv)
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    records = load(args.results)
    if not records:
        print("error: no records", file=sys.stderr)
        return 1
    summary(records, bench)
    layer_table(records, bench)
    labels = list(dict.fromkeys(r["label"] for r in records))
    parent = args.parent or labels[0]
    change = args.change or (labels[1] if len(labels) > 1 else None)
    if change is not None:
        compare(records, bench, parent, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
