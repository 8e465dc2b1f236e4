#!/usr/bin/env python3
"""Summarises stegbench result directories and compares two of them.

    python3 bench/stegbench/compare.py DIR            # medians and quartiles
    python3 bench/stegbench/compare.py PARENT CHANGE  # A/B verdicts

A result directory holds <workload>.<seed>.json for each untraced run and
<workload>.<seed>.traced.json for each traced run: the result line the
benchmark prints, as run.sh saves it. Verdicts cover every workload and
end-to-end metric of BENCHMARK.json, with its bound:

  regressed   the change's median is worse than the parent's by more than
              the bound
  improved    at least 10 seed-matched pairs ran, the change wins at least
              9 in 10 of them (ties count for neither), and the medians
              differ by more than the parent's quartile spread
  unresolved  the parent's own quartile spread is wider than the bound,
              and not every change run beats every parent run
  unchanged   otherwise

A rise in failed / attempted ops is flagged on its own. Exits 1 when a
metric regressed or more ops failed, else 0. Standard library only.
"""
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(directory):
    """{(workload, traced): {seed: result}} for one result directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        parts = path.name.split(".")
        if len(parts) not in (3, 4) or not parts[1].isdigit():
            continue  # host.json, trace_<workload>.json
        traced = len(parts) == 4
        runs.setdefault((parts[0], traced), {})[int(parts[1])] = json.loads(
            path.read_text())
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, name):
    return [runs[s]["metrics"][name]["value"] for s in sorted(runs)
            if name in runs[s]["metrics"]]


def fail_ratio(runs):
    attempted = sum(r["attempted"] for r in runs.values())
    return sum(r["failed"] for r in runs.values()) / max(attempted, 1)


def summary(directory):
    runs = load(directory)
    for (workload, traced), by_seed in sorted(runs.items()):
        kind = "per-layer" if traced else "end-to-end"
        print(f"\n{workload} ({kind}, {len(by_seed)} runs, "
              f"failed/attempted {fail_ratio(by_seed):.3g})")
        print(f"  {'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8}  unit")
        first = by_seed[min(by_seed)]["metrics"]
        for name, m in first.items():
            q1, med, q3 = quartiles(values(by_seed, name))
            spread = f"{(q3 - q1) / med:.1%}" if med else "-"
            print(f"  {name:<40} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8}  {m['unit']}")


def verdict(a, b, better, bound):
    sign = 1 if better == "higher" else -1
    aq1, am, aq3 = quartiles(a)
    _, bm, _ = quartiles(b)
    worse = sign * (am - bm) / am
    if worse > bound:
        return "regressed", worse
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (len(a) >= 10 and wins >= 0.9 * len(a) and sign * (bm - am) > 0
            and abs(bm - am) > aq3 - aq1):
        return "improved", worse
    every_run_better = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
    if (aq3 - aq1) / am > bound and not every_run_better:
        return "unresolved", worse
    return "unchanged", worse


def compare(parent_dir, change_dir):
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(parent_dir), load(change_dir)
    bad = False
    print(f"{'workload':<16} {'metric':<20} {'parent [q1, q3]':>34} "
          f"{'change [q1, q3]':>34} {'worse':>7} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        a_runs = parent.get((w["name"], False), {})
        b_runs = change.get((w["name"], False), {})
        if not a_runs or not b_runs:
            print(f"{w['name']:<16} missing runs")
            bad = True
            continue
        # Seed-matched pairs: compare only seeds both sides ran.
        seeds = sorted(set(a_runs) & set(b_runs))
        a_runs = {s: a_runs[s] for s in seeds}
        b_runs = {s: b_runs[s] for s in seeds}
        for m in spec["end_to_end"]:
            a, b = values(a_runs, m["name"]), values(b_runs, m["name"])
            v, worse = verdict(a, b, m["better"], m["bound"])
            bad = bad or v == "regressed"
            aq1, am, aq3 = quartiles(a)
            bq1, bm, bq3 = quartiles(b)
            print(f"{w['name']:<16} {m['name']:<20} "
                  f"{am:>12.4g} [{aq1:>8.4g}, {aq3:>8.4g}] "
                  f"{bm:>12.4g} [{bq1:>8.4g}, {bq3:>8.4g}] "
                  f"{worse:>+7.1%} {m['bound']:>6.0%}  {v}")
        fa, fb = fail_ratio(a_runs), fail_ratio(b_runs)
        if fb > fa:
            print(f"{w['name']:<16} FAILED OPS ROSE: {fa:.3g} -> {fb:.3g}")
            bad = True
    return 1 if bad else 0


def main(argv):
    if len(argv) == 2:
        summary(argv[1])
        return 0
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
