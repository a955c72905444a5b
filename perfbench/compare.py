"""Summarize one set of the benchmark's results, or compare two.

    python3 perfbench/compare.py RESULT_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result directory holds the result files one commit's runs wrote to
perfbench/out/. With one directory this prints, per workload and metric,
the median, quartiles and spread (quartile distance over the median) of the
untraced runs, then the traced runs' per-layer figures.

With two it prints, for every workload and end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the pairs (runs with the
same seed) each side won, a verdict of better, worse or unresolved, and
whether the change stays within the metric's bound. It then reports verdict
parity: whether every op's outcome, and every deterministic result field,
is the same on both sides.
"""

from __future__ import annotations

import glob
import json
import os
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))



def load(directory: str, trace: int = 0) -> dict:
    """workload → list of parsed result files of the given trace mode."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, f"*.trace{trace}.json"))):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        runs.setdefault(result["workload"], []).append(result)
    return runs


def by_seed(runs: list, metric: str) -> dict:
    return {r["seed"]: r["metrics"][metric]["value"] for r in runs
            if r["metrics"].get(metric, {}).get("value") is not None}


def parity(parent: list, change: list) -> str:
    """Outcome and full-result parity between the first run of each side,
    after checking each side agrees with itself."""
    for side, runs in (("parent", parent), ("change", change)):
        if any(r["records"] != runs[0]["records"] for r in runs[1:]):
            return f"{side} runs disagree with each other"
    a, b = parent[0]["records"], change[0]["records"]
    if [r["label"] for r in a] != [r["label"] for r in b]:
        return "different corpora"
    outcomes = sum(x["results"]["outcome"] != y["results"]["outcome"] for x, y in zip(a, b))
    results = sum(x["results"] != y["results"] for x, y in zip(a, b))
    failed = (sum(map(stats.is_failed, a)), sum(map(stats.is_failed, b)))
    return (f"{outcomes} of {len(a)} outcomes differ, {results} results differ; "
            f"failed vs ground truth {failed[0]} -> {failed[1]}")


def summarize(directory: str) -> None:
    for workload, runs in sorted(load(directory).items()):
        seeds = ",".join(str(r["seed"]) for r in runs)
        print(f"{workload}: {len(runs)} untraced runs, seeds {seeds}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = stats.quartiles(values)
            spread = (q3 - q1) / q2 if q2 else 0.0
            print(f"  {name:14s} {q2:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.4f} "
                  f"{runs[0]['metrics'][name]['unit']}")
    for workload, runs in sorted(load(directory, trace=1).items()):
        print(f"{workload}: traced run, seed {runs[0]['seed']}")
        for name, metric in runs[0]["metrics"].items():
            shown = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
            print(f"  {name:44s} {shown:>12s} {metric['unit']}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        summarize(argv[0])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load(argv[0]), load(argv[1])
    fmt = "{:18s} {:12s} {:>30s} {:>30s} {:>6s} {:>8s} {:>11s} {:>7s}"
    print(fmt.format("workload", "metric", "parent median [q1, q3]",
                     "change median [q1, q3]", "pairs", "wins p/c", "verdict", "bound"))
    for workload in sorted(set(parent) & set(change)):
        # Metrics the result files hold beyond BENCHMARK.json's list are
        # compared too, without a bound; of them only the ops_per_s
        # figures are better higher.
        gated = {m["name"]: m for m in spec["end_to_end"]}
        names = list(gated) + [n for n in parent[workload][0]["metrics"] if n not in gated]
        for name in names:
            m = gated.get(name) or {"name": name, "bound": None,
                                    "better": "higher" if name.startswith("ops_per_s")
                                    else "lower"}
            a, b = by_seed(parent[workload], m["name"]), by_seed(change[workload], m["name"])
            if not a or not b:
                print(fmt.format(workload, m["name"], "absent" if not a else "",
                                 "absent" if not b else "", "", "", "", ""))
                continue
            row = stats.compare(a, b, m["better"], m["bound"])
            print(fmt.format(
                workload, m["name"],
                "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["parent"]),
                "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["change"]),
                str(row["pairs"]), f"{row['wins_parent']}/{row['wins_change']}",
                row["verdict"],
                {None: "-", True: "ok", False: "EXCEEDS"}[row["within_bound"]],
            ))
        print(f"{workload:18s} parity: {parity(parent[workload], change[workload])}")
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload:18s} only on the {'parent' if workload in parent else 'change'} side")
    return 0


if __name__ == "__main__":
    sys.exit(main())
