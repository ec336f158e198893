"""Compare two sets of benchmark results.

    python3 bench/compare.py A B

*A* (the baseline) and *B* (the change) are each a result JSON written
by ``bench/run.py`` or a directory of them (one file per run; a file may
hold one workload or all four).  For every workload and end-to-end
metric in ``BENCHMARK.json`` it prints both medians, the delta and the
metric's bound, and a verdict:

* ``REGRESSION`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the run-to-run spread (inter-quartile distance over
  the median, the larger of the two sides) exceeds the bound, so the
  runs cannot tell, unless every B run beats every A run;
* ``better`` -- B improved by more than A's own spread;
* ``worse`` -- B is worse by more than A's own spread but within the
  bound: a slowdown the gate lets through (one bound per metric is
  shared by all workloads, so a quiet workload can lose several times
  its own spread inside it);
* ``ok`` -- within the bound and within A's spread.

A side with a single run has no measurable spread (``n/a``); only the
bound applies then.  Per workload it then says whether the ``cdcl.*``
search-counter totals agree on identical corpora (runs with the same
seed), and per instance it lists the CPU delta (medians over runs) and
whether the search counters agree on identical input bytes -- the
equal-counters evidence a no-behaviour-change refactor needs.  Exit
code 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_side(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Workload -> list of per-run results found at *path*."""
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for name in files:
        with open(name, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for workload, result in payload.get("workloads", {}).items():
            if not result.get("trace"):
                runs.setdefault(workload, []).append(result)
    return runs


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Dict[str, Any]:
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / med_a
    noise = max(spread(a), spread(b))
    b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if noise > bound and not b_wins:
        label = "unresolved"
    elif worse > bound:
        label = "REGRESSION"
    elif -worse > (spread(a) if len(a) > 1 else bound):
        label = "better"
    elif len(a) > 1 and worse > spread(a):
        label = "worse"
    else:
        label = "ok"
    return {"a": med_a, "b": med_b, "worse": worse, "spread": noise,
            "label": label}


COUNTERS = ("conflicts", "decisions", "propagations")


def _instances(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per instance: CPU of every run, and the search counters seen
    for each distinct input (keyed by the instance's sha256)."""
    out: Dict[str, Dict[str, Any]] = {}
    for result in results:
        hashes = {inst["name"]: inst["sha256"]
                  for inst in result["corpus"]["instances"]}
        for name, inst in result.get("instances", {}).items():
            entry = out.setdefault(name, {"cpu": [], "counters": {}})
            entry["cpu"].append(inst["cpu_s"])
            entry["counters"].setdefault(hashes.get(name), set()).add(
                tuple(inst[key] for key in COUNTERS))
    return out


#: Fields that follow the wall clock, not the search: the solve time,
#: and checkpoints, which service workers export on a timer.
CLOCK_FIELDS = ("cdcl.time_seconds", "cdcl.checkpoint_exports")


def _totals(results: List[Dict[str, Any]]) -> Dict[str, set]:
    """Corpus hash -> the distinct ``cdcl.*`` totals its runs reported."""
    out: Dict[str, set] = {}
    for result in results:
        out.setdefault(result["corpus"]["hash"], set()).add(tuple(sorted(
            (key, value) for key, value in result["detail"].items()
            if key.startswith("cdcl.") and key not in CLOCK_FIELDS)))
    return out


def _same(a: Dict[Any, set], b: Dict[Any, set]) -> str:
    """Whether the values recorded for shared inputs all agree."""
    shared = set(a) & set(b)
    if not shared:
        return "no identical inputs on both sides"
    differ = sum(1 for key in shared if len(a[key] | b[key]) > 1)
    return (f"equal on {len(shared)} identical input(s)" if not differ
            else f"DIFFER on {differ}/{len(shared)} identical input(s)")


def compare(a_runs, b_runs, spec) -> int:
    regressions = 0
    print(f"{'workload':16s} {'metric':16s} {'A':>11s} {'B':>11s} "
          f"{'delta':>8s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get(workload), b_runs.get(workload)
        if not a or not b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v = verdict([r["metrics"][name]["value"] for r in a],
                        [r["metrics"][name]["value"] for r in b],
                        metric["better"], metric["bound"])
            regressions += v["label"] == "REGRESSION"
            delta = (v["b"] - v["a"]) / v["a"]
            noise = (f"{v['spread']:7.1%}" if min(len(a), len(b)) > 1
                     else "    n/a")
            print(f"{workload:16s} {name:16s} {v['a']:11.5g} "
                  f"{v['b']:11.5g} {delta:+8.1%} {metric['bound']:6.0%} "
                  f"{noise}  {v['label']}  (runs {len(a)}/{len(b)})")
    cpu_bound = next(m["bound"] for m in spec["end_to_end"]
                     if m["name"] == "cpu_s")
    for workload in [w["name"] for w in spec["workloads"]]:
        a, b = a_runs.get(workload), b_runs.get(workload)
        if not a or not b:
            continue
        print(f"\n{workload}: cdcl.* totals {_same(_totals(a), _totals(b))}")
        a_inst, b_inst = _instances(a), _instances(b)
        for name in [name for name in a_inst if name in b_inst]:
            ca = statistics.median(a_inst[name]["cpu"])
            cb = statistics.median(b_inst[name]["cpu"])
            delta = (cb - ca) / ca if ca else 0.0
            flag = ("slower" if delta > cpu_bound else
                    "faster" if delta < -cpu_bound else "")
            counters = _same(a_inst[name]["counters"],
                             b_inst[name]["counters"])
            print(f"  {name:28s} cpu {ca:8.4f}s -> {cb:8.4f}s "
                  f"{delta:+7.1%} {flag:6s} counters {counters}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="baseline result file or directory")
    parser.add_argument("b", help="changed result file or directory")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return compare(load_side(args.a), load_side(args.b), spec)


if __name__ == "__main__":
    sys.exit(main())
