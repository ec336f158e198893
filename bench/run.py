"""End-to-end benchmark of the SAT-for-EDA system.

One command runs a workload (or all four), checks every answer, prints
every metric by name and unit, writes one JSON result under
``bench/out/results/`` and ends its standard output with one JSON line
``{"correct", "attempted", "failed", "metrics"}``::

    python3 bench/run.py --workload unsat-certified --seed 3
    python3 bench/run.py --workload service-mixed --trace 1
    python3 bench/run.py --smoke            # all workloads, < 60 s

Workloads, metrics, units and regression bounds are declared in
``BENCHMARK.json`` at the repository root; ``bench/README.md`` explains
them.  Untraced runs report the end-to-end metrics; ``--trace 1``
reruns the workload with spans recorded and reports the per-layer
metrics instead.  Exit code 0 means every answer checked out, 1 means
a result was produced but some answer failed its check, 2 means no
result (for instance: the program's ``src/`` is missing).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import batch
import calibrate
import corpus
import service

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
#: Set-up is repeated this many times per untraced run; the median is
#: reported so work moved into set-up shows without one slow start
#: deciding the number.
SETUP_REPEATS = 3
#: Hard cap on one batch child (the whole run must end within 180 s).
CHILD_TIMEOUT = 150.0


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return json.load(handle)


def _probe(workload: str) -> None:
    """Start a fresh interpreter that imports what *workload* calls."""
    subprocess.run([sys.executable, os.path.join(HERE, "batch.py"),
                    "--probe", workload], env=_child_env(), check=True,
                   timeout=CHILD_TIMEOUT)


def _child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def setup(workload: str, seed: int, seconds: float, smoke: bool,
          workdir: str, repeats: int):
    """Generate the corpus and start what the workload runs on.

    Batch workloads: corpus files plus a fresh interpreter importing
    the program.  Service: the job list plus ``repro serve`` up to its
    first ``pong``.  Returns ``(instances, manifest or server,
    windows)`` with one ``(start, end)`` window per repetition.
    """
    windows: List[Tuple[float, float]] = []
    handle = None
    for rep in range(repeats):
        if handle is not None and workload == "service-mixed":
            handle.stop()
        started = time.perf_counter()
        instances = corpus.build(workload, seed, smoke, seconds)
        if workload == "service-mixed":
            handle = service.start_server(ROOT, workdir, f"setup{rep}")
        else:
            handle = corpus.write(instances, os.path.join(workdir, "corpus"))
            _probe(workload)
        windows.append((started, time.perf_counter()))
    return instances, handle, windows


@contextlib.contextmanager
def sampling(workload: str):
    """Calibration samplers (:mod:`calibrate`) for one workload run.

    A batch workload runs on one CPU: this process, so its children
    too, and one sampler are pinned to it.  The service spreads over
    every CPU, with one sampler pinned to each.  Yields the list the
    samples land in once the block ends.
    """
    allowed = os.sched_getaffinity(0)
    cpus = sorted(allowed)
    samplers: List[calibrate.Sampler] = []
    samples: List[Any] = []
    try:
        for cpu in (cpus if workload == "service-mixed" else cpus[:1]):
            os.sched_setaffinity(0, {cpu})
            samplers.append(calibrate.Sampler())
        if workload == "service-mixed":
            os.sched_setaffinity(0, allowed)
        yield samples
    finally:
        for sampler in samplers:
            samples += sampler.stop()
        os.sched_setaffinity(0, allowed)


def run_batch(workload: str, manifest: str, seconds: float, traced: bool,
              workdir: str) -> Dict[str, Any]:
    out = os.path.join(workdir, "child.json")
    cmd = [sys.executable, os.path.join(HERE, "batch.py"),
           "--workload", workload, "--manifest", manifest,
           "--seconds", str(seconds), "--out", out]
    if traced:
        cmd.append("--trace")
    subprocess.run(cmd, env=_child_env(), check=True, timeout=CHILD_TIMEOUT)
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(spec: Dict[str, Any], workload: str, seed: int,
                 seconds: float, traced: bool, smoke: bool
                 ) -> Dict[str, Any]:
    tag = f"{workload}-s{seed}" + ("-trace" if traced else "")
    workdir = os.path.join(OUT, "work", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with sampling(workload) as samples:
        instances, handle, windows = setup(
            workload, seed, seconds, smoke, workdir,
            1 if traced else SETUP_REPEATS)
        if workload == "service-mixed":
            record = service.run(ROOT, workdir, instances, handle, traced)
        else:
            record = run_batch(workload, handle, seconds, traced, workdir)
    with open(os.path.join(workdir, "calibration.json"), "w",
              encoding="utf-8") as out:
        json.dump(samples, out)
    if workload == "service-mixed":
        summary = service.summarize(record, traced, samples)
        attempts = record["attempts"]
    else:
        summary = batch.summarize(record, traced, samples)
        attempts = record["ops"]
    # A batch workload's sampler shares its CPU; take its turns out.
    shared = workload != "service-mixed"
    setup_raw = [end - start - (calibrate.busy(samples, start, end)
                                if shared else 0.0)
                 for start, end in windows]
    power = service.POWER if workload == "service-mixed" else calibrate.POWER
    setup_scales = [calibrate.scale(samples, start, end, power)
                    for start, end in windows]
    failed = sum(1 for entry in attempts if not entry["ok"])
    if traced:
        wanted, values = spec["per_layer"], summary["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = dict(summary["end_to_end"], setup_s=statistics.median(
            raw * k for raw, k in zip(setup_raw, setup_scales)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {
        "benchmark": "repro-bench/1", "workload": workload, "seed": seed,
        "seconds": seconds, "trace": traced, "smoke": smoke,
        "host": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
        "corpus": {"hash": corpus.corpus_hash(instances),
                   "instances": [inst.describe() for inst in instances
                                 if inst.kind != "job"],
                   "jobs": sum(1 for inst in instances
                               if inst.kind == "job")},
        "correct": failed == 0, "attempted": len(attempts),
        "failed": failed, "failures": record["failures"][:50],
        "raw_setup_s": setup_raw, "setup_speed_scale": setup_scales,
        "calibration_samples": len(samples),
        "metrics": metrics,
        "detail": summary["detail"],
        "instances": summary.get("instances", {}),
    }


def _show(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']} seed={result['seed']} "
          f"corpus={result['corpus']['hash'][:16]} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:26s} {metric['value']:>16.6g} {metric['unit']}")
    detail = result["detail"]
    for key in ("passes", "latency_samples", "jobs_per_s",
                "gen.late_s.max"):
        if key in detail:
            print(f"  ({key} = {detail[key]:.6g})")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SAT-for-EDA end-to-end benchmark")
    parser.add_argument("--workload", default="all",
                        help="one of BENCHMARK.json's workloads, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default: "
                             "BENCHMARK.json run_seconds; 2 with "
                             "--smoke)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=("0", "1"),
                        help="1 = traced run reporting per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small corpora and a short window, for CI")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program source (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"--workload must be one of {names} or all")
    seconds = args.seconds or corpus.default_seconds(args.smoke)
    traced = args.trace == "1"

    # Everything the program and its workers write stays in the
    # checkout, temporary proof files included.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(0, os.path.join(ROOT, "src"))

    results = [run_workload(spec, name, args.seed, seconds, traced,
                            args.smoke) for name in workloads]
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    label = args.workload if len(results) == 1 else "all"
    path = os.path.join(results_dir, f"{label}-s{args.seed}"
                        + ("-trace" if traced else "") + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workloads": {r["workload"]: r for r in results}},
                  handle, indent=1, sort_keys=True)
    for result in results:
        _show(result)
    print(f"result: {os.path.relpath(path, ROOT)}")

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": metric for r in results
                   for name, metric in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
