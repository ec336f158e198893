"""Batch workload runner, one child interpreter per workload.

``run.py`` writes the corpus, then starts::

    python3 bench/batch.py --workload W --manifest DIR/manifest.json \
        --seconds S --out RESULT.json [--trace]

with ``PYTHONPATH`` pointing at the program's ``src``.  The child runs
whole passes over the corpus until ``--seconds`` have elapsed (at least
one pass), timing every operation from reading the input bytes to the
audited verdict, then verifies the answers outside the timed window
and writes one JSON record.  Its ``ru_maxrss`` is the workload's peak
memory.  ``--trace`` runs one untraced and one traced pass instead,
adds span self times per layer and writes the traced pass's spans to
``spans.jsonl`` next to ``--out``.  Its times are raw: ``run.py``
scales each operation by the calibration samples taken while it ran
(:mod:`calibrate`).

``python3 bench/batch.py --probe W`` only imports what workload W
calls and exits; ``run.py`` times it as part of set-up.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

import calibrate
import spans as spanlib
from stats import group_by, merged_counters, quantile_hd

BATCH_WORKLOADS = ("unsat-certified", "sat-mixed", "eda-apps")


def _imports(workload: str) -> None:
    """Import every program module *workload* calls (set-up probe)."""
    from repro.cnf.dimacs import parse_dimacs  # noqa: F401
    from repro.obs import ListSink, Tracer  # noqa: F401
    from repro.solvers.cdcl import CDCLSolver  # noqa: F401
    from repro.verify.certificate import certified_solve  # noqa: F401
    if workload == "eda-apps":
        from repro.apps.atpg import ATPGEngine  # noqa: F401
        from repro.apps.bmc import check_safety  # noqa: F401
        from repro.circuits.bench_format import parse_bench  # noqa: F401


def numeric_stats(stats) -> Dict[str, float]:
    """The numeric fields of a :class:`SolverStats` (labels dropped)."""
    return {key: value for key, value in stats.as_dict().items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)}


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class Runner:
    """Executes one workload's operations and checks their answers."""

    def __init__(self, workload: str, instances: List[Dict[str, Any]]):
        from repro.obs import NullSink, Tracer
        self.workload = workload
        self.instances = instances
        self.tracer = Tracer(NullSink())
        #: Handed to the program's tracing hooks in the traced pass.
        self.program_tracer = None
        self.ops: List[Dict[str, Any]] = []
        self.failures: List[Dict[str, Any]] = []
        #: UNSAT answers outside the certified path, re-derived with
        #: certified_solve after the timed window (name -> formula).
        self._recertify: Dict[str, Any] = {}
        #: First-pass ATPG report per instance, re-simulated after the
        #: timed window; later passes must reproduce its fingerprint.
        self._atpg: Dict[str, Any] = {}

    # -- timing helpers ---------------------------------------------------

    @contextmanager
    def layer(self, rec: Dict[str, Any], key: str, name: str):
        """A benchmark span that also accumulates ``rec[key]`` seconds."""
        started = time.perf_counter()
        with self.tracer.span(name):
            yield
        rec[key] = rec.get(key, 0.0) + time.perf_counter() - started

    def fail(self, rec: Dict[str, Any], reason: str) -> None:
        rec["ok"] = False
        self.failures.append({"inst": rec["inst"], "pass": rec["pass"],
                              "reason": reason})

    def run_pass(self, index: int, before_op) -> None:
        for inst in self.instances:
            before_op()
            rec: Dict[str, Any] = {"inst": inst["name"], "pass": index,
                                   "ok": True}
            wall0, cpu0 = time.perf_counter(), time.process_time()
            with self.tracer.span("bench.op", inst=inst["name"]):
                try:
                    getattr(self, "_op_" + inst["kind"])(inst, rec)
                except Exception as exc:   # a crash is a failed op
                    traceback.print_exc()
                    self.fail(rec, f"{type(exc).__name__}: {exc}")
            rec["start"] = wall0
            rec["wall_s"] = time.perf_counter() - wall0
            rec["cpu_s"] = time.process_time() - cpu0
            self.ops.append(rec)

    # -- operations -------------------------------------------------------

    def _op_cnf(self, inst: Dict[str, Any], rec: Dict[str, Any]) -> None:
        from repro.cnf.dimacs import parse_dimacs
        with self.layer(rec, "parse_s", "dimacs.parse"):
            text = _read(inst["path"])
            formula = parse_dimacs(text)
        rec["parse_bytes"] = len(text)
        if self.workload == "unsat-certified":
            # The `repro solve --certify` path.
            from repro.verify.certificate import certified_solve
            with self.layer(rec, "certified_s", "verify.certified_solve"):
                result = certified_solve(formula,
                                         tracer=self.program_tracer)
            cert = result.certificate
            rec["check_s"] = cert.check_seconds
            rec["proof_steps"] = cert.steps
            rec["proof_bytes"] = cert.bytes_written
        else:
            # The plain `repro solve` path.
            from repro.solvers.cdcl import CDCLSolver
            with self.layer(rec, "build_s", "cdcl.build"):
                solver = CDCLSolver(formula)
            solver.tracer = self.program_tracer
            result = solver.solve()
        rec["solve_s"] = result.stats.time_seconds
        rec["stats"] = numeric_stats(result.stats)
        self._judge(inst, rec, formula, result)

    def _judge(self, inst, rec, formula, result) -> None:
        verdict = ("SAT" if result.is_sat else
                   "UNSAT" if result.is_unsat else "UNKNOWN")
        rec["verdict"] = verdict
        if verdict == "UNKNOWN":
            self.fail(rec, "no verdict (UNKNOWN or demoted)")
            return
        if inst["expect"] and verdict != inst["expect"]:
            self.fail(rec, f"wrong verdict {verdict}, "
                           f"expected {inst['expect']}")
        if verdict == "SAT":
            with self.layer(rec, "audit_s", "bench.audit"):
                if not formula.is_satisfied_by(result.assignment):
                    self.fail(rec, "model fails the audit")
        elif result.certificate is not None:
            if not (result.certificate.kind == "proof"
                    and result.certificate.valid):
                self.fail(rec, "UNSAT without a checked proof")
        else:
            self._recertify.setdefault(inst["name"], formula)

    def _op_atpg(self, inst: Dict[str, Any], rec: Dict[str, Any]) -> None:
        from repro.apps.atpg import ATPGEngine, TestOutcome
        from repro.circuits.bench_format import parse_bench
        from repro.solvers.result import SolverStats
        with self.layer(rec, "parse_s", "bench_format.parse"):
            text = _read(inst["path"])
            circuit = parse_bench(text, name=inst["name"])
        rec["parse_bytes"] = len(text)
        engine = ATPGEngine(circuit, seed=inst["params"]["atpg_seed"],
                            tracer=self.program_tracer)
        report = engine.run()
        total = SolverStats()
        for result in report.results:
            total.merge(result.stats)
        counts = {outcome.name.lower(): report.count(outcome)
                  for outcome in TestOutcome}
        rec["atpg"] = dict(counts, faults=len(report.results),
                           vectors=len(report.vectors))
        rec["solve_s"] = total.time_seconds
        rec["stats"] = numeric_stats(total)
        rec["verdict"] = "ATPG"
        if counts["aborted"]:
            self.fail(rec, f"{counts['aborted']} fault(s) aborted")
        fingerprint = [(str(r.fault), r.outcome.name) for r in
                       report.results]
        first = self._atpg.setdefault(inst["name"],
                                      (circuit, report, fingerprint))
        if first[2] != fingerprint:
            self.fail(rec, "ATPG outcome differs from the first pass")

    def _op_bmc(self, inst: Dict[str, Any], rec: Dict[str, Any]) -> None:
        from repro.apps.bmc import check_safety, verify_trace
        from repro.circuits.bench_format import parse_bench
        params = inst["params"]
        with self.layer(rec, "parse_s", "bench_format.parse"):
            text = _read(inst["path"])
            circuit = parse_bench(text, name=inst["name"])
        rec["parse_bytes"] = len(text)
        result = check_safety(circuit, params["output"],
                              max_depth=params["max_depth"],
                              tracer=self.program_tracer)
        rec["solve_s"] = result.stats.time_seconds
        rec["stats"] = numeric_stats(result.stats)
        depth = result.failure_depth
        rec["bmc"] = {"depths": (depth + 1 if depth is not None
                                 else result.depths_proved)}
        rec["verdict"] = "SAT" if depth is not None else "UNSAT"
        # Every per-depth verdict is checked against the analytically
        # known first failure: a wrong UNSAT moves the failure deeper,
        # a wrong SAT fails the simulation replay.
        if depth != params["failure_depth"]:
            self.fail(rec, f"first failure at depth {depth}, expected "
                           f"{params['failure_depth']}")
            return
        with self.layer(rec, "audit_s", "bench.audit"):
            if not verify_trace(circuit, result, params["output"]):
                self.fail(rec, "counterexample trace fails simulation")

    # -- checks after the timed window ------------------------------------

    def verify_after(self) -> None:
        """Re-derive UNSAT answers with proofs and re-simulate ATPG
        vectors; a failure marks every operation of that instance."""
        from repro.verify.certificate import certified_solve
        bad: Dict[str, str] = {}
        for name, formula in self._recertify.items():
            result = certified_solve(formula)
            cert = result.certificate
            if not (result.is_unsat and cert.kind == "proof"
                    and cert.valid):
                bad[name] = "UNSAT answer not re-derived with a proof"
        for name, (circuit, report, _fp) in self._atpg.items():
            reason = _check_atpg(circuit, report)
            if reason:
                bad[name] = reason
        for rec in self.ops:
            if rec["inst"] in bad and rec["ok"]:
                self.fail(rec, bad[rec["inst"]])


def _check_atpg(circuit, report) -> Optional[str]:
    """Re-simulate an ATPG report; re-derive redundant faults."""
    from repro.apps.atpg import TestOutcome
    from repro.circuits.faults import inject_fault
    from repro.circuits.parallel_sim import parallel_fault_simulate
    from repro.circuits.simulate import simulate
    from repro.circuits.tseitin import encode_miter
    from repro.verify.certificate import certified_solve
    detected = [r for r in report.results
                if r.outcome in (TestOutcome.DETECTED,
                                 TestOutcome.DETECTED_BY_SIMULATION)]
    hits = parallel_fault_simulate(circuit, [r.fault for r in detected],
                                   report.vectors)
    missed = [str(fault) for fault, index in hits.items() if index is None]
    if missed:
        return f"no vector detects {len(missed)} fault(s), e.g. {missed[0]}"
    for r in report.results:
        if r.outcome is TestOutcome.DETECTED:
            vector = {name: bool(value) for name, value in r.vector.items()}
            good = simulate(circuit, vector)
            bad = simulate(circuit, vector,
                           faults={r.fault.node: r.fault.value})
            if all(good[o] == bad[o] for o in circuit.outputs):
                return f"vector for {r.fault} does not detect it"
        elif r.outcome is TestOutcome.REDUNDANT:
            miter = encode_miter(circuit, inject_fault(circuit, r.fault))
            result = certified_solve(miter.formula)
            if not (result.is_unsat and result.certificate.valid):
                return f"redundancy of {r.fault} not re-derived"
    return None


def run(workload: str, instances: List[Dict[str, Any]], seconds: float,
        traced: bool) -> Dict[str, Any]:
    """Measure *instances*; a traced run's record carries its spans
    under ``trace["spans"]``."""
    runner = Runner(workload, instances)
    started = time.perf_counter()
    trace: Optional[Dict[str, Any]] = None

    def before_op() -> None:
        # Collect the previous operation's cyclic garbage (solvers
        # hold reference cycles) outside the timed region, so neither
        # the times nor the peak RSS depend on when the collector
        # happened to run.
        gc.collect()

    if traced:
        from repro.obs import ListSink, Tracer
        runner.run_pass(0, before_op)
        runner.tracer = Tracer(ListSink())
        runner.program_tracer = runner.tracer
        runner.run_pass(1, before_op)
        recorded = spanlib.collect(runner.tracer.sink.events)
        trace = {"layers": spanlib.layer_times(recorded),
                 "spans": recorded}
        passes = 2
    else:
        passes = 0
        while time.perf_counter() - started < seconds or not passes:
            runner.run_pass(passes, before_op)
            passes += 1
    measured = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.verify_after()
    return {"workload": workload, "passes": passes,
            "measured_s": measured, "ops": runner.ops,
            "failures": runner.failures,
            "peak_rss_mb": peak_rss_mb, "trace": trace}


def summarize(record: Dict[str, Any], traced: bool,
              samples) -> Dict[str, Any]:
    """End-to-end, per-layer and detail numbers of one batch run.

    A pass is the unit of work: ``wall_s``/``cpu_s`` sum each
    instance's median over the run's passes, and the latency
    percentiles run over those per-instance medians.  Every operation
    is scaled to reference-machine seconds by the calibration *samples*
    taken while it ran (:mod:`calibrate`); raw values are kept in the
    detail.  A traced run reports per-layer numbers from its traced
    pass only.
    """
    ops = record["ops"]
    for op in ops:
        end = op["start"] + op["wall_s"]
        op["scale"] = calibrate.scale(samples, op["start"], end)
        # The sampler shares the operation's CPU; its turns are not
        # the operation's wall time.
        op["wall_s"] -= calibrate.busy(samples, op["start"], end)
    per_inst: Dict[str, Dict[str, Any]] = {}
    for name, runs in group_by(ops, "inst").items():
        first = runs[0]
        per_inst[name] = {
            "wall_s": statistics.median(r["wall_s"] * r["scale"]
                                        for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] * r["scale"]
                                       for r in runs),
            "raw_wall_s": statistics.median(r["wall_s"] for r in runs),
            "raw_cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "runs": len(runs), "verdict": first.get("verdict"),
            **{key: first.get("stats", {}).get(key, 0)
               for key in ("conflicts", "decisions", "propagations")}}
    first_pass = [r for r in ops if r["pass"] == 0]
    detail: Dict[str, Any] = {"passes": record["passes"],
                              "ops": len(ops),
                              "measured_s": record["measured_s"],
                              "speed_scale": statistics.median(
                                  r["scale"] for r in ops),
                              "raw.wall_s": sum(i["raw_wall_s"] for i in
                                                per_inst.values()),
                              "raw.cpu_s": sum(i["raw_cpu_s"] for i in
                                               per_inst.values())}
    detail.update(merged_counters(r["stats"] for r in first_pass
                                  if "stats" in r))
    for key in ("parse_s", "build_s", "certified_s", "solve_s", "check_s",
                "audit_s"):
        detail["pass." + key] = (sum(r.get(key, 0.0) for r in ops)
                                 / record["passes"])
    for name, inst in per_inst.items():
        detail[f"inst.{name}.cpu_s"] = inst["cpu_s"]
        detail[f"inst.{name}.wall_s"] = inst["wall_s"]
        detail[f"inst.{name}.conflicts"] = inst["conflicts"]
    out: Dict[str, Any] = {"detail": detail, "instances": per_inst}
    if not traced:
        latencies = [inst["wall_s"] for inst in per_inst.values()]
        out["end_to_end"] = {
            "wall_s": sum(latencies),
            "cpu_s": sum(inst["cpu_s"] for inst in per_inst.values()),
            "peak_rss_mb": record["peak_rss_mb"],
            "latency_s.p50": quantile_hd(latencies, 0.50),
            "latency_s.p90": quantile_hd(latencies, 0.90),
        }
        return out
    traced_ops = [r for r in ops if r["pass"] == 1]
    layers = record["trace"]["layers"]
    total = sum(layers.values())
    counters = merged_counters(r["stats"] for r in traced_ops
                               if "stats" in r)

    def total_of(key: str, group: str = "") -> float:
        return sum((r.get(group, {}) if group else r).get(key, 0)
                   for r in traced_ops)

    solve_s = total_of("solve_s")
    parse_s = total_of("parse_s")
    check_s = total_of("check_s")
    faults = total_of("faults", "atpg")
    per_layer = {f"layer.{name}.share": seconds / total
                 for name, seconds in layers.items()}
    per_layer.update(counters)
    per_layer.update({
        "cdcl.solve_s": solve_s,
        "cdcl.props_per_s": counters["cdcl.propagations"] / solve_s,
        "parse.mb_per_s": total_of("parse_bytes") / parse_s / 1e6,
        "proof.steps": total_of("proof_steps"),
        "proof.bytes": total_of("proof_bytes"),
        "check.steps_per_s": (total_of("proof_steps") / check_s
                              if check_s else 0.0),
        "atpg.faults": faults,
        "atpg.sat_calls": sum(total_of(key, "atpg") for key in
                              ("detected", "redundant", "aborted")),
        "atpg.sim_dropped_frac": (total_of("detected_by_simulation",
                                           "atpg") / faults
                                  if faults else 0.0),
        "bmc.depths": total_of("depths", "bmc"),
        "svc.cache_hit_frac": 0.0,
        "svc.rejected": 0,
        "svc.retries": 0,
        # Traced over untraced pass, each at the reference speed.
        "trace.overhead": (
            sum(r["wall_s"] * r["scale"] for r in traced_ops)
            / sum(r["wall_s"] * r["scale"] for r in ops if r["pass"] == 0)),
    })
    out["per_layer"] = per_layer
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=BATCH_WORKLOADS)
    parser.add_argument("--probe", choices=BATCH_WORKLOADS)
    parser.add_argument("--manifest")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true",
                        help="one untraced and one traced pass; the "
                             "spans go to spans.jsonl next to --out")
    args = parser.parse_args(argv)
    if args.probe:
        _imports(args.probe)
        return 0
    if not (args.workload and args.manifest and args.out
            and args.seconds is not None):
        parser.error("--workload, --manifest, --seconds and --out are "
                     "required")
    with open(args.manifest, "r", encoding="utf-8") as handle:
        instances = json.load(handle)
    _imports(args.workload)
    record = run(args.workload, instances, args.seconds, args.trace)
    if args.trace:
        spanlib.write_jsonl(record["trace"].pop("spans"), os.path.join(
            os.path.dirname(os.path.abspath(args.out)), "spans.jsonl"))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
