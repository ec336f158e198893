"""Engine microbenchmark harness: frozen baseline vs live CDCL.

Races the pre-PR1 engine snapshot (``benchmarks/legacy_cdcl.py``)
against the live ``repro.solvers.cdcl`` on a fixed suite of SAT and
UNSAT instances -- uniform-random k-SAT across the constrainedness
spectrum, combinatorial families, and Tseitin-encoded circuit miters
(the paper's EDA workload).  Both engines run the same VSIDS + Luby +
phase-saving configuration, and since PR 1 the heap-backed VSIDS
breaks ties in dict-insertion order exactly like the legacy linear
scan, so the two engines follow (near-)identical search paths: the
measured ratio is engine mechanics, not decision luck.

Each instance is timed ``--repeats`` times per engine (interleaved,
minimum taken) to suppress warm-up noise.  Every run is timed on both
clocks -- wall (``perf_counter``) and process CPU (``process_time``)
-- and all ratios are computed from CPU seconds: the engines are
single-threaded and CPU-bound, so on shared/virtualised machines the
CPU clock excludes hypervisor steal time and scheduler gaps that
would otherwise swamp the comparison.  Verdicts must agree; SAT
models from both engines are verified against the formula.  Results
are written as JSON (default ``BENCH_PR8.json`` in the repo root)
with per-instance timings and search counters plus the counter
*deltas* between the engines (``effort_delta``), so the perf
trajectory tracks search effort as well as wall clock.

Since PR 3 each instance is additionally run once with a live tracer
and metrics recorder attached (JSONL to ``os.devnull``), and the
per-instance ``tracing_overhead`` ratio (traced / untraced CPU time)
quantifies the cost of the observability layer when *enabled*; the
disabled path is the plain ``after`` timing.  Since PR 8 (the
service observability plane rides these same tracer/metrics hooks)
the full suite **gates** on ``median_tracing_overhead <= 1.10``:
an enabled observability stack that costs more than 10% median
would make operators turn it off, which defeats its purpose.

Since PR 4 (clause arena + compacting GC) each instance also gets one
live-engine run under an active deletion policy.  Its verdict must
match the main race, SAT models are re-verified, and the record keeps
the arena occupancy (fill ratio, peak buffer ints), GC counters
(collections, reclaimed ints) and the BCP rate of both the keep-mode
and deletion-mode runs -- on deletion-heavy UNSAT instances the
smaller clause DB shows up directly as a higher propagation rate.

Since PR 5 (result certification) every UNSAT instance is also run
once with a streamed DRUP proof attached (:mod:`repro.verify.drat`),
the proof is validated by the independent checker, and the record
keeps the emission overhead (certified / uncertified CPU ratio),
proof volume (bytes, steps, deletions) and checker wall time.  The
run **gates** on ``median_certified_overhead <= 1.25``: proof
streaming is supposed to be cheap, and this is where a regression
would surface.

Since PR 6 (inprocessing engine) each instance additionally runs with
in-search simplification enabled (interval 1000, all passes).  The
record keeps the timing, the per-pass reclaim statistics
(``Inprocessor.pass_totals``), and the on-vs-off CPU ratio; on UNSAT
instances one extra inprocessing run streams a DRUP proof that the
independent checker must accept (every inprocessing transformation is
proof-logged, so a checker rejection here is a soundness bug).  The
JSON also records the kernel capability probe
(:func:`repro.solvers.kernels.capability`), which says whether the
numpy or the stdlib kernels ran; the CI matrix legs (numpy present /
absent) must reach the same verdicts.  The probe runs exactly once
per invocation (a probe failure is recorded as an error string under
``kernels``, never an omitted key).  On the full suite the run
**gates** on inprocessing beating the plain engine on ``php-7`` (the
paper's flagship refutation family; simplification is what keeps it
tractable).

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py            # full
    PYTHONPATH=src python benchmarks/perf_harness.py --smoke    # <60 s
    PYTHONPATH=src python benchmarks/perf_harness.py --tiny     # CI
    PYTHONPATH=src python benchmarks/perf_harness.py -o out.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
for entry in (str(REPO_ROOT / "src"), str(REPO_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.legacy_cdcl import LegacyCDCLSolver, LegacyVSIDS  # noqa: E402
from repro.cnf.generators import (  # noqa: E402
    pigeonhole,
    random_ksat_at_ratio,
)
from repro.circuits.generators import (  # noqa: E402
    carry_select_adder,
    ripple_carry_adder,
)
from repro.circuits.tseitin import encode_miter  # noqa: E402
from repro.solvers.cdcl import CDCLSolver  # noqa: E402
from repro.solvers.heuristics import VSIDSHeuristic  # noqa: E402
from repro.solvers.restarts import make_restart_policy  # noqa: E402
from repro.solvers.result import Status  # noqa: E402


def _miter(width: int):
    """UNSAT miter of two equivalent adder architectures."""
    return encode_miter(ripple_carry_adder(width),
                        carry_select_adder(width)).formula


def _mutant_miter(width: int, seed: int):
    """SAT miter: adder vs a single-gate mutation of itself."""
    from repro.apps.equivalence import mutate_circuit
    rca = ripple_carry_adder(width)
    return encode_miter(rca, mutate_circuit(rca, seed=seed)).formula


def build_suite(smoke: bool, tiny: bool = False):
    """The fixed instance list: (name, formula) pairs.

    The mix spans the regimes the engines see in practice: large
    underconstrained instances (BCP/decide bound, the paper notes BCP
    dominates EDA workloads), circuit miters at growing width, and
    near-threshold / combinatorial refutations (conflict-analysis
    bound).  ``tiny`` keeps just two small instances -- one SAT, one
    deletion-heavy UNSAT -- for the CI perf-smoke job.
    """
    if tiny:
        return [
            ("rksat-sat-120", random_ksat_at_ratio(120, 4.27, 3,
                                                   seed=100)),
            ("php-6", pigeonhole(6)),
        ]
    suite = [
        ("rksat-sat-120", random_ksat_at_ratio(120, 4.27, 3, seed=100)),
        ("rksat-unsat-150", random_ksat_at_ratio(150, 4.27, 3, seed=102)),
        ("rksat-easy-400", random_ksat_at_ratio(400, 2.5, 3, seed=11)),
        ("rksat-easy-1000", random_ksat_at_ratio(1000, 2.5, 3, seed=12)),
        ("php-6", pigeonhole(6)),
        ("miter-adders-16", _miter(16)),
        ("miter-mutant-32", _mutant_miter(32, seed=5)),
        ("miter-adders-32", _miter(32)),
    ]
    if not smoke:
        suite += [
            ("rksat-easy-1500", random_ksat_at_ratio(1500, 2.5, 3,
                                                     seed=13)),
            ("php-7", pigeonhole(7)),
            ("miter-mutant-48", _mutant_miter(48, seed=1)),
            ("miter-adders-48", _miter(48)),
        ]
    return suite


def _timed(solver):
    """Solve once, timed on both clocks: wall (``perf_counter``) and
    process CPU (``process_time``).  Ratios are computed from CPU
    seconds -- both engines are single-threaded and CPU-bound, and on
    shared machines the CPU clock excludes hypervisor steal time and
    scheduling gaps that would otherwise dominate the comparison.
    Wall seconds are still recorded for the absolute trajectory."""
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    result = solver.solve()
    cpu = time.process_time() - cpu0
    wall = time.perf_counter() - wall0
    return wall, cpu, result


def _run_new(formula):
    solver = CDCLSolver(
        formula, heuristic=VSIDSHeuristic(seed=0),
        restart_policy=make_restart_policy("luby", 64),
        phase_saving=True)
    return _timed(solver)


def _run_traced(formula):
    """The live engine with the full observability stack attached:
    JSONL tracing to ``os.devnull`` plus search-shape histograms."""
    from repro.obs import JsonlSink, SearchMetrics, Tracer

    solver = CDCLSolver(
        formula, heuristic=VSIDSHeuristic(seed=0),
        restart_policy=make_restart_policy("luby", 64),
        phase_saving=True)
    sink = JsonlSink(os.devnull)
    solver.tracer = Tracer(sink)
    solver.metrics = SearchMetrics()
    wall, cpu, result = _timed(solver)
    sink.close()
    return wall, cpu, result


def _run_deletion(formula):
    """The live engine under an active deletion policy (rel_sat-style
    size bound): clause-DB growth is curbed by compacting GC.  Returns
    the timing, the result and the engine's arena-occupancy snapshot
    (fill ratio, peak ints, GC counters).  The legacy baseline has no
    deletion support at all, so this run only exists on the live side;
    its verdict is still cross-checked against the main race."""
    solver = CDCLSolver(
        formula, heuristic=VSIDSHeuristic(seed=0),
        restart_policy=make_restart_policy("luby", 64),
        phase_saving=True,
        deletion="size", deletion_bound=6, deletion_interval=250)
    wall, cpu, result = _timed(solver)
    return wall, cpu, result, solver.arena_occupancy()


def _run_certified(formula):
    """The live engine streaming a DRUP proof to a real file, then the
    independent checker validating it.  Solve timing and check timing
    are kept separate: emission overhead is what the *solver* pays;
    the checker runs after the fact (and typically off the critical
    path).  Returns ``(wall, cpu, result, proof_info)``."""
    import tempfile

    from repro.verify.checker import check_proof_file
    from repro.verify.drat import FileProofSink, attach_proof_stream

    handle, proof_path = tempfile.mkstemp(suffix=".drup",
                                          prefix="repro-bench-")
    os.close(handle)
    solver = CDCLSolver(
        formula, heuristic=VSIDSHeuristic(seed=0),
        restart_policy=make_restart_policy("luby", 64),
        phase_saving=True)
    sink = attach_proof_stream(solver, FileProofSink(proof_path))
    try:
        wall, cpu, result = _timed(solver)
        sink.close()
        info = {"proof_bytes": sink.bytes_written,
                "proof_adds": sink.adds,
                "proof_deletes": sink.deletes}
        if result.status is Status.UNSATISFIABLE:
            check0 = time.perf_counter()
            outcome = check_proof_file(formula, proof_path)
            info["check_seconds"] = round(
                time.perf_counter() - check0, 6)
            info["proof_valid"] = outcome.valid
            if not outcome.valid:
                raise AssertionError(
                    f"certified run produced an invalid proof: "
                    f"{outcome.error}")
    finally:
        try:
            os.remove(proof_path)
        except OSError:
            pass
    return wall, cpu, result, info


#: Inprocessing cadence for the benchmark runs: frequent enough to
#: fire on every suite instance, sparse enough that the passes pay
#: for themselves (measured on php-7, see BENCH_PR6.json).  Learned
#: clauses are minimized since PR 6, so conflicts are cheaper and the
#: sweet spot moved out from 500.
INPROCESS_INTERVAL = 1000


def _inprocess_config(interval: int = INPROCESS_INTERVAL):
    from repro.solvers.inprocess import InprocessConfig
    return InprocessConfig(interval=interval)


def _run_inprocess(formula, interval: int = INPROCESS_INTERVAL):
    """The live engine with the inprocessing engine enabled.  Returns
    the timing, the result, and the per-pass totals of the run's
    :class:`~repro.solvers.inprocess.Inprocessor`."""
    solver = CDCLSolver(
        formula, heuristic=VSIDSHeuristic(seed=0),
        restart_policy=make_restart_policy("luby", 64),
        phase_saving=True, inprocess=_inprocess_config(interval))
    wall, cpu, result = _timed(solver)
    inprocessor = solver._inprocessor
    totals = ({name: dict(counters) for name, counters
               in inprocessor.pass_totals.items()}
              if inprocessor is not None else {})
    return wall, cpu, result, totals


def _run_inprocess_certified(formula, interval: int = INPROCESS_INTERVAL):
    """One inprocessing run streaming a DRUP proof, validated by the
    independent checker: every inprocessing transformation is
    proof-logged, so a rejection here is a soundness bug, not noise."""
    import tempfile

    from repro.verify.checker import check_proof_file
    from repro.verify.drat import FileProofSink, attach_proof_stream

    handle, proof_path = tempfile.mkstemp(suffix=".drup",
                                          prefix="repro-bench-inp-")
    os.close(handle)
    solver = CDCLSolver(
        formula, heuristic=VSIDSHeuristic(seed=0),
        restart_policy=make_restart_policy("luby", 64),
        phase_saving=True,
        inprocess=_inprocess_config(interval=interval))
    sink = attach_proof_stream(solver, FileProofSink(proof_path))
    try:
        result = solver.solve()
        sink.close()
        info = {"proof_bytes": sink.bytes_written,
                "proof_adds": sink.adds,
                "proof_deletes": sink.deletes}
        if result.status is Status.UNSATISFIABLE:
            outcome = check_proof_file(formula, proof_path)
            info["proof_valid"] = outcome.valid
            if not outcome.valid:
                raise AssertionError(
                    f"inprocessing produced an invalid proof: "
                    f"{outcome.error}")
    finally:
        try:
            os.remove(proof_path)
        except OSError:
            pass
    return result, info


def _run_old(formula):
    solver = LegacyCDCLSolver(
        formula, heuristic=LegacyVSIDS(),
        restart_policy=make_restart_policy("luby", 64),
        phase_saving=True)
    return _timed(solver)


def _verify_model(formula, result, engine: str, name: str) -> None:
    if result.status is Status.SATISFIABLE:
        if not formula.is_satisfied_by(result.assignment):
            raise AssertionError(
                f"{engine} returned a non-model on {name}")


def bench_instance(name, formula, repeats: int, tiny: bool = False):
    """Race both engines on one instance; returns the result record."""
    # The tiny CI instances conflict a few hundred times at most, so
    # the inprocessing cadence drops to keep the passes exercised.
    inp_interval = 100 if tiny else INPROCESS_INTERVAL
    best_new = best_old = best_traced = best_cert = best_inp = None
    for _ in range(repeats):
        # Best repetition is picked on CPU seconds: wall clock on a
        # shared machine includes steal time that has nothing to do
        # with either engine.
        wall, cpu, result = _run_new(formula)
        if best_new is None or cpu < best_new[1]:
            best_new = (wall, cpu, result)
        wall, cpu, result = _run_old(formula)
        if best_old is None or cpu < best_old[1]:
            best_old = (wall, cpu, result)
        wall, cpu, result = _run_traced(formula)
        if best_traced is None or cpu < best_traced[1]:
            best_traced = (wall, cpu, result)
        wall, cpu, result, info = _run_certified(formula)
        if best_cert is None or cpu < best_cert[1]:
            best_cert = (wall, cpu, result, info)
        wall, cpu, result, totals = _run_inprocess(
            formula, interval=inp_interval)
        if best_inp is None or cpu < best_inp[1]:
            best_inp = (wall, cpu, result, totals)
    new_wall, new_time, new_result = best_new
    old_wall, old_time, old_result = best_old
    traced_wall, traced_time, traced_result = best_traced
    cert_wall, cert_time, cert_result, cert_info = best_cert
    inp_wall, inp_time, inp_result, inp_totals = best_inp
    del_wall, del_time, del_result, del_occupancy = _run_deletion(formula)

    if inp_result.status is not new_result.status:
        raise AssertionError(
            f"inprocessing changed the verdict on {name}: "
            f"inprocess={inp_result.status} plain={new_result.status}")
    _verify_model(formula, inp_result, "inprocessing engine", name)
    inp_proof_info = {}
    if inp_result.status is Status.UNSATISFIABLE:
        _, inp_proof_info = _run_inprocess_certified(
            formula, interval=inp_interval)
    if cert_result.status is not new_result.status:
        raise AssertionError(
            f"proof streaming changed the verdict on {name}: "
            f"certified={cert_result.status} plain={new_result.status}")

    if traced_result.status is not new_result.status:
        raise AssertionError(
            f"tracing changed the verdict on {name}: "
            f"traced={traced_result.status} plain={new_result.status}")
    if del_result.status is not new_result.status:
        raise AssertionError(
            f"deletion changed the verdict on {name}: "
            f"deletion={del_result.status} keep={new_result.status}")
    _verify_model(formula, del_result, "deletion-mode engine", name)

    if new_result.status is not old_result.status:
        raise AssertionError(
            f"verdict mismatch on {name}: new={new_result.status} "
            f"old={old_result.status}")
    _verify_model(formula, new_result, "new engine", name)
    _verify_model(formula, old_result, "legacy engine", name)

    def counters(result):
        stats = result.stats
        return {"conflicts": stats.conflicts,
                "decisions": stats.decisions,
                "propagations": stats.propagations,
                "restarts": stats.restarts}

    before = counters(old_result)
    after = counters(new_result)
    return {
        "instance": name,
        "num_vars": formula.num_vars,
        "num_clauses": formula.num_clauses,
        "status": new_result.status.name,
        "model_verified": new_result.status is Status.SATISFIABLE,
        "before": {"wall_seconds": round(old_wall, 6),
                   "cpu_seconds": round(old_time, 6), **before},
        "after": {"wall_seconds": round(new_wall, 6),
                  "cpu_seconds": round(new_time, 6), **after},
        # Search-effort deltas (after - before): the engines follow
        # near-identical search paths, so nonzero deltas flag a
        # behavioural (not just mechanical) change.
        "effort_delta": {key: after[key] - before[key]
                         for key in ("decisions", "conflicts",
                                     "propagations")},
        # CPU-seconds ratio (see _timed): engine mechanics, not
        # hypervisor weather.
        "speedup": round(old_time / new_time, 3),
        "traced_wall_seconds": round(traced_wall, 6),
        "traced_cpu_seconds": round(traced_time, 6),
        "tracing_overhead": round(traced_time / new_time, 3),
        # One live-engine run under an active deletion policy: the
        # clause arena's occupancy and GC yield on this instance, and
        # the BCP rate of both live runs (deletion shrinks the DB, so
        # on deletion-heavy UNSAT instances its rate is the higher).
        "deletion": {
            "wall_seconds": round(del_wall, 6),
            "cpu_seconds": round(del_time, 6),
            "speedup_vs_legacy": round(old_time / del_time, 3),
            "gc_runs": del_result.stats.gc_runs,
            "gc_reclaimed_ints": del_result.stats.gc_reclaimed_ints,
            "deleted_clauses": del_result.stats.deleted_clauses,
            "arena_fill_ratio": del_occupancy["fill_ratio"],
            "arena_peak_ints": del_occupancy["peak_ints"],
            "arena_live_ints": del_occupancy["live_ints"],
            "propagations_per_sec": round(
                del_result.stats.propagations / del_time),
            "keep_propagations_per_sec": round(
                new_result.stats.propagations / new_time),
        },
        # One live-engine run streaming a DRUP proof to disk.  The
        # overhead ratio (certified / plain CPU) is the price of
        # emission; on UNSAT instances the proof is also validated by
        # the independent checker (checker time kept separate -- it
        # runs off the solver's critical path).
        "certified": {
            "wall_seconds": round(cert_wall, 6),
            "cpu_seconds": round(cert_time, 6),
            "overhead": round(cert_time / new_time, 3),
            **cert_info,
        },
        # One live-engine run with the inprocessing engine enabled
        # (interval INPROCESS_INTERVAL, all passes).
        # ``vs_off`` > 1 means inprocessing made this instance faster;
        # ``passes`` breaks the reclaim down per pass.
        "inprocess": {
            "wall_seconds": round(inp_wall, 6),
            "cpu_seconds": round(inp_time, 6),
            "speedup_vs_legacy": round(old_time / inp_time, 3),
            "vs_off": round(new_time / inp_time, 3),
            "runs": inp_result.stats.inprocess_runs,
            "removed_clauses":
                inp_result.stats.inprocess_removed_clauses,
            "strengthened_clauses":
                inp_result.stats.inprocess_strengthened_clauses,
            "reclaimed_lits": inp_result.stats.inprocess_reclaimed_lits,
            "eliminated_vars":
                inp_result.stats.inprocess_eliminated_vars,
            "units": inp_result.stats.inprocess_units,
            "passes": inp_totals,
            **inp_proof_info,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small suite + 1 repeat, finishes in <60 s")
    parser.add_argument("--tiny", action="store_true",
                        help="two tiny instances + 1 repeat (the CI "
                             "perf-smoke job); exits non-zero on any "
                             "verdict mismatch")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repetitions per engine per "
                             "instance (default: 3, smoke/tiny: 1)")
    parser.add_argument("-o", "--output", default=None,
                        help="output JSON path (default: BENCH_PR9.json "
                             "in the repo root; '-' for stdout only)")
    args = parser.parse_args(argv)

    # Probe the kernel capability exactly once per invocation; a
    # failure is recorded as an explicit error string rather than an
    # omitted key, so numpy-absent runs stay distinguishable from runs
    # that never probed.
    try:
        from repro.solvers.kernels import capability
        kernels_info = capability()
    except Exception as exc:
        kernels_info = {"error": f"{type(exc).__name__}: {exc}"}

    repeats = args.repeats or (1 if (args.smoke or args.tiny) else 3)
    records = []
    for name, formula in build_suite(args.smoke, tiny=args.tiny):
        record = bench_instance(name, formula, repeats, tiny=args.tiny)
        records.append(record)
        deletion = record["deletion"]
        gc_note = (f"gc {deletion['gc_runs']} "
                   f"fill {deletion['arena_fill_ratio']:.2f}"
                   if deletion["gc_runs"] else "gc 0")
        print(f"{name:18s} {record['status']:14s} "
              f"before {record['before']['cpu_seconds']*1000:9.1f}ms  "
              f"after {record['after']['cpu_seconds']*1000:9.1f}ms  "
              f"x{record['speedup']:.2f}  "
              f"traced x{record['tracing_overhead']:.2f}  "
              f"cert x{record['certified']['overhead']:.2f}  "
              f"inp x{record['inprocess']['vs_off']:.2f}  "
              f"{gc_note}", flush=True)

    speedups = [r["speedup"] for r in records]
    overheads = [r["tracing_overhead"] for r in records]
    # The certified-overhead gate is judged on UNSAT instances only:
    # that is where a proof is actually produced end-to-end (on SAT
    # runs the sink sees just the learned-clause stream).
    cert_overheads = [r["certified"]["overhead"] for r in records
                      if r["status"] == "UNSATISFIABLE"]
    inp_speedups = [r["inprocess"]["speedup_vs_legacy"]
                    for r in records]
    php7 = next((r for r in records if r["instance"] == "php-7"), None)
    summary = {
        "bench": "live engine vs the frozen legacy baseline, with "
                 "traced, certified, deletion-mode and inprocessing runs",
        "baseline": "benchmarks/legacy_cdcl.py (seed engine @00ba90a)",
        "config": "VSIDS seed=0, Luby-64 restarts, phase saving",
        "timing": "ratios from process CPU seconds, best of repeats "
                  "(wall seconds recorded alongside)",
        "deletion_config": "size bound=6 interval=250 (extra live run)",
        "inprocess_config": f"interval={INPROCESS_INTERVAL}, all "
                            "passes (extra live run)",
        "kernels": kernels_info,
        "repeats": repeats,
        "smoke": args.smoke,
        "tiny": args.tiny,
        "median_speedup": round(statistics.median(speedups), 3),
        "min_speedup": round(min(speedups), 3),
        "max_speedup": round(max(speedups), 3),
        "median_inprocess_speedup": round(
            statistics.median(inp_speedups), 3),
        "php7_inprocess_vs_off": php7["inprocess"]["vs_off"]
            if php7 else None,
        "median_tracing_overhead": round(statistics.median(overheads),
                                         3),
        "max_tracing_overhead": round(max(overheads), 3),
        "median_certified_overhead": round(
            statistics.median(cert_overheads), 3) if cert_overheads
            else None,
        "max_certified_overhead": round(max(cert_overheads), 3)
            if cert_overheads else None,
        "certified_gate": 1.25,
        "tracing_gate": 1.10,
        "legacy_speedup_floor": 2.88,
        "instances": records,
    }
    print(f"median speedup: x{summary['median_speedup']:.2f}  "
          f"(min x{summary['min_speedup']:.2f}, "
          f"max x{summary['max_speedup']:.2f})")
    print(f"median tracing overhead: "
          f"x{summary['median_tracing_overhead']:.2f}  "
          f"(max x{summary['max_tracing_overhead']:.2f}, "
          f"gate <=x{summary['tracing_gate']:.2f})")
    if cert_overheads:
        print(f"median certified overhead (UNSAT): "
              f"x{summary['median_certified_overhead']:.2f}  "
              f"(max x{summary['max_certified_overhead']:.2f}, "
              f"gate <=x{summary['certified_gate']:.2f})")
    print(f"median inprocess speedup vs legacy: "
          f"x{summary['median_inprocess_speedup']:.2f}  "
          f"(kernel {kernels_info.get('kernel', 'probe-failed')})")
    if php7 is not None:
        print(f"php-7 inprocess vs off: "
              f"x{summary['php7_inprocess_vs_off']:.2f}")

    if args.output != "-":
        out_path = Path(args.output) if args.output \
            else BENCH_DIR.parent / "BENCH_PR9.json"
        out_path.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {out_path}")

    # The tracing gate is judged on the full suite only: smoke/tiny
    # instances solve in milliseconds, where the ratio is dominated
    # by tracer setup rather than steady-state per-event cost.
    if not (args.smoke or args.tiny) \
            and summary["median_tracing_overhead"] \
            > summary["tracing_gate"]:
        print(f"FAIL: median tracing overhead "
              f"x{summary['median_tracing_overhead']:.2f} exceeds "
              f"the x{summary['tracing_gate']:.2f} gate",
              file=sys.stderr)
        return 1
    if cert_overheads and summary["median_certified_overhead"] \
            > summary["certified_gate"]:
        print(f"FAIL: median certified overhead "
              f"x{summary['median_certified_overhead']:.2f} exceeds "
              f"the x{summary['certified_gate']:.2f} gate",
              file=sys.stderr)
        return 1
    if php7 is not None and summary["php7_inprocess_vs_off"] <= 1.0:
        print(f"FAIL: inprocessing did not beat the plain engine on "
              f"php-7 (x{summary['php7_inprocess_vs_off']:.2f})",
              file=sys.stderr)
        return 1
    if not (args.smoke or args.tiny) and summary["median_speedup"] \
            < summary["legacy_speedup_floor"]:
        print(f"FAIL: median speedup x{summary['median_speedup']:.2f} "
              f"fell below the PR6 floor "
              f"x{summary['legacy_speedup_floor']:.2f}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
