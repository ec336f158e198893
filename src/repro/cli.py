"""Command-line interface: ``python -m repro <command> ...``.

Wraps the library's main flows for shell use:

* ``solve FILE.cnf`` -- decide a DIMACS formula (prints a model).
* ``atpg FILE.bench`` -- stuck-at test generation report.
* ``cec A.bench B.bench`` -- combinational equivalence check.
* ``bmc FILE.bench --output NAME`` -- bounded safety check.
* ``delay FILE.bench`` -- topological vs sensitizable delay.
* ``info FILE.bench`` -- netlist statistics.
* ``optimize FILE.bench`` -- strash + sweep + redundancy removal,
  equivalence-certified.
* ``profile TRACE.jsonl`` -- render a recorded trace into a per-phase
  effort report (non-zero exit on schema violations).
* ``check FILE.cnf PROOF.drup`` -- validate a DRUP proof with the
  independent checker (exit 0 = valid, 1 = rejected with a line
  diagnostic).
* ``fuzz`` -- differential fuzzing of the solver stack with shrunk
  on-disk reproducers for any failure.
* ``serve`` -- run the fault-tolerant SAT-as-a-service endpoint
  (NDJSON over TCP; see :mod:`repro.service`).
* ``submit`` -- client for ``serve``: submit a DIMACS file, query
  STATUS, ping, or drain the server.

``solve``, ``atpg``, ``cec`` and ``bmc`` accept ``--trace FILE`` to
record a JSONL event trace (:mod:`repro.obs`); ``solve --stats-json``
additionally prints the final counters (and, single-engine, the
search-quality histograms) as one JSON line.  The same four commands
accept ``--certify`` (with optional ``--proof-dir DIR``): every UNSAT
verdict must then carry a DRUP proof validated by the independent
checker, SAT models are audited, and an answer whose evidence fails
the check is *demoted* to unknown -- never reported as proved.

Exit codes follow the SAT-competition convention for ``solve`` and
``submit`` (10 = SAT, 20 = UNSAT, 0 = unknown-because-the-budget-ran-
out), extended with 30 for an UNKNOWN that exists only because a
claimed answer failed certification (a demotion is a bug report, not
a timeout, and scripts must be able to tell them apart); rejected or
malformed service submissions exit 2, and 0/1 = pass/fail elsewhere.
An input file that cannot be read or parsed, a sequential netlist
given to ``atpg`` or ``cec``, two ``cec`` netlists with different
input names or output counts, or a ``bmc`` netlist without the
``--output`` node named (or, unnamed, without outputs) is one
``error:`` line on stderr and exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _at_least(minimum, kind=int):
    """An argparse ``type=`` for a *kind* flag that must be at least
    *minimum*: a value out of range is a usage error (exit 2), not a
    traceback or a silent nonsense answer from the library."""
    def parse(text: str):
        value = kind(text)
        if not value >= minimum:        # NaN is out of range too
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {text}")
        return value
    parse.__name__ = kind.__name__      # "invalid int value: 'x'"
    return parse


def _budget_from_args(args):
    """Build a :class:`repro.runtime.Budget` from the shared
    ``--timeout`` / ``--max-memory-mb`` flags (None when unset)."""
    timeout = getattr(args, "timeout", None)
    memory = getattr(args, "max_memory_mb", None)
    if timeout is None and memory is None:
        return None
    from repro.runtime.budget import Budget
    return Budget(wall_seconds=timeout, max_memory_mb=memory)


def _tracer_from_args(args):
    """Build a :class:`repro.obs.Tracer` writing JSONL to the
    ``--trace`` target (None when the flag is absent or unset).

    ``repro serve`` opts into a buffered, size-rotated sink (its
    trace lives for the server's whole lifetime); every other command
    keeps the crash-safe flush-per-line default.  The tracer opens
    with a ``trace.meta`` event so ``repro profile`` can rebase this
    trace against others when merging.
    """
    target = getattr(args, "trace", None)
    if target is None:
        return None
    from repro.obs import JsonlSink, Tracer
    max_mb = getattr(args, "trace_max_mb", None)
    sink = JsonlSink(
        target,
        buffered=bool(getattr(args, "trace_buffered", False)),
        max_bytes=(int(max_mb * 1024 * 1024)
                   if max_mb else None))
    tracer = Tracer(sink)
    tracer.emit_meta()
    return tracer


class _BadInput(Exception):
    """An input file that cannot be used; :func:`main` prints it as
    one ``error:`` line and exits 2."""


def _read_input(loader, path: str):
    """``loader(path)``, with an unreadable or malformed file raised
    as :class:`_BadInput` instead of a traceback."""
    from repro.circuits.bench_format import BenchFormatError
    from repro.cnf.dimacs import DimacsError
    try:
        return loader(path)
    except (OSError, UnicodeDecodeError, DimacsError,
            BenchFormatError) as exc:
        raise _BadInput(f"cannot read {path}: {exc}") from None


def _add_obs_flags(subparser) -> None:
    subparser.add_argument("--trace", default=None, metavar="FILE",
                           help="record a JSONL event trace here "
                                "(inspect with 'repro profile FILE')")


def _add_certify_flags(subparser) -> None:
    subparser.add_argument("--certify", action="store_true",
                           help="require checker-validated DRUP proofs "
                                "for UNSAT answers and audited models "
                                "for SAT ones; unverifiable answers "
                                "are demoted to unknown")
    subparser.add_argument("--proof-dir", default=None, metavar="DIR",
                           help="keep the proof files here (default: "
                                "cleaned-up temporaries)")


def _add_budget_flags(subparser) -> None:
    subparser.add_argument("--timeout", type=_at_least(0, float),
                           default=None, metavar="SECONDS",
                           help="wall-clock budget; exhaustion yields "
                                "a partial/UNKNOWN result, not an "
                                "error")
    subparser.add_argument("--max-memory-mb", type=_at_least(0, float),
                           default=None, metavar="MB",
                           help="soft ceiling on process RSS; "
                                "exceeding it stops the search")


def _cmd_solve(args) -> int:
    from repro.cnf.dimacs import load_dimacs
    from repro.solvers.cdcl import CDCLSolver
    from repro.solvers.preprocess import preprocess

    budget = _budget_from_args(args)
    tracer = getattr(args, "obs_tracer", None)
    if args.certify and args.preprocess and args.portfolio:
        print("error: --certify with --preprocess is not supported "
              "under --portfolio (worker proofs cannot share the "
              "preprocessing prefix)", file=sys.stderr)
        return 2
    formula = _read_input(load_dimacs, args.file)
    lift = None
    certified_preprocess = args.certify and args.preprocess
    if args.preprocess and not certified_preprocess:
        pre = preprocess(formula)
        if pre.unsat:
            print("s UNSATISFIABLE")
            return 20
        lift = pre.lift_model
        formula = pre.formula
    if args.portfolio:
        from repro.solvers.portfolio import race_portfolio
        result = race_portfolio(formula, args.certify, args.proof_dir,
                                processes=args.portfolio,
                                max_conflicts=args.max_conflicts,
                                budget=budget, tracer=tracer)
        if result.winner:
            print(f"c portfolio winner: {result.winner}")
        result = result.result
    elif args.certify:
        import os
        from repro.verify.certificate import certified_solve
        proof_path = None
        if args.proof_dir is not None:
            os.makedirs(args.proof_dir, exist_ok=True)
            stem = os.path.splitext(os.path.basename(args.file))[0]
            proof_path = os.path.join(args.proof_dir, stem + ".drup")
        prefix = None
        if certified_preprocess:
            from functools import partial
            from repro.cnf.simplify import simplify_with_proof
            prefix = partial(simplify_with_proof, formula)
        result = certified_solve(formula, proof_path=proof_path,
                                 tracer=tracer,
                                 max_conflicts=args.max_conflicts,
                                 budget=budget, prefix=prefix)
    else:
        solver = CDCLSolver(formula, max_conflicts=args.max_conflicts,
                            budget=budget)
        solver.tracer = tracer
        if args.stats_json:
            # Search-quality histograms ride the single-engine path
            # only (worker processes cannot share a registry).
            from repro.obs import SearchMetrics
            solver.metrics = SearchMetrics()
        result = solver.solve()
    if args.certify and result.certificate is not None:
        print(f"c certificate: {result.certificate.summary()}")
    if result.is_sat:
        model = lift(result.assignment) if lift else result.assignment
        print("s SATISFIABLE")
        literals = " ".join(str(lit) for lit in model.to_literals())
        code = 10
    elif result.is_unsat:
        print("s UNSATISFIABLE")
        literals = None
        code = 20
    else:
        print("s UNKNOWN")
        literals = None
        # Distinguish "ran out of budget" (0) from "an answer was
        # claimed but its certificate failed the independent check"
        # (30): the latter is evidence of a defect, and callers
        # gating CI on this command must not mistake it for a
        # timeout.
        certificate = result.certificate
        if certificate is not None and certificate.valid is False:
            code = 30
        else:
            code = 0
    if literals is not None:
        print(f"v {literals} 0")
    if args.stats_json:
        import json
        print(json.dumps(result.stats.as_dict(), sort_keys=True))
    return code


def _cmd_atpg(args) -> int:
    from repro.apps.atpg import ATPGEngine, TestOutcome
    from repro.circuits.bench_format import load_bench

    circuit = _read_input(load_bench, args.file)
    if circuit.is_sequential():
        raise _BadInput(f"{args.file} is sequential; ATPG is "
                        f"combinational only")
    engine = ATPGEngine(circuit, collapse=args.collapse,
                        fault_dropping=not args.no_dropping,
                        budget=_budget_from_args(args),
                        tracer=getattr(args, "obs_tracer", None),
                        certify=args.certify,
                        proof_dir=args.proof_dir)
    report = engine.run()
    if report.budget_exhausted:
        print("note: budget exhausted, report is partial")
    if args.certify:
        proofs = sum(1 for r in report.results
                     if r.certificate is not None
                     and r.certificate.kind == "proof"
                     and r.certificate.valid)
        demoted = sum(1 for r in report.results
                      if r.certificate is not None
                      and r.certificate.valid is False)
        print(f"certified:  {proofs} redundancy proofs checked"
              + (f", {demoted} answer(s) demoted (check failed)"
                 if demoted else ""))
    print(f"faults:     {len(report.results)}")
    print(f"detected:   {report.count(TestOutcome.DETECTED)} by SAT, "
          f"{report.count(TestOutcome.DETECTED_BY_SIMULATION)} "
          f"by simulation")
    print(f"redundant:  {report.count(TestOutcome.REDUNDANT)}")
    print(f"aborted:    {report.count(TestOutcome.ABORTED)}")
    print(f"vectors:    {len(report.vectors)}")
    print(f"efficiency: {report.fault_coverage:.2%}")
    if args.vectors:
        names = circuit.inputs
        for vector in report.vectors:
            print("".join("1" if vector[n] else "0" for n in names))
    return 0 if report.count(TestOutcome.ABORTED) == 0 else 1


def _cmd_cec(args) -> int:
    from repro.apps.equivalence import check_equivalence
    from repro.circuits.bench_format import load_bench
    from repro.circuits.tseitin import check_miter_interface

    left = _read_input(load_bench, args.left)
    right = _read_input(load_bench, args.right)
    for path, circuit in ((args.left, left), (args.right, right)):
        if circuit.is_sequential():
            raise _BadInput(f"{path} is sequential; equivalence "
                            f"checking is combinational only")
    try:
        check_miter_interface(left, right)
    except ValueError as exc:
        raise _BadInput(f"{args.left} and {args.right} cannot be "
                        f"compared: {exc}") from None
    if args.certify and args.preprocess:
        print("error: --certify is incompatible with --preprocess "
              "(the proof would certify the preprocessed miter, not "
              "the encoded one)", file=sys.stderr)
        return 2
    report = check_equivalence(
        left, right,
        use_preprocessing=args.preprocess,
        budget=_budget_from_args(args),
        tracer=getattr(args, "obs_tracer", None),
        certify=args.certify,
        proof_dir=args.proof_dir)
    if args.certify and report.certificate is not None:
        print(f"certificate: {report.certificate.summary()}")
    if report.equivalent is True:
        print("EQUIVALENT")
        return 0
    if report.equivalent is False:
        print("NOT EQUIVALENT")
        names = left.inputs
        print("counterexample:",
              " ".join(f"{n}={int(report.counterexample[n])}"
                       for n in names))
        return 1
    certificate = report.certificate
    if certificate is not None and certificate.valid is False:
        print("UNKNOWN (answer demoted: certification failed)")
    else:
        print("UNKNOWN (budget exhausted)")
    return 2


def _cmd_bmc(args) -> int:
    from repro.apps.bmc import check_safety
    from repro.circuits.bench_format import load_bench

    circuit = _read_input(load_bench, args.file)
    output = args.output
    if output is None:
        if not circuit.outputs:
            raise _BadInput(f"{args.file} has no outputs; name a node "
                            f"with --output")
        output = circuit.outputs[0]
    elif output not in circuit:
        raise _BadInput(f"{args.file} has no node {output!r} to check")
    result = check_safety(circuit, output, bad_value=not args.low,
                          max_depth=args.depth,
                          budget=_budget_from_args(args),
                          tracer=getattr(args, "obs_tracer", None),
                          certify=args.certify,
                          proof_dir=args.proof_dir)
    if args.certify:
        checked = sum(1 for c in result.certificates
                      if c is not None and c.kind == "proof" and c.valid)
        print(f"certified: {checked} per-depth unreachability "
              f"proofs checked")
    if result.discrepant:
        print(f"DISCREPANT: depth {result.depths_proved} produced an "
              f"UNSAT whose proof failed the independent check "
              f"(property proved only through depth "
              f"{result.depths_proved - 1})"
              if result.depths_proved else
              "DISCREPANT: first depth's proof failed the independent "
              "check; nothing proved")
        return 2
    if result.budget_exhausted:
        print(f"budget exhausted: property proved through depth "
              f"{result.depths_proved - 1}"
              if result.depths_proved else
              "budget exhausted: no depth proved")
        return 2
    if result.failure_depth is None:
        print(f"property holds through depth {args.depth}")
        return 0
    print(f"counterexample at depth {result.failure_depth}")
    for frame, vector in enumerate(result.trace):
        bits = " ".join(f"{name}={int(value)}"
                        for name, value in sorted(vector.items()))
        print(f"  cycle {frame}: {bits}")
    return 1


def _cmd_delay(args) -> int:
    from repro.apps.delay import compute_delay
    from repro.circuits.bench_format import load_bench

    circuit = _read_input(load_bench, args.file)
    report = compute_delay(circuit, max_paths=args.max_paths)
    print(f"topological delay:  {report.topological_delay}")
    print(f"sensitizable delay: {report.sensitizable_delay}")
    print(f"false paths found:  {report.false_paths_examined}")
    if report.critical_path:
        print("critical path:      " + " -> ".join(report.critical_path))
    return 0


def _cmd_info(args) -> int:
    from repro.circuits.bench_format import load_bench

    circuit = _read_input(load_bench, args.file)
    for key, value in circuit.stats().items():
        print(f"{key}: {value}")
    return 0


def _cmd_optimize(args) -> int:
    from repro.apps.equivalence import check_equivalence
    from repro.apps.redundancy import optimize, sweep
    from repro.circuits.bench_format import load_bench, save_bench
    from repro.circuits.strash import structural_hash

    circuit = _read_input(load_bench, args.file)
    before = circuit.num_gates()
    optimized = sweep(structural_hash(circuit))
    if not args.no_redundancy and not optimized.is_sequential():
        optimized, report = optimize(optimized)
        removed_faults = len(report.redundant_faults)
    else:
        removed_faults = 0
    print(f"gates: {before} -> {optimized.num_gates()}")
    print(f"redundant faults removed: {removed_faults}")
    if not circuit.is_sequential():
        verdict = check_equivalence(circuit, optimized)
        print(f"equivalence certified: {verdict.equivalent}")
        if verdict.equivalent is False:
            return 2
    if args.output:
        save_bench(optimized, args.output)
        print(f"written: {args.output}")
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import profile_traces

    text, problems = profile_traces(args.files)
    print(text)
    return 1 if problems else 0


def _cmd_check(args) -> int:
    from repro.cnf.dimacs import load_dimacs
    from repro.verify.checker import check_proof_file

    formula = _read_input(load_dimacs, args.formula)
    outcome = check_proof_file(formula, args.proof)
    if outcome.valid:
        print(f"VALID: {outcome.adds} additions, {outcome.deletes} "
              f"deletions, empty clause derived")
        return 0
    print(f"INVALID: {outcome.error}")
    return 1


def _cmd_fuzz(args) -> int:
    from repro.verify.fuzz import run_fuzz

    def progress(done, report):
        if done % args.progress_every == 0:
            print(f"[{done}/{args.iterations}] {report.summary()}",
                  flush=True)

    report = run_fuzz(args.iterations, seed=args.seed,
                      out_dir=args.out_dir,
                      max_vars=args.max_vars,
                      portfolio_every=args.portfolio_every,
                      on_progress=progress
                      if args.progress_every > 0 else None)
    print(report.summary())
    for failure in report.failures:
        where = f" -> {failure.cnf_path}" if failure.cnf_path else ""
        print(f"FAILURE [{failure.kind}] seed={failure.seed}: "
              f"{failure.detail} (shrunk {failure.original_clauses} -> "
              f"{failure.shrunk_clauses} clauses){where}")
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    import asyncio
    import json

    from repro.service.admission import ServiceConfig
    from repro.service.server import run_server

    fault_plan = None
    if args.fault_plan:
        from repro.runtime.faults import ServiceFaultPlan
        try:
            fault_plan = ServiceFaultPlan.from_dict(
                json.loads(args.fault_plan))
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2
    config = ServiceConfig(
        max_workers=args.workers,
        queue_depth=args.queue_depth,
        max_hardness=args.max_hardness,
        default_deadline=args.default_deadline,
        grace_seconds=args.grace_seconds)
    worker_trace_dir = args.worker_trace_dir
    if worker_trace_dir is None and args.trace is not None \
            and not args.no_worker_traces:
        worker_trace_dir = args.trace + ".workers"

    def ready(bound):
        print(f"listening on {bound[0]}:{bound[1]}", flush=True)

    try:
        asyncio.run(run_server(config, args.host, args.port,
                               fault_plan=fault_plan,
                               tracer=getattr(args, "obs_tracer", None),
                               worker_trace_dir=worker_trace_dir,
                               journal=args.journal,
                               ready=ready))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    print("drained and stopped")
    return 0


def _progress_printer():
    """A per-frame renderer for ``repro submit --stream``.

    On a TTY each frame repaints one status line in place; piped
    output gets one ``c progress ...`` line per frame (DIMACS-comment
    prefixed, so downstream result parsing is unaffected).
    """
    tty = sys.stdout.isatty()
    saw_frame = [False]

    def show(frame):
        snap = frame.get("snapshot", {})
        rate = snap.get("propagations_per_sec", 0)
        line = (f"c progress #{frame.get('seq')} "
                f"attempt {frame.get('attempt')} "
                f"{frame.get('elapsed', 0):.1f}s: "
                f"{snap.get('conflicts', 0):,} conflicts, "
                f"{snap.get('propagations', 0):,} props "
                f"({rate:,.0f}/s), "
                f"{snap.get('restarts', 0)} restarts")
        if "arena_fill" in snap:
            line += f", arena {snap['arena_fill']:.2f}"
        if tty:
            sys.stdout.write("\r\x1b[K" + line)
            saw_frame[0] = True
        else:
            sys.stdout.write(line + "\n")
        sys.stdout.flush()

    def finish():
        if tty and saw_frame[0]:
            sys.stdout.write("\n")
            sys.stdout.flush()

    show.finish = finish
    return show


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient

    dimacs = None
    if args.file is not None:
        dimacs = _read_input(_read_text, args.file)
    try:
        client = ServiceClient(args.host, args.port,
                               timeout=args.client_timeout)
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    try:
        if args.op == "ping":
            response = client.ping()
            print(response["kind"])
            return 0 if response.get("kind") == "pong" else 2
        if args.op == "status":
            import json
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.op == "metrics":
            response = client.metrics()
            if response.get("kind") != "metrics":
                print(f"ERROR [{response.get('code')}]: "
                      f"{response.get('reason')}", file=sys.stderr)
                return 2
            sys.stdout.write(response.get("text", ""))
            return 0
        if args.op == "shutdown":
            response = client.shutdown(grace=args.grace_seconds)
            print(f"drained {response.get('drained', 0)} job(s), "
                  f"cancelled {response.get('cancelled', 0)}")
            return 0
        if args.reattach is not None:
            on_progress = _progress_printer() if args.stream else None
            response = client.query(args.reattach,
                                    stream=args.stream,
                                    on_progress=on_progress)
        elif dimacs is None:
            print("error: a CNF file (or --reattach/--op) is required",
                  file=sys.stderr)
            return 2
        else:
            job_id = args.id or os.path.basename(args.file)
            on_progress = _progress_printer() if args.stream else None
            response = client.submit(
                job_id, dimacs=dimacs, tenant=args.tenant,
                deadline=args.deadline,
                max_conflicts=args.max_conflicts,
                certify=args.certify, use_cache=not args.no_cache,
                stream=args.stream, on_progress=on_progress)
    except BrokenPipeError:
        raise           # stdout's consumer went away, not the server
    except (ConnectionError, OSError) as exc:
        print(f"error: connection lost: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    if on_progress is not None:
        on_progress.finish()
    kind = response.get("kind")
    if kind == "rejected":
        print(f"REJECTED [{response.get('code')}]: "
              f"{response.get('reason')}")
        return 2
    if kind != "result":
        print(f"ERROR [{response.get('code')}]: "
              f"{response.get('reason')}", file=sys.stderr)
        return 2
    body = response["body"]
    cached = " (cached)" if response.get("cached") else ""
    if body.get("certificate") is not None:
        cert = body["certificate"]
        if cert.get("kind") == "proof":
            summary = (f"proof verified, {cert.get('steps')} step(s)"
                       if cert.get("valid")
                       else f"proof INVALID: {cert.get('reason')}")
        elif cert.get("kind") == "model":
            summary = ("model verified" if cert.get("valid")
                       else f"model INVALID: {cert.get('reason')}")
        else:
            summary = cert.get("reason") or "none"
        print(f"c certificate: {summary}")
    if body.get("degraded"):
        print(f"c degraded: {body.get('degraded_reason')} "
              f"after {body.get('attempts')} attempt(s)")
        if body.get("partial"):
            partial = body["partial"]
            print(f"c partial: attempt {partial.get('attempt')} at "
                  f"{partial.get('elapsed')}s")
    status = body["status"]
    print(f"s {status}{cached}")
    if status == "SATISFIABLE":
        model = body.get("model") or []
        print("v " + " ".join(str(lit) for lit in model) + " 0")
        return 10
    if status == "UNSATISFIABLE":
        return 20
    return 30 if body.get("degraded_reason") == "certification" else 0


def _cmd_top(args) -> int:
    from repro.service.client import ServiceClient
    from repro.service.top import run_top

    try:
        client = ServiceClient(args.host, args.port,
                               timeout=args.client_timeout)
    except OSError as exc:
        print(f"error: cannot reach {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    iterations = 1 if args.once else args.iterations
    try:
        return run_top(client, interval=args.interval,
                       iterations=iterations, clear=not args.once)
    finally:
        client.close()


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAT for EDA (Marques-Silva & Sakallah, DAC 2000)")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve a DIMACS CNF file")
    solve.add_argument("file")
    solve.add_argument("--preprocess", action="store_true",
                       help="run Preprocess() incl. equivalency "
                            "reasoning first")
    solve.add_argument("--max-conflicts", type=_at_least(0),
                       default=None)
    solve.add_argument("--portfolio", type=_at_least(0), default=0,
                       metavar="N",
                       help="race N diversified CDCL configurations "
                            "in parallel (0 = single engine)")
    solve.add_argument("--stats-json", action="store_true",
                       help="print the final solver counters (and "
                            "single-engine search-quality histograms) "
                            "as one JSON line")
    _add_budget_flags(solve)
    _add_obs_flags(solve)
    _add_certify_flags(solve)
    solve.set_defaults(handler=_cmd_solve)

    atpg = commands.add_parser("atpg",
                               help="stuck-at ATPG on a .bench netlist")
    atpg.add_argument("file")
    atpg.add_argument("--collapse", action="store_true",
                      help="structural fault collapsing")
    atpg.add_argument("--no-dropping", action="store_true",
                      help="disable simulation fault dropping")
    atpg.add_argument("--vectors", action="store_true",
                      help="print the generated vectors")
    _add_budget_flags(atpg)
    _add_obs_flags(atpg)
    _add_certify_flags(atpg)
    atpg.set_defaults(handler=_cmd_atpg)

    cec = commands.add_parser("cec",
                              help="combinational equivalence check")
    cec.add_argument("left")
    cec.add_argument("right")
    cec.add_argument("--preprocess", action="store_true")
    _add_budget_flags(cec)
    _add_obs_flags(cec)
    _add_certify_flags(cec)
    cec.set_defaults(handler=_cmd_cec)

    bmc = commands.add_parser("bmc", help="bounded safety check")
    bmc.add_argument("file")
    bmc.add_argument("--output", default=None,
                     help="output to watch (default: first PO)")
    bmc.add_argument("--depth", type=_at_least(0), default=10)
    bmc.add_argument("--low", action="store_true",
                     help="look for value 0 instead of 1")
    _add_budget_flags(bmc)
    _add_obs_flags(bmc)
    _add_certify_flags(bmc)
    bmc.set_defaults(handler=_cmd_bmc)

    delay = commands.add_parser("delay",
                                help="sensitizable-delay analysis")
    delay.add_argument("file")
    delay.add_argument("--max-paths", type=_at_least(1), default=1000)
    delay.set_defaults(handler=_cmd_delay)

    info = commands.add_parser("info", help="netlist statistics")
    info.add_argument("file")
    info.set_defaults(handler=_cmd_info)

    optimize = commands.add_parser(
        "optimize",
        help="strash + sweep + SAT redundancy removal")
    optimize.add_argument("file")
    optimize.add_argument("--output", default=None,
                          help="write the optimized .bench here")
    optimize.add_argument("--no-redundancy", action="store_true",
                          help="skip the SAT redundancy-removal pass")
    optimize.set_defaults(handler=_cmd_optimize)

    profile = commands.add_parser(
        "profile",
        help="per-phase effort report from --trace JSONL files; "
             "several files (server + worker traces) are merged "
             "into one correlated timeline")
    profile.add_argument("files", nargs="+", metavar="FILE")
    profile.set_defaults(handler=_cmd_profile)

    check = commands.add_parser(
        "check",
        help="validate a DRUP proof with the independent checker")
    check.add_argument("formula", help="the DIMACS CNF the proof is of")
    check.add_argument("proof", help="the DRUP proof file")
    check.set_defaults(handler=_cmd_check)

    fuzz = commands.add_parser(
        "fuzz",
        help="differential fuzzing of the solver stack "
             "(CDCL vs DPLL vs recursive learning, proofs checked)")
    fuzz.add_argument("--iterations", type=_at_least(1), default=100)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--out-dir", default=None, metavar="DIR",
                      help="write shrunk reproducers (DIMACS + JSON) "
                           "here on failure")
    fuzz.add_argument("--max-vars", type=_at_least(5), default=26,
                      help="instance size cap (instances draw 5 to N "
                           "variables)")
    fuzz.add_argument("--portfolio-every", type=_at_least(0), default=0,
                      metavar="K",
                      help="every K rounds, race a certified "
                           "supervised portfolio under a random "
                           "fault plan (0 = never)")
    fuzz.add_argument("--progress-every", type=_at_least(0), default=100,
                      metavar="N",
                      help="print a progress line every N rounds "
                           "(0 = silent)")
    fuzz.set_defaults(handler=_cmd_fuzz)

    serve = commands.add_parser(
        "serve",
        help="run the SAT-as-a-service endpoint (NDJSON over TCP)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9123,
                       help="TCP port (0 = ephemeral, printed on "
                            "startup)")
    serve.add_argument("--workers", type=_at_least(1), default=2,
                       help="concurrent solve processes")
    serve.add_argument("--queue-depth", type=_at_least(1), default=8,
                       help="queued jobs allowed per tenant before "
                            "load shedding")
    serve.add_argument("--max-hardness", type=float, default=5000.0,
                       metavar="SCORE",
                       help="admission ceiling on the static hardness "
                            "estimate (vars x phase-transition "
                            "closeness)")
    serve.add_argument("--default-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="wall budget for jobs without their own")
    serve.add_argument("--grace-seconds", type=float, default=10.0,
                       help="drain window of a shutdown request")
    serve.add_argument("--fault-plan", default=None, metavar="JSON",
                       help="scripted ServiceFaultPlan for chaos "
                            "testing, e.g. "
                            "'{\"crashes\": {\"job-1\": 1}}'")
    serve.add_argument("--journal", default=None, metavar="FILE",
                       help="append-only JSONL job journal; an "
                            "existing file is replayed on startup "
                            "(accepted-but-unfinished jobs re-run, "
                            "finished ones answer 'repro submit "
                            "--reattach' idempotently)")
    _add_obs_flags(serve)
    serve.add_argument("--trace-max-mb", type=float, default=64.0,
                       metavar="MB",
                       help="rotate the server --trace file when it "
                            "exceeds this size (old file kept as "
                            "FILE.1; 0 disables rotation)")
    serve.add_argument("--worker-trace-dir", default=None,
                       metavar="DIR",
                       help="per-attempt worker trace files go here "
                            "(default: '<trace>.workers' when "
                            "--trace is set); merge with 'repro "
                            "profile TRACE DIR/*.jsonl'")
    serve.add_argument("--no-worker-traces", action="store_true",
                       help="suppress the default worker trace dir "
                            "even when --trace is set")
    # A server trace is long-lived: buffered writes, not per-line
    # flushes (solver traces elsewhere keep the crash-safe default).
    serve.set_defaults(handler=_cmd_serve, trace_buffered=True)

    submit = commands.add_parser(
        "submit",
        help="submit a DIMACS file to a running 'repro serve'")
    submit.add_argument("file", nargs="?", default=None)
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=9123)
    submit.add_argument("--tenant", default="default",
                        help="fairness bucket this job bills to")
    submit.add_argument("--id", default=None,
                        help="job id (default: the file name)")
    submit.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall budget, retries included")
    submit.add_argument("--max-conflicts", type=int, default=None)
    submit.add_argument("--certify", action="store_true",
                        help="require a checked proof / audited model")
    submit.add_argument("--no-cache", action="store_true",
                        help="bypass the server's result cache")
    submit.add_argument("--client-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="socket timeout waiting for the response")
    submit.add_argument("--grace-seconds", type=float, default=None,
                        help="drain window passed with --op shutdown")
    submit.add_argument("--stream", action="store_true",
                        help="receive live mid-solve progress frames "
                             "(rendered as a repainting status line "
                             "on a TTY, 'c progress' lines when "
                             "piped)")
    submit.add_argument("--reattach", default=None, metavar="JOB_ID",
                        help="recover the verdict of a previously "
                             "submitted job instead of sending a new "
                             "one (works across server restarts when "
                             "the server runs with --journal; combine "
                             "with --stream to re-join a running "
                             "job's progress frames)")
    submit.add_argument("--op", default=None,
                        choices=("metrics", "status", "ping",
                                 "shutdown"),
                        help="send a non-submit op instead of a job: "
                             "'metrics' prints the Prometheus "
                             "exposition text, 'status' the server "
                             "STATUS as JSON, 'ping' the reply kind, "
                             "and 'shutdown' drains the server and "
                             "stops it")
    submit.set_defaults(handler=_cmd_submit)

    top = commands.add_parser(
        "top",
        help="live dashboard of a running 'repro serve' (per-tenant "
             "queues, deficits, workers, throughput, cache)")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=9123)
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="refresh period")
    top.add_argument("--iterations", type=int, default=None,
                     metavar="N",
                     help="stop after N refreshes (default: until "
                          "interrupted)")
    top.add_argument("--once", action="store_true",
                     help="render one frame without clearing the "
                          "screen and exit (scripts, smoke tests)")
    top.add_argument("--client-timeout", type=float, default=10.0,
                     metavar="SECONDS")
    top.set_defaults(handler=_cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    tracer = _tracer_from_args(args)
    args.obs_tracer = tracer
    try:
        return args.handler(args)
    except _BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream closed stdout early (| head, | grep -q).  Follow
        # the shell's SIGPIPE convention: 128 + SIGPIPE, no traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    finally:
        if tracer is not None:
            tracer.close()


if __name__ == "__main__":
    sys.exit(main())
