"""Unit tests for repro.cli."""

import pytest

from repro.circuits.bench_format import save_bench
from repro.circuits.generators import binary_counter, ripple_carry_adder
from repro.circuits.library import c17
from repro.cli import main
from repro.cnf.dimacs import save_dimacs
from repro.cnf.generators import pigeonhole, random_ksat_at_ratio


@pytest.fixture
def c17_path(tmp_path):
    path = str(tmp_path / "c17.bench")
    save_bench(c17(), path)
    return path


class TestSolve:
    def test_sat_exit_code_and_model(self, tmp_path, capsys):
        formula = random_ksat_at_ratio(10, ratio=3.0, seed=0)
        path = str(tmp_path / "sat.cnf")
        save_dimacs(formula, path)
        code = main(["solve", path])
        out = capsys.readouterr().out
        assert code == 10
        assert "s SATISFIABLE" in out
        assert out.splitlines()[-1].startswith("v ")

    def test_unsat_exit_code(self, tmp_path, capsys):
        path = str(tmp_path / "unsat.cnf")
        save_dimacs(pigeonhole(3), path)
        assert main(["solve", path]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_unknown_on_budget(self, tmp_path, capsys):
        path = str(tmp_path / "hard.cnf")
        save_dimacs(pigeonhole(6), path)
        assert main(["solve", path, "--max-conflicts", "2"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    def test_preprocess_flag(self, tmp_path, capsys):
        from repro.cnf.generators import parity_chain
        path = str(tmp_path / "parity.cnf")
        save_dimacs(parity_chain(8), path)
        assert main(["solve", path, "--preprocess"]) == 20

    def test_model_satisfies_after_preprocess(self, tmp_path, capsys):
        from repro.cnf.dimacs import load_dimacs
        formula = random_ksat_at_ratio(12, ratio=3.0, seed=1)
        path = str(tmp_path / "sat2.cnf")
        save_dimacs(formula, path)
        assert main(["solve", path, "--preprocess"]) == 10
        out = capsys.readouterr().out
        literals = [int(tok) for tok in
                    out.splitlines()[-1].split()[1:-1]]
        model = {abs(lit): lit > 0 for lit in literals}
        for var in formula.variables():
            model.setdefault(var, False)
        assert formula.evaluate(model) is True


class TestATPG:
    def test_report(self, c17_path, capsys):
        assert main(["atpg", c17_path]) == 0
        out = capsys.readouterr().out
        assert "efficiency: 100.00%" in out

    def test_vectors_printed(self, c17_path, capsys):
        main(["atpg", c17_path, "--vectors", "--collapse"])
        out = capsys.readouterr().out
        bitstrings = [line for line in out.splitlines()
                      if set(line) <= {"0", "1"} and len(line) == 5]
        assert bitstrings


class TestCEC:
    def test_equivalent(self, tmp_path, capsys):
        left = str(tmp_path / "a.bench")
        right = str(tmp_path / "b.bench")
        save_bench(ripple_carry_adder(2), left)
        from repro.circuits.generators import carry_select_adder
        save_bench(carry_select_adder(2), right)
        assert main(["cec", left, right]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_not_equivalent(self, tmp_path, capsys):
        from repro.apps.equivalence import mutate_circuit
        left = str(tmp_path / "a.bench")
        right = str(tmp_path / "b.bench")
        save_bench(c17(), left)
        save_bench(mutate_circuit(c17(), seed=1), right)
        code = main(["cec", left, right])
        out = capsys.readouterr().out
        if "NOT EQUIVALENT" in out:
            assert code == 1
            assert "counterexample:" in out
        else:
            assert code == 0      # benign mutation


class TestBMC:
    def test_counterexample(self, tmp_path, capsys):
        path = str(tmp_path / "cnt.bench")
        save_bench(binary_counter(2), path)
        code = main(["bmc", path, "--output", "rollover",
                     "--depth", "5"])
        out = capsys.readouterr().out
        assert code == 1
        assert "counterexample at depth 3" in out
        assert "cycle 0:" in out

    def test_property_holds(self, tmp_path, capsys):
        path = str(tmp_path / "cnt.bench")
        save_bench(binary_counter(3), path)
        assert main(["bmc", path, "--output", "rollover",
                     "--depth", "4"]) == 0
        assert "property holds" in capsys.readouterr().out


class TestDelayAndInfo:
    def test_delay(self, c17_path, capsys):
        assert main(["delay", c17_path]) == 0
        out = capsys.readouterr().out
        assert "topological delay:  3" in out
        assert "sensitizable delay: 3" in out

    def test_info(self, c17_path, capsys):
        assert main(["info", c17_path]) == 0
        out = capsys.readouterr().out
        assert "gates: 6" in out
        assert "inputs: 5" in out

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestOptimize:
    def test_redundant_circuit_shrinks(self, tmp_path, capsys):
        from repro.circuits.library import redundant_or_chain
        source = str(tmp_path / "r.bench")
        target = str(tmp_path / "opt.bench")
        save_bench(redundant_or_chain(), source)
        code = main(["optimize", source, "--output", target])
        out = capsys.readouterr().out
        assert code == 0
        assert "gates: 2 -> 1" in out
        assert "equivalence certified: True" in out
        from repro.circuits.bench_format import load_bench
        from repro.circuits.simulate import exhaustive_truth_table
        optimized = load_bench(target)
        for (a, b), outputs in \
                exhaustive_truth_table(optimized).items():
            assert outputs == (a,)

    def test_clean_circuit_unchanged(self, c17_path, capsys):
        code = main(["optimize", c17_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "gates: 6 -> 6" in out

    def test_no_redundancy_flag(self, c17_path, capsys):
        code = main(["optimize", c17_path, "--no-redundancy"])
        assert code == 0
        assert "redundant faults removed: 0" in \
            capsys.readouterr().out

    def test_sequential_circuit_supported(self, tmp_path, capsys):
        from repro.circuits.generators import binary_counter
        source = str(tmp_path / "cnt.bench")
        save_bench(binary_counter(2), source)
        code = main(["optimize", source])
        assert code == 0

    def test_cec_strash_flag(self, tmp_path, capsys):
        left = str(tmp_path / "l.bench")
        right = str(tmp_path / "r.bench")
        save_bench(c17(), left)
        save_bench(c17(), right)
        assert main(["cec", left, right, "--strash"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out


def assert_one_error_line(capsys, *needles):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for needle in needles:
        assert needle in lines[0], err


class TestBadInput:
    """A missing, malformed or unusable input file is one ``error:``
    line and exit 2, never a traceback."""

    @pytest.mark.parametrize("kind", ["missing", "malformed",
                                      "not-utf8"])
    @pytest.mark.parametrize("argv", [
        ["solve", "{cnf}"],
        ["check", "{cnf}", "{proof}"],
        ["atpg", "{bench}"],
        ["cec", "{bench}", "{good}"],
        ["cec", "{good}", "{bench}"],
        ["bmc", "{bench}"],
        ["delay", "{bench}"],
        ["info", "{bench}"],
        ["optimize", "{bench}"],
    ], ids=lambda argv: "-".join(a.strip("{}") for a in argv))
    def test_bad_file(self, tmp_path, capsys, c17_path, argv, kind):
        suffix = ".cnf" if "{cnf}" in argv else ".bench"
        path = tmp_path / f"bad{suffix}"
        if kind == "malformed":
            path.write_text("p cnf x y\n" if suffix == ".cnf"
                            else "INPUT(a)\ny = FOO(a)\n")
        elif kind == "not-utf8":
            path.write_bytes(b"\xff\xfe\xfa\n")
        values = {"cnf": str(path), "bench": str(path),
                  "good": c17_path, "proof": str(tmp_path / "p.drup")}
        code = main([arg.format(**values) for arg in argv])
        assert code == 2
        assert_one_error_line(capsys, "cannot read", str(path))

    @pytest.mark.parametrize("kind", ["missing", "not-utf8"])
    def test_submit_unreadable_file(self, tmp_path, capsys, kind):
        path = tmp_path / "job.cnf"
        if kind == "not-utf8":
            path.write_bytes(b"\xff\xfe\xfa\n")
        # The file is read before any connection is attempted.
        assert main(["submit", str(path), "--port", "1"]) == 2
        assert_one_error_line(capsys, "cannot read", str(path))

    def test_atpg_rejects_sequential_netlist(self, tmp_path, capsys):
        path = str(tmp_path / "cnt.bench")
        save_bench(binary_counter(2), path)
        assert main(["atpg", path]) == 2
        assert_one_error_line(capsys, path, "sequential")

    def test_cec_rejects_sequential_netlist(self, tmp_path, capsys):
        path = str(tmp_path / "cnt.bench")
        save_bench(binary_counter(2), path)
        assert main(["cec", path, path]) == 2
        assert_one_error_line(capsys, path, "sequential")

    @pytest.mark.parametrize("text, flags, needle", [
        (None, ["--output", "ghost"], "'ghost'"),
        ("INPUT(a)\nq = DFF(a)\n", [], "no outputs"),
    ], ids=["unknown-output", "no-outputs"])
    def test_bmc_rejects_missing_output(self, tmp_path, capsys, text,
                                        flags, needle):
        # Exit 1 would read as "counterexample found".
        path = tmp_path / "cnt.bench"
        if text is None:
            save_bench(binary_counter(3), str(path))
        else:
            path.write_text(text)
        assert main(["bmc", str(path)] + flags) == 2
        assert_one_error_line(capsys, str(path), needle)


class TestObservability:
    def sat_path(self, tmp_path):
        formula = random_ksat_at_ratio(12, ratio=3.0, seed=0)
        path = str(tmp_path / "sat.cnf")
        save_dimacs(formula, path)
        return path

    def test_solve_trace_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import validate_trace_file
        trace = str(tmp_path / "trace.jsonl")
        code = main(["solve", self.sat_path(tmp_path),
                     "--trace", trace])
        capsys.readouterr()
        assert code == 10
        count, problems = validate_trace_file(trace)
        assert count >= 2
        assert problems == []

    def test_solve_stats_json(self, tmp_path, capsys):
        import json
        code = main(["solve", self.sat_path(tmp_path), "--stats-json"])
        assert code == 10
        out = capsys.readouterr().out
        stats = json.loads(out.splitlines()[-1])
        assert stats["decisions"] >= 0
        assert "metrics" in stats
        assert stats["metrics"]["propagation_burst"]["count"] > 0

    def test_profile_renders_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        main(["solve", self.sat_path(tmp_path), "--trace", trace])
        capsys.readouterr()
        assert main(["profile", trace]) == 0
        out = capsys.readouterr().out
        assert "cdcl.solve" in out

    def test_profile_flags_schema_problems(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.jsonl")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("not json\n")
        assert main(["profile", bad]) == 1
        assert "schema problem" in capsys.readouterr().out

    def test_bmc_trace(self, tmp_path, capsys):
        from repro.obs import validate_trace_file
        source = str(tmp_path / "cnt.bench")
        save_bench(binary_counter(2), source)
        trace = str(tmp_path / "bmc.jsonl")
        main(["bmc", source, "--depth", "4", "--trace", trace])
        capsys.readouterr()
        count, problems = validate_trace_file(trace)
        assert problems == []
        assert count >= 2

    def test_atpg_trace(self, c17_path, tmp_path, capsys):
        from repro.obs import validate_trace_file
        trace = str(tmp_path / "atpg.jsonl")
        assert main(["atpg", c17_path, "--trace", trace]) == 0
        capsys.readouterr()
        count, problems = validate_trace_file(trace)
        assert problems == []
        assert count >= 2


class TestBadFlags:
    """An out-of-range numeric flag is an argparse usage error (exit
    2), never a library traceback or a silent nonsense answer."""

    BUDGETED = ["solve x.cnf", "atpg x.bench", "cec a.bench b.bench",
                "bmc x.bench"]

    @pytest.mark.parametrize("argv", [
        "solve x.cnf --portfolio -1",
        "cec a.bench b.bench --portfolio -2",
        "solve x.cnf --max-conflicts -3",
        "bmc x.bench --depth -1",
        "solve x.cnf --inprocess --inprocess-interval 0",
        "solve x.cnf --inprocess --inprocess-interval -5",
        "delay x.bench --max-paths 0",
        "serve --workers 0",
        "serve --queue-depth 0",
        "fuzz --max-vars 4",
        "fuzz --iterations 0",
        "fuzz --iterations -3",
        "fuzz --portfolio-every -1",
        "fuzz --progress-every -1",
    ] + [f"{command} --timeout -1" for command in BUDGETED]
      + [f"{command} --max-memory-mb -5" for command in BUDGETED])
    def test_out_of_range_is_usage_error(self, capsys, argv):
        argv = argv.split()
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"argument {argv[-2]}: must be >= " in err
        assert "Traceback" not in err


class TestCertification:
    def test_solve_certify_unsat(self, tmp_path, capsys):
        path = str(tmp_path / "unsat.cnf")
        save_dimacs(pigeonhole(4), path)
        code = main(["solve", path, "--certify",
                     "--proof-dir", str(tmp_path / "proofs")])
        out = capsys.readouterr().out
        assert code == 20
        assert "c certificate: proof verified" in out
        assert "s UNSATISFIABLE" in out
        import os
        assert os.path.exists(str(tmp_path / "proofs" / "unsat.drup"))

    def test_solve_certify_sat_audits_model(self, tmp_path, capsys):
        formula = random_ksat_at_ratio(10, ratio=3.0, seed=0)
        path = str(tmp_path / "sat.cnf")
        save_dimacs(formula, path)
        assert main(["solve", path, "--certify"]) == 10
        out = capsys.readouterr().out
        assert "c certificate: model verified" in out

    def test_solve_portfolio_certify_audits_model(self, tmp_path,
                                                  capsys):
        path = str(tmp_path / "sat.cnf")
        save_dimacs(random_ksat_at_ratio(40, 3.5, 3, seed=11), path)
        assert main(["solve", path, "--portfolio", "2",
                     "--certify"]) == 10
        out = capsys.readouterr().out
        assert "c certificate: model verified against the formula" in out

    def test_solve_certify_composes_with_preprocess(self, tmp_path,
                                                    capsys):
        # Proof-logged preprocessing shares the solver's DRUP stream,
        # so the combined proof verifies against the original formula.
        path = str(tmp_path / "unsat.cnf")
        save_dimacs(pigeonhole(3), path)
        assert main(["solve", path, "--certify", "--preprocess"]) == 20
        out = capsys.readouterr().out
        assert "c certificate: proof verified" in out

    def test_solve_certify_preprocess_refused_under_portfolio(
            self, tmp_path, capsys):
        # Portfolio workers each stream their own proof; they cannot
        # share one preprocessing prefix, so the combination refuses.
        path = str(tmp_path / "unsat.cnf")
        save_dimacs(pigeonhole(3), path)
        assert main(["solve", path, "--certify", "--preprocess",
                     "--portfolio", "2"]) == 2

    def test_solve_inprocess_certified(self, tmp_path, capsys):
        path = str(tmp_path / "unsat.cnf")
        save_dimacs(pigeonhole(4), path)
        assert main(["solve", path, "--certify", "--inprocess",
                     "--inprocess-interval", "10"]) == 20
        out = capsys.readouterr().out
        assert "c certificate: proof verified" in out

    def test_check_valid_proof(self, tmp_path, capsys):
        path = str(tmp_path / "unsat.cnf")
        proof = str(tmp_path / "proofs" / "unsat.drup")
        save_dimacs(pigeonhole(4), path)
        main(["solve", path, "--certify",
              "--proof-dir", str(tmp_path / "proofs")])
        capsys.readouterr()
        assert main(["check", path, proof]) == 0
        out = capsys.readouterr().out
        assert out.startswith("VALID:")
        assert "empty clause derived" in out

    def test_check_corrupted_proof_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "unsat.cnf")
        proof = str(tmp_path / "bogus.drup")
        save_dimacs(pigeonhole(3), path)
        with open(proof, "w") as fh:
            fh.write("999 0\n0\n")
        assert main(["check", path, proof]) == 1
        out = capsys.readouterr().out
        assert "INVALID: line 1:" in out

    def test_cec_certify(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.bench"), str(tmp_path / "b.bench")
        save_bench(ripple_carry_adder(3), a)
        save_bench(ripple_carry_adder(3), b)
        code = main(["cec", a, b, "--certify",
                     "--proof-dir", str(tmp_path / "proofs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "certificate: proof verified" in out

    def test_atpg_certify_reports_proofs(self, c17_path, capsys):
        code = main(["atpg", c17_path, "--certify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "redundancy proofs checked" in out

    def test_bmc_certify_per_depth(self, tmp_path, capsys):
        bench = str(tmp_path / "counter.bench")
        save_bench(binary_counter(2), bench)
        code = main(["bmc", bench, "--output", "rollover",
                     "--depth", "2", "--certify",
                     "--proof-dir", str(tmp_path / "proofs")])
        out = capsys.readouterr().out
        assert code == 0
        assert "certified: 3 per-depth unreachability proofs checked" \
            in out
        import os
        # One proof file for the whole sweep.
        assert os.listdir(str(tmp_path / "proofs")) == ["bmc.drup"]

    def test_bmc_certify_discrepant_exits_two(self, tmp_path, capsys,
                                              monkeypatch):
        import repro.apps.bmc as bmc
        from repro.verify.drat import FileProofSink

        class PlantedLemma(FileProofSink):
            """Writes a non-RUP unit just before depth 2's target."""

            def target(self, literals):
                if self.targets == 2:
                    self.add([9999])
                super().target(literals)

        monkeypatch.setattr(bmc, "FileProofSink", PlantedLemma)
        bench = str(tmp_path / "counter.bench")
        save_bench(binary_counter(3), bench)
        code = main(["bmc", bench, "--output", "rollover",
                     "--depth", "10", "--certify"])
        out = capsys.readouterr().out
        assert code == 2
        assert "certified: 2 per-depth unreachability proofs checked" \
            in out
        assert "DISCREPANT: depth 2 produced an UNSAT whose proof " \
            "failed the independent check (property proved only " \
            "through depth 1)" in out
        assert "counterexample" not in out

    def test_fuzz_clean_run(self, tmp_path, capsys):
        code = main(["fuzz", "--iterations", "5", "--seed", "3",
                     "--out-dir", str(tmp_path / "repros")])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 failure(s)" in out


class TestSolveExitCodes:
    def test_budget_unknown_is_exit_zero(self, tmp_path, capsys):
        path = str(tmp_path / "hard.cnf")
        save_dimacs(pigeonhole(6), path)
        assert main(["solve", path, "--max-conflicts", "2",
                     "--certify"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    def test_certification_failure_is_exit_thirty(self, tmp_path,
                                                  capsys, monkeypatch):
        # An UNSAT claim whose proof fails the independent check is
        # demoted to UNKNOWN -- and that UNKNOWN is distinguishable
        # from a benign budget UNKNOWN by exit code 30.
        from repro.verify.checker import CheckOutcome
        monkeypatch.setattr(
            "repro.verify.certificate.check_proof_file",
            lambda formula, path: CheckOutcome(
                valid=False, error="forced failure"))
        path = str(tmp_path / "unsat.cnf")
        save_dimacs(pigeonhole(3), path)
        assert main(["solve", path, "--certify"]) == 30
        out = capsys.readouterr().out
        assert "s UNKNOWN" in out
        assert "proof INVALID" in out

    def test_race_certification_failure_is_exit_thirty(
            self, tmp_path, capsys, monkeypatch):
        # Every worker's UNSAT proof fails: the race ends UNKNOWN
        # carrying the failed certificate, not as a budget UNKNOWN.
        from repro.verify.checker import CheckOutcome
        monkeypatch.setattr(
            "repro.verify.certificate.check_proof_file",
            lambda formula, path: CheckOutcome(
                valid=False, error="forced failure"))
        path = str(tmp_path / "unsat.cnf")
        save_dimacs(pigeonhole(3), path)
        assert main(["solve", path, "--certify", "--portfolio",
                     "2"]) == 30
        out = capsys.readouterr().out
        assert "s UNKNOWN" in out
        assert "proof INVALID" in out


class TestServiceCLI:
    @pytest.fixture
    def server_port(self):
        import asyncio
        import threading
        from repro.service import ServiceConfig
        from repro.service.server import run_server

        config = ServiceConfig(max_workers=1, poll_interval=0.01,
                               backoff_seconds=0.01)
        bound = {}
        ready = threading.Event()

        def _note(addr):
            bound["port"] = addr[1]
            ready.set()

        thread = threading.Thread(
            target=lambda: asyncio.run(
                run_server(config, port=0, ready=_note)),
            daemon=True)
        thread.start()
        assert ready.wait(10.0), "service did not come up"
        yield bound["port"]
        main(["submit", "--port", str(bound["port"]), "--op",
              "shutdown"])
        thread.join(10.0)

    def test_submit_sat_unsat_and_cache(self, tmp_path, capsys,
                                        server_port):
        port = str(server_port)
        sat = str(tmp_path / "sat.cnf")
        unsat = str(tmp_path / "unsat.cnf")
        save_dimacs(random_ksat_at_ratio(10, ratio=3.0, seed=0), sat)
        save_dimacs(pigeonhole(3), unsat)

        assert main(["submit", sat, "--port", port]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert out.splitlines()[-1].startswith("v ")

        assert main(["submit", unsat, "--port", port,
                     "--certify"]) == 20
        out = capsys.readouterr().out
        assert "s UNSATISFIABLE" in out
        assert "c certificate: proof verified" in out

        # Same formula again: served from the cache.
        assert main(["submit", sat, "--port", port,
                     "--id", "repeat"]) == 10
        assert "(cached)" in capsys.readouterr().out

    def test_submit_status_and_ping(self, capsys, server_port):
        import json
        port = str(server_port)
        assert main(["submit", "--port", port, "--op", "ping"]) == 0
        assert capsys.readouterr().out == "pong\n"
        assert main(["submit", "--port", port, "--op", "status"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["kind"] == "status"
        assert status["workers"]["max"] == 1

    @pytest.mark.parametrize("flag", ["--ping", "--status",
                                      "--shutdown"])
    def test_op_flags_are_gone(self, capsys, flag):
        # `--op` is the one way to send a non-submit op.
        with pytest.raises(SystemExit) as exit_info:
            main(["submit", flag])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ")

    def test_submit_overload_is_exit_two(self, tmp_path, capsys):
        # No server listening on a fresh ephemeral port: the client
        # reports the connection failure as an error, exit 2.
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        path = str(tmp_path / "sat.cnf")
        save_dimacs(random_ksat_at_ratio(8, ratio=3.0, seed=1), path)
        assert main(["submit", path, "--port",
                     str(free_port)]) == 2
        assert "error" in capsys.readouterr().err


class TestObservabilityCLI:
    """The PR-8 surface: submit --stream/--op, repro top, profile
    over merged server+worker traces, serve trace flags."""

    @pytest.fixture
    def obs_server(self, tmp_path):
        import asyncio
        import threading
        from repro.service import ServiceConfig
        from repro.service.server import run_server

        trace_path = str(tmp_path / "server.jsonl")
        worker_dir = str(tmp_path / "server.jsonl.workers")
        from repro.obs import JsonlSink, Tracer
        tracer = Tracer(JsonlSink(trace_path))
        tracer.emit_meta()
        config = ServiceConfig(max_workers=1, poll_interval=0.01,
                               progress_interval=0.0,
                               stream_interval=0.0,
                               worker_check_interval=16,
                               backoff_seconds=0.01)
        bound = {}
        ready = threading.Event()

        def _note(addr):
            bound["port"] = addr[1]
            ready.set()

        thread = threading.Thread(
            target=lambda: asyncio.run(
                run_server(config, port=0, ready=_note,
                           tracer=tracer,
                           worker_trace_dir=worker_dir)),
            daemon=True)
        thread.start()
        assert ready.wait(10.0), "service did not come up"
        yield {"port": bound["port"], "trace": trace_path,
               "worker_dir": worker_dir}
        main(["submit", "--port", str(bound["port"]), "--op",
              "shutdown"])
        thread.join(10.0)
        tracer.close()

    def test_streamed_submit_prints_progress_lines(self, tmp_path,
                                                   capsys,
                                                   obs_server):
        port = str(obs_server["port"])
        unsat = str(tmp_path / "ph.cnf")
        save_dimacs(pigeonhole(6), unsat)
        assert main(["submit", unsat, "--port", port, "--stream",
                     "--no-cache"]) == 20
        out = capsys.readouterr().out
        progress = [line for line in out.splitlines()
                    if line.startswith("c progress #")]
        assert progress, out
        assert "conflicts" in progress[0]
        # The terminal verdict still lands after the stream.
        assert out.splitlines()[-1] == "s UNSATISFIABLE"

    def test_op_metrics_prints_parseable_exposition(self, tmp_path,
                                                    capsys,
                                                    obs_server):
        from repro.obs import lint_exposition
        port = str(obs_server["port"])
        sat = str(tmp_path / "sat.cnf")
        save_dimacs(random_ksat_at_ratio(10, ratio=3.0, seed=0), sat)
        assert main(["submit", sat, "--port", port]) == 10
        capsys.readouterr()
        assert main(["submit", "--port", port, "--op",
                     "metrics"]) == 0
        text = capsys.readouterr().out
        assert lint_exposition(text) == []
        assert "service_solve_latency_seconds_bucket" in text
        assert "service_cache_hit_rate" in text

    def test_top_once_renders_dashboard(self, capsys, obs_server):
        port = str(obs_server["port"])
        assert main(["top", "--port", port, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top --" in out
        assert "workers" in out
        # --once never clears the screen (script-friendly).
        assert "\x1b[2J" not in out

    def test_profile_merges_server_and_worker_traces(self, tmp_path,
                                                     capsys,
                                                     obs_server):
        import glob
        import os
        port = str(obs_server["port"])
        unsat = str(tmp_path / "ph.cnf")
        save_dimacs(pigeonhole(5), unsat)
        assert main(["submit", unsat, "--port", port, "--id",
                     "traced", "--no-cache"]) == 20
        worker_files = sorted(glob.glob(
            os.path.join(obs_server["worker_dir"], "*.jsonl")))
        assert worker_files
        capsys.readouterr()
        assert main(["profile", obs_server["trace"]]
                    + worker_files) == 0
        out = capsys.readouterr().out
        assert "job timelines (server/worker correlated):" in out
        assert "traced" in out
        assert "attempt 1: solve" in out

    def test_top_unreachable_server_is_exit_two(self, capsys):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
        probe.close()
        assert main(["top", "--port", str(free_port), "--once"]) == 2
        assert "error" in capsys.readouterr().err
