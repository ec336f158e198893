"""Crash-recoverable search state (repro.runtime.checkpoint).

Covers the checksummed wire format (round-trip, every corruption
class rejected), size-bounded export (derivation-order prefix), the
RUP import gate (unsound clauses dropped, proofs stay checkable), the
CDCL export/resume hooks (stats counters, trace events, and -- the
acceptance bar -- a warm-restarted attempt whose DRUP proof still
passes the independent checker), and supervisor-level warm respawn
under the scripted mid-job kill fault, including the corrupt-blob
demotion to a cold restart.
"""

from __future__ import annotations

import pytest

from repro.cnf.formula import CNFFormula
from repro.cnf.generators import pigeonhole
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import (
    CheckpointError,
    SearchCheckpoint,
    filter_rup_imports,
    load_checkpoint,
    try_load_checkpoint,
)
from repro.runtime.faults import FaultPlan, corrupt_blob
from repro.runtime.supervisor import Supervisor
from repro.solvers.cdcl import CDCLSolver
from repro.solvers.portfolio import PortfolioConfig
from repro.solvers.result import Status
from repro.verify.checker import check_proof_steps
from repro.verify.drat import MemoryProofSink


def _sample() -> SearchCheckpoint:
    return SearchCheckpoint(
        num_vars=5,
        clauses=[([1, -2], 2, 1.0), ([3, 4, -5], 3, 0.5)],
        units=[2],
        phases={1: True, 3: False},
        activities={1: 1.0, 4: 0.25},
        conflicts=17,
        restarts=3)


class TestWireFormat:
    def test_round_trip(self):
        ckpt = _sample()
        loaded = load_checkpoint(ckpt.serialize())
        assert loaded.num_vars == ckpt.num_vars
        assert loaded.clauses == [([1, -2], 2, 1.0),
                                  ([3, 4, -5], 3, 0.5)]
        assert loaded.units == [2]
        assert loaded.phases == {1: True, 3: False}
        assert loaded.activities == {1: 1.0, 4: 0.25}
        assert (loaded.conflicts, loaded.restarts) == (17, 3)

    def test_truncation_rejected(self):
        blob = _sample().serialize()
        with pytest.raises(CheckpointError):
            load_checkpoint(blob[:-3])
        assert try_load_checkpoint(blob[:-3]) is None

    def test_single_bit_flip_rejected(self):
        blob = _sample().serialize()
        assert try_load_checkpoint(corrupt_blob(blob)) is None

    def test_bad_magic_rejected(self):
        blob = _sample().serialize()
        assert try_load_checkpoint(b"nope" + blob[4:]) is None
        assert try_load_checkpoint(b"") is None
        assert try_load_checkpoint(None) is None

    def test_schema_violations_rejected(self):
        # A structurally wrong payload with a *valid* digest must
        # still be rejected: checksums catch corruption, the schema
        # check catches a malicious or buggy producer.
        import hashlib
        import json
        body = json.dumps({"num_vars": 3, "clauses": [[[0], 1, 1.0]],
                           "units": [], "phases": {},
                           "activities": {}, "conflicts": 0,
                           "restarts": 0},
                          sort_keys=True,
                          separators=(",", ":")).encode()
        digest = hashlib.sha256(body).hexdigest()[:16].encode()
        blob = b"repro-ckpt1 " + digest + b" " + body
        assert try_load_checkpoint(blob) is None

    def test_bounded_serialize_keeps_derivation_prefix(self):
        ckpt = SearchCheckpoint(
            num_vars=50,
            clauses=[([i, -(i + 1)], 2, 1.0) for i in range(1, 40)])
        blob = ckpt.serialize_bounded(max_bytes=600)
        assert blob is not None and len(blob) <= 600
        trimmed = load_checkpoint(blob)
        kept = len(trimmed.clauses)
        assert 0 < kept < 39
        # Prefix, not a sample: later clauses may depend on earlier
        # ones for RUP admission.
        assert trimmed.clauses == ckpt.clauses[:kept]
        # The original is untouched by the bounding loop.
        assert len(ckpt.clauses) == 39


class TestRupImportGate:
    def test_drops_clauses_that_are_not_consequences(self):
        formula = CNFFormula(2)
        formula.add_clause([1, 2])
        ckpt = SearchCheckpoint(
            num_vars=2,
            clauses=[([-1], 1, 1.0)],    # satisfiable-but-unimplied
            units=[])
        clauses, units, dropped = filter_rup_imports(formula, ckpt)
        assert clauses == [] and units == []
        assert dropped == 1

    def test_admits_genuine_consequences_in_order(self):
        formula = CNFFormula(3)
        formula.add_clause([1, 2])
        formula.add_clause([-2, 3])
        ckpt = SearchCheckpoint(
            num_vars=3,
            clauses=[([1, 3], 2, 1.0)],  # resolvent: RUP
            units=[])
        clauses, units, dropped = filter_rup_imports(formula, ckpt)
        assert [lits for lits, _, _ in clauses] == [[1, 3]]
        assert dropped == 0

    def test_out_of_range_vars_dropped(self):
        formula = CNFFormula(2)
        formula.add_clause([1, 2])
        ckpt = SearchCheckpoint(num_vars=2,
                                clauses=[([1, 9], 2, 1.0)],
                                units=[7])
        clauses, units, dropped = filter_rup_imports(formula, ckpt)
        assert clauses == [] and units == []
        assert dropped == 2


class TestSolverExportResume:
    def test_export_captures_learned_state_and_counts(self):
        formula = pigeonhole(5)
        solver = CDCLSolver(formula, max_conflicts=40)
        assert solver.solve().status is Status.UNKNOWN
        ckpt = solver.export_checkpoint()
        assert ckpt.num_vars == formula.num_vars
        assert len(ckpt.clauses) > 0
        assert ckpt.conflicts == solver.stats.conflicts
        assert solver.stats.checkpoint_exports == 1
        # Blob round-trips through the wire format.
        resumed = load_checkpoint(ckpt.serialize())
        assert len(resumed.clauses) == len(ckpt.clauses)

    def test_resumed_unsat_proof_passes_independent_checker(self):
        # The tentpole acceptance: kill an attempt mid-search, resume
        # from its checkpoint, and the resumed attempt's certificate
        # must stand on its own -- imported clauses replayed into the
        # proof stream in derivation order, all RUP.
        formula = pigeonhole(5)
        first = CDCLSolver(formula, max_conflicts=40)
        assert first.solve().status is Status.UNKNOWN
        blob = first.export_checkpoint().serialize()

        ckpt = try_load_checkpoint(blob)
        assert ckpt is not None
        second = CDCLSolver(formula, resume_from=ckpt)
        sink = second.proof = MemoryProofSink()
        result = second.solve()
        assert result.status is Status.UNSATISFIABLE
        assert second.stats.warm_resumes == 1
        assert second.stats.checkpoint_imported_clauses > 0
        outcome = check_proof_steps(formula, sink.events)
        assert outcome.valid, outcome.reason

    def test_corrupt_blob_means_cold_start(self):
        formula = pigeonhole(5)
        first = CDCLSolver(formula, max_conflicts=40)
        first.solve()
        blob = corrupt_blob(first.export_checkpoint().serialize())
        assert try_load_checkpoint(blob) is None

    def test_num_vars_mismatch_is_ignored_not_fatal(self):
        formula = pigeonhole(4)
        ckpt = SearchCheckpoint(num_vars=3,
                                clauses=[([1], 1, 1.0)])
        solver = CDCLSolver(formula, resume_from=ckpt)
        result = solver.solve()
        assert result.status is Status.UNSATISFIABLE
        assert solver.stats.checkpoint_imported_clauses == 0

    def test_checkpoint_trace_events_validate(self, tmp_path):
        from repro.obs.trace import (JsonlSink, Tracer,
                                     validate_trace_file)
        formula = pigeonhole(5)
        first = CDCLSolver(formula, max_conflicts=40)
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlSink(path))
        tracer.emit_meta()
        first.tracer = tracer
        first.solve()
        ckpt = first.export_checkpoint()
        second = CDCLSolver(formula, resume_from=ckpt)
        second.tracer = tracer
        assert second.solve().status is Status.UNSATISFIABLE
        tracer.close()
        count, problems = validate_trace_file(path)
        assert problems == []
        import json
        names = [json.loads(line)["name"]
                 for line in open(path, encoding="utf-8")]
        assert "checkpoint.export" in names
        assert "checkpoint.resume" in names


class TestSupervisorWarmRespawn:
    def _config(self):
        return PortfolioConfig(name="vsids-luby", heuristic="vsids",
                               restart="luby", phase_saving=True)

    @pytest.mark.slow
    def test_killed_worker_respawns_warm(self):
        # 100 cooperative checkpoints: late enough that the dying
        # attempt has learned clauses for the respawn to import.
        plan = FaultPlan(kills={0: 1}, kill_after_checkpoints=100)
        supervisor = Supervisor(
            [self._config()], budget=Budget(wall_seconds=120.0),
            fault_plan=plan, progress_interval=0.05,
            backoff_seconds=0.05)
        report = supervisor.run(pigeonhole(7))
        assert report.result.status is Status.UNSATISFIABLE
        assert report.workers[0].attempts == 2
        assert report.result.stats.warm_resumes >= 1
        assert report.result.stats.checkpoint_imported_clauses > 0

    @pytest.mark.slow
    def test_corrupt_checkpoint_demotes_to_cold(self):
        plan = FaultPlan(kills={0: 1}, corrupt_checkpoints={0: 2},
                         kill_after_checkpoints=2)
        supervisor = Supervisor(
            [self._config()], budget=Budget(wall_seconds=120.0),
            fault_plan=plan, progress_interval=0.05,
            backoff_seconds=0.05)
        report = supervisor.run(pigeonhole(7))
        # The job is never lost: the respawn runs cold and finishes.
        assert report.result.status is Status.UNSATISFIABLE
        assert report.workers[0].attempts == 2
        assert report.result.stats.warm_resumes == 0

    def test_kill_fires_without_progress_snapshots(self):
        # The kill counts cooperative checkpoints, not progress sends,
        # so it must fire with progress snapshots switched off too.
        plan = FaultPlan(kills={0: 1}, kill_after_checkpoints=2)
        supervisor = Supervisor(
            [self._config()], budget=Budget(wall_seconds=120.0),
            fault_plan=plan, progress_interval=None,
            backoff_seconds=0.05)
        report = supervisor.run(pigeonhole(6))
        assert report.result.status is Status.UNSATISFIABLE
        assert report.workers[0].attempts == 2
        assert report.total_respawns == 1
