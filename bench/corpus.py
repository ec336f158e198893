"""Deterministic benchmark corpus: families x sizes x seeds.

Every input the benchmark feeds the program is generated here, locally,
from the workload name and ``--seed`` (no downloads).  The same seed
gives byte-identical inputs; the corpus hash recorded in every result
lets two runs show they measured the same inputs.

Each workload mixes two kinds of instance:

* *anchors* -- fixed instances (fixed generator seeds) chosen because
  their cost is what a change to the engine should move: pigeonhole,
  multiplier self-miters, threshold random 3-SAT, ATPG circuits.
  Their names, bytes and search counters are the same for every seed,
  so per-instance CPU and the ``cdcl.*`` counters compare directly
  across runs.
* *seeded* inputs -- drawn from families whose cost concentrates
  (large under-constrained random 3-SAT, a variable-scrambled small
  adder miter, ATPG don't-care completion, the service's job order,
  tenants and resubmissions), so the seed varies the
  inputs without swamping the run-to-run spread.
  Random 3-SAT near the threshold is deliberately *not* seeded: its
  solve time varies 0.3x-3x between draws of the same size.

Run ``python3 bench/corpus.py --workload NAME --seed N --list`` to
print every instance's name, family, size, bytes and DIMACS/.bench
sha256.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("unsat-certified", "sat-mixed", "eda-apps", "service-mixed")

#: Service load shape.  The open-loop rate is a constant, not derived
#: per run: at 10 req/s a 2-worker server runs at about half its
#: closed-loop capacity on a slow host (20-35 jobs/s), so queueing
#: shows in the latency tail without a growing backlog.
SERVICE_RATE = 10.0
#: Share of ``--seconds`` spent in the open-loop phase A: 120 jobs at
#: 16 s.
SERVICE_OPEN_SHARE = 0.75
#: Closed-loop phase B jobs per second of ``--seconds``: 128 at 16 s.
SERVICE_CLOSED_JOBS_PER_S = 8.0
#: Phase A mix per block of 20 jobs: fresh, permuted resubmissions
#: (cache hits), certified UNSAT jobs.
SERVICE_BLOCK = (17, 2, 1)
#: A resubmission repeats a job at least this many slots older, so the
#: original has finished and its result sits in the cache.
SERVICE_RESUBMIT_LAG = 20
SERVICE_TENANTS = 3
SERVICE_CONNECTIONS = 2
#: Measured window of a ``--smoke`` run.
SMOKE_SECONDS = 2.0


def default_seconds(smoke: bool = False) -> float:
    """The measured window when none is given: ``run_seconds`` from
    ``BENCHMARK.json`` (:data:`SMOKE_SECONDS` with *smoke*)."""
    if smoke:
        return SMOKE_SECONDS
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as handle:
        return float(json.load(handle)["run_seconds"])


@dataclass
class Instance:
    """One benchmark input: a DIMACS/.bench text plus how to run it."""

    name: str
    family: str
    #: "cnf" (DIMACS), "atpg" / "bmc" (.bench) or "job" (service).
    kind: str
    text: str
    #: Known verdict ("SAT" / "UNSAT"), or None when only the
    #: certificate or audit can tell.
    expect: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    vars: int = 0
    clauses: int = 0

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()

    @property
    def bytes(self) -> int:
        return len(self.text.encode("utf-8"))

    def describe(self) -> Dict[str, Any]:
        return {"name": self.name, "family": self.family,
                "kind": self.kind, "vars": self.vars,
                "clauses": self.clauses, "bytes": self.bytes,
                "sha256": self.sha256, "expect": self.expect,
                "params": self.params}


def _use_src() -> None:
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _derive(seed: int, slot: int) -> int:
    """Independent generator seed for one seeded slot of a workload."""
    return seed * 1_000_003 + slot


def scramble(formula, seed: int):
    """*formula* with variables renamed, polarities flipped and
    clause/literal order shuffled (SAT-competition style scrambling):
    the same problem in different names."""
    from repro.cnf.formula import CNFFormula
    rng = random.Random(seed)
    perm = list(range(1, formula.num_vars + 1))
    rng.shuffle(perm)
    sign = [1] + [rng.choice((1, -1)) for _ in perm]
    clauses = []
    for clause in formula.clauses:
        lits = [perm[abs(lit) - 1] * sign[abs(lit)] * (1 if lit > 0 else -1)
                for lit in clause]
        rng.shuffle(lits)
        clauses.append(lits)
    rng.shuffle(clauses)
    return CNFFormula(formula.num_vars, clauses)


def _permuted(formula, seed: int):
    """Clause and literal order shuffled, variable numbers kept: the
    service's canonical cache key maps it to the original."""
    from repro.cnf.formula import CNFFormula
    rng = random.Random(seed)
    clauses = [list(clause) for clause in formula.clauses]
    for lits in clauses:
        rng.shuffle(lits)
    rng.shuffle(clauses)
    return CNFFormula(formula.num_vars, clauses)


def _cnf(name: str, family: str, formula, expect: Optional[str] = None,
         kind: str = "cnf", **params) -> Instance:
    from repro.cnf.dimacs import write_dimacs
    return Instance(name, family, kind, write_dimacs(formula), expect,
                    dict(params), formula.num_vars, len(formula.clauses))


def _circuit(name: str, family: str, circuit, kind: str,
             expect: Optional[str] = None, **params) -> Instance:
    from repro.circuits.bench_format import write_bench
    from repro.circuits.tseitin import encode_circuit
    cnf = encode_circuit(circuit).formula
    return Instance(name, family, kind, write_bench(circuit), expect,
                    dict(params), cnf.num_vars, len(cnf.clauses))


def _adder_miter(width: int):
    from repro.circuits.generators import (carry_select_adder,
                                           ripple_carry_adder)
    from repro.circuits.tseitin import encode_miter
    return encode_miter(ripple_carry_adder(width),
                        carry_select_adder(width)).formula


def _self_miter(width: int):
    from repro.circuits.generators import array_multiplier
    from repro.circuits.tseitin import encode_miter
    return encode_miter(array_multiplier(width),
                        array_multiplier(width)).formula


def _mutant_miter(circuit, mutation_seed: int):
    from repro.apps.equivalence import mutate_circuit
    from repro.circuits.tseitin import encode_miter
    return encode_miter(circuit,
                        mutate_circuit(circuit, seed=mutation_seed)).formula


def _unsat_certified(seed: int, smoke: bool) -> List[Instance]:
    from repro.cnf.generators import pigeonhole, random_ksat_at_ratio
    php, mul, add, scrambled, rk_n = ((6, 3, 12, 8, 60) if smoke
                                      else (8, 5, 48, 32, 150))
    rk = (random_ksat_at_ratio(rk_n, 6.0, 3, seed=0) if smoke
          else random_ksat_at_ratio(rk_n, 4.26, 3, seed=0))
    return [
        _cnf(f"php-{php}", "pigeonhole", pigeonhole(php), "UNSAT"),
        _cnf(f"miter-mul{mul}-self", "multiplier-self-miter",
             _self_miter(mul), "UNSAT"),
        _cnf(f"rk{rk_n}-unsat-s0", "random-3sat-threshold", rk, "UNSAT"),
        _cnf(f"miter-add{add}", "adder-miter", _adder_miter(add), "UNSAT"),
        # The cheapest instance carries the seed, so the seed varies
        # the inputs without moving the median instance.
        _cnf(f"miter-add{scrambled}-scrambled", "adder-miter-scrambled",
             scramble(_adder_miter(scrambled), _derive(seed, 0)), "UNSAT"),
    ]


def _sat_mixed(seed: int, smoke: bool) -> List[Instance]:
    from repro.circuits.generators import array_multiplier, ripple_carry_adder
    from repro.cnf.generators import random_ksat_at_ratio
    easy, add, mul = (2000, 32, 6) if smoke else (20000, 256, 12)
    # Threshold anchors: fixed draws measured SAT and non-trivial
    # (0.3-1.5 s at the parent commit).
    anchors = ((100, 108), (150, 103)) if smoke else ((150, 103), (200, 105))
    out = [_cnf(f"rk-easy-{easy}-{tag}", "random-3sat-easy",
                random_ksat_at_ratio(easy, 2.5, 3, seed=_derive(seed, slot)),
                "SAT")
           for slot, tag in enumerate("ab")]
    out.append(_cnf(f"miter-add{add}-mutant", "adder-mutant-miter",
                    _mutant_miter(ripple_carry_adder(add), 1), "SAT"))
    out.append(_cnf(f"miter-mul{mul}-mutant", "multiplier-mutant-miter",
                    _mutant_miter(array_multiplier(mul), 1), "SAT"))
    for n, fixed in anchors:
        out.append(_cnf(f"rk{n}-sat-s{fixed}", "random-3sat-threshold",
                        random_ksat_at_ratio(n, 4.26, 3, seed=fixed), "SAT"))
    return out


def _eda_apps(seed: int, smoke: bool) -> List[Instance]:
    from repro.circuits import generators as gen
    if smoke:
        atpg = (("alu2", gen.alu(2)), ("mux2", gen.mux_tree(2)),
                ("cmp4", gen.comparator(4)), ("mul2", gen.array_multiplier(2)))
        counters = ((3, 10),)
    else:
        atpg = (("alu8", gen.alu(8)), ("mux4", gen.mux_tree(4)),
                ("cmp16", gen.comparator(16)),
                ("mul4", gen.array_multiplier(4)))
        counters = ((6, 70),)
    out = [_circuit(f"atpg-{name}", "atpg", circuit, "atpg",
                    atpg_seed=_derive(seed, slot))
           for slot, (name, circuit) in enumerate(atpg)]
    for width, depth in counters:
        # The rollover output first pulses at frame 2^w - 1 (enable
        # held high), so the expected counterexample depth is exact.
        out.append(_circuit(f"bmc-cnt{width}", "bmc-counter",
                            gen.binary_counter(width), "bmc", "SAT",
                            output="rollover", max_depth=depth,
                            failure_depth=(1 << width) - 1))
    return out


def service_counts(seconds: float) -> Dict[str, int]:
    """Jobs in the open-loop phase A (whole blocks of
    :data:`SERVICE_BLOCK`) and the closed-loop phase B."""
    block = sum(SERVICE_BLOCK)
    return {"A": block * max(1, round(SERVICE_RATE * SERVICE_OPEN_SHARE
                                      * seconds / block)),
            "B": max(8, round(SERVICE_CLOSED_JOBS_PER_S * seconds))}


def _service_modes(rng: random.Random, count: int) -> List[str]:
    """Phase A's job kinds, one shuffled :data:`SERVICE_BLOCK` per 20
    jobs.  A resubmission needs an original at least
    :data:`SERVICE_RESUBMIT_LAG` slots older, so the first ones are
    fresh jobs instead; the counts of each kind are the same for every
    seed."""
    block = (["fresh"] * SERVICE_BLOCK[0] + ["resubmit"] * SERVICE_BLOCK[1]
             + ["certify"] * SERVICE_BLOCK[2])
    modes: List[str] = []
    while len(modes) < count:
        order = list(block)
        rng.shuffle(order)
        modes += order
    return ["fresh" if mode == "resubmit" and k < SERVICE_RESUBMIT_LAG
            else mode for k, mode in enumerate(modes[:count])]


def _service_mixed(seed: int, smoke: bool, seconds: float) -> List[Instance]:
    """The job stream.  Fresh and certified jobs come from fixed pools
    of formulas, the same for every seed; the seed decides their order,
    tenants, connections and which jobs are resubmitted.  The slowest
    ~10% of jobs set p90, and seeded draws would make p90 a property of
    the seed rather than of the server."""
    from repro.cnf.dimacs import parse_dimacs
    from repro.cnf.generators import random_ksat_at_ratio
    rng = random.Random(_derive(seed, 0))
    counts = service_counts(seconds)
    fresh_n, certify_n = (40, 30) if smoke else (100, 50)
    modes = {"A": _service_modes(rng, counts["A"]),
             "B": ["fresh"] * counts["B"]}
    # Generator seeds of each pool: fresh jobs of phase A, of phase B,
    # and certified jobs; each pool is used up exactly.
    pool = {("A", "fresh"): 0, ("B", "fresh"): 100_000,
            ("A", "certify"): 200_000}
    pool = {key: list(range(base, base + modes[key[0]].count(key[1])))
            for key, base in pool.items()}
    for indices in pool.values():
        rng.shuffle(indices)
    jobs: List[Instance] = []
    fresh: List[Instance] = []
    for phase in ("A", "B"):
        for k, mode in enumerate(modes[phase]):
            slot = len(jobs) + 1
            name = f"{phase}{k:04d}"
            params = {"phase": phase, "tenant": f"t{k % SERVICE_TENANTS}",
                      "conn": k % SERVICE_CONNECTIONS,
                      "certify": mode == "certify"}
            if phase == "A":
                params["due"] = k / SERVICE_RATE
            if mode == "resubmit":
                original = rng.choice(
                    [job for job in fresh
                     if int(job.name[1:]) <= k - SERVICE_RESUBMIT_LAG])
                formula = _permuted(parse_dimacs(original.text),
                                    _derive(seed, slot))
                params["of"] = original.name
                job = _cnf(name, "job-resubmit", formula, kind="job",
                           **params)
            elif mode == "certify":
                formula = random_ksat_at_ratio(
                    certify_n, 7.0, 3, seed=pool[phase, mode].pop())
                job = _cnf(name, "job-certify", formula, kind="job",
                           **params)
            else:
                formula = random_ksat_at_ratio(
                    fresh_n, 4.0, 3, seed=pool[phase, mode].pop())
                job = _cnf(name, "job-fresh", formula, kind="job",
                           **params)
                fresh.append(job)
            jobs.append(job)
    return jobs


def build(workload: str, seed: int, smoke: bool = False,
          seconds: Optional[float] = None) -> List[Instance]:
    """The instance list of *workload* for *seed* (deterministic).

    Only the service corpus depends on *seconds* (default:
    :func:`default_seconds`, as in ``run.py``): its job schedule covers
    the whole measured window.
    """
    _use_src()
    if seconds is None:
        seconds = default_seconds(smoke)
    if workload == "unsat-certified":
        return _unsat_certified(seed, smoke)
    if workload == "sat-mixed":
        return _sat_mixed(seed, smoke)
    if workload == "eda-apps":
        return _eda_apps(seed, smoke)
    if workload == "service-mixed":
        return _service_mixed(seed, smoke, seconds)
    raise ValueError(f"unknown workload {workload!r}")


def corpus_hash(instances: List[Instance]) -> str:
    """sha256 over every instance's name, text hash and parameters."""
    digest = hashlib.sha256(b"repro-bench-corpus-v1")
    for inst in instances:
        digest.update(json.dumps(
            [inst.name, inst.family, inst.kind, inst.sha256, inst.expect,
             inst.params], sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


_SUFFIX = {"cnf": ".cnf", "job": ".cnf", "atpg": ".bench", "bmc": ".bench"}


def write(instances: List[Instance], directory: str) -> str:
    """Write every instance file plus ``manifest.json`` into
    *directory*; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for inst in instances:
        path = os.path.join(directory, inst.name + _SUFFIX[inst.kind])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inst.text)
        entry = inst.describe()
        entry["path"] = path
        entries.append(entry)
    manifest = os.path.join(directory, "manifest.json")
    with open(manifest, "w", encoding="utf-8") as handle:
        json.dump(entries, handle, indent=1)
    return manifest


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: BENCHMARK.json "
                             "run_seconds, as in run.py)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--list", action="store_true",
                        help="print one line per instance")
    args = parser.parse_args(argv)
    instances = build(args.workload, args.seed, args.smoke, args.seconds)
    if args.list:
        print(f"{'name':28s} {'family':26s} {'vars':>7s} {'clauses':>8s} "
              f"{'bytes':>9s} sha256")
        for inst in instances:
            print(f"{inst.name:28s} {inst.family:26s} {inst.vars:7d} "
                  f"{inst.clauses:8d} {inst.bytes:9d} {inst.sha256}")
    print(f"corpus {args.workload} seed={args.seed} "
          f"instances={len(instances)} hash={corpus_hash(instances)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
