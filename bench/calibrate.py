"""Machine-speed calibration for noisy shared hosts.

On a shared virtual machine the same solve can take twice as long from
one minute to the next (php-8 with identical search counters measured
2.0-3.7 s CPU within one 10-run set): a neighbour's load takes the
core's caches and memory bandwidth, and every operation slows with it.
The benchmark therefore reports times in seconds at a reference speed.

A :class:`Sampler` is a child process pinned to the CPU the measured
work runs on.  Every :data:`PERIOD_S` it wakes, times two fixed
pure-Python kernels and sleeps again:

* ``compute`` -- one round of two-watched-literal unit propagation over
  a small fixed random 3-SAT database that stays in cache: the same
  kind of interpreter work as the solver's hot loop;
* ``memory`` -- a chain of dependent loads through a 16 MB array, so
  it pays the cache misses and memory latency the solver's larger
  databases pay.

Sampling *during* the work, on the same core, tracks the slowdowns a
measured operation actually met (they come and go within seconds).  A
time measured over ``[start, end]`` is multiplied by :func:`scale`:
``(REFERENCE_S / k) ** power``, where ``k`` is the median, across the
samples of that window, of the geometric mean of the two kernel times.
Either kernel alone follows the solver's slowdowns only partly: the
compute kernel swings more than the solver, the memory kernel less.
Their geometric mean tracks every operation of the benchmark closely
(correlation 0.93-0.98 over 320 operations of 8 kinds in ten minutes
on the reference machine), but the operations swing by its 1.09-1.28th
power (1.22 pooled), hence :data:`POWER` for the batch workloads
(the service's power is in :mod:`service`).  The kernels belong to the
benchmark, so a change to the program cannot change their work.  The
program's cache footprint moves them only a little: next to the eight
operations the memory kernel's time relative to the compute kernel's
stayed within 0.79-1.02 (within 0.95-1.02 for six of them), so an
operation's own footprint can shift its scale by a few percent, the
same shift in every run.  Raw seconds and the scales are kept next to
the scaled times in every result.
"""

from __future__ import annotations

import array
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Sequence

#: Geometric mean of the two kernel times on the reference machine
#: (2-vCPU Xeon VM at 2.0 GHz, CPython 3.11) when its host is quiet,
#: so reported seconds are close to raw ones there.
REFERENCE_S = 0.0016
#: How much harder the batch workloads' operations swing than the
#: kernels (log-log slope measured on the reference machine; see
#: above).  The service passes its own power to :func:`scale`.
POWER = 1.2
#: Sampling period: about 5-10% of the pinned CPU goes to the kernels.
PERIOD_S = 0.04
#: A window with fewer samples inside uses the nearest this many.
MIN_SAMPLES = 5

_VARS = 150
_CLAUSES = 600
_CHAIN_BITS = 21            # 2**21 eight-byte slots: 16 MB
_CHAIN_STEPS = 10_000

_rng = random.Random(12345)
_DATABASE = [[v if _rng.random() < 0.5 else -v
              for v in _rng.sample(range(1, _VARS + 1), 3)]
             for _ in range(_CLAUSES)]


def compute_kernel(seed: int = 0) -> int:
    """One round of unit propagation over the fixed database; returns
    the number of implied literals."""
    clauses = [list(c) for c in _DATABASE]
    watches = {}
    for index, clause in enumerate(clauses):
        watches.setdefault(-clause[0], []).append(index)
        watches.setdefault(-clause[1], []).append(index)
    value = [0] * (_VARS + 1)
    trail: List[int] = []
    order = list(range(1, _VARS + 1))
    random.Random(seed).shuffle(order)
    implied = 0
    for var in order:
        if value[var]:
            continue
        lit = var if (var + seed) % 2 else -var
        value[var] = 1 if lit > 0 else -1
        trail.append(lit)
        head = len(trail) - 1
        conflict = False
        while head < len(trail) and not conflict:
            false_lit = -trail[head]
            head += 1
            watching = watches.get(-false_lit, [])
            keep: List[int] = []
            for position, index in enumerate(watching):
                clause = clauses[index]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                first_value = value[abs(first)] * (1 if first > 0 else -1)
                if first_value == 1:
                    keep.append(index)
                    continue
                for k in range(2, len(clause)):
                    lit_k = clause[k]
                    if value[abs(lit_k)] * (1 if lit_k > 0 else -1) != -1:
                        clause[1], clause[k] = lit_k, clause[1]
                        watches.setdefault(-lit_k, []).append(index)
                        break
                else:
                    keep.append(index)
                    if first_value == -1:
                        conflict = True
                        keep.extend(watching[position + 1:])
                        break
                    implied += 1
                    value[abs(first)] = 1 if first > 0 else -1
                    trail.append(first)
            watches[-false_lit] = keep
        if conflict:
            for undo in trail:
                value[abs(undo)] = 0
            trail = []
    return implied


def make_chain() -> array.array:
    """A single cycle through 2**_CHAIN_BITS slots, in a full-period
    linear-congruential order, so consecutive loads land far apart."""
    mask = (1 << _CHAIN_BITS) - 1
    return array.array("q", ((1103515245 * i + 12345) & mask
                             for i in range(mask + 1)))


def memory_kernel(chain: array.array, start: int = 0) -> int:
    """:data:`_CHAIN_STEPS` dependent loads along *chain*."""
    slot = start
    for _ in range(_CHAIN_STEPS):
        slot = chain[slot]
    return slot


def _sample_loop() -> None:
    """Sampler child: time both kernels every :data:`PERIOD_S` until
    standard input closes, then print the samples as JSON."""
    chain = make_chain()
    samples = []
    print("ready", flush=True)
    slot = 0
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        started = time.perf_counter()
        cpu0 = time.thread_time()
        compute_kernel(len(samples) % 7)
        cpu1 = time.thread_time()
        slot = memory_kernel(chain, slot)
        cpu2 = time.thread_time()
        samples.append((started, time.perf_counter(), cpu1 - cpu0,
                        cpu2 - cpu1))
    json.dump(samples, sys.stdout)


class Sampler:
    """A running sampler process; inherits the caller's CPU affinity.

    :meth:`stop` returns the samples, each ``(start, end, compute_s,
    memory_s)`` with ``time.perf_counter`` stamps (a system-wide clock,
    comparable across processes).
    """

    def __init__(self) -> None:
        self.samples: Optional[List[Sequence[float]]] = None
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--sample"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("calibration sampler did not start")

    def stop(self) -> List[Sequence[float]]:
        if self.samples is None:
            self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.proc.stdout.close()
            self.proc.wait()
            self.samples = json.loads(out) if out else []
        return self.samples


def scale(samples: Sequence[Sequence[float]], start: float, end: float,
          power: float = POWER) -> float:
    """Factor from seconds measured over ``[start, end]`` to seconds
    at the reference speed, for work that swings by the kernels'
    *power*."""
    inside = [s for s in samples if s[0] >= start and s[1] <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        inside = sorted(samples, key=lambda s: abs(s[0] - middle))
        inside = inside[:MIN_SAMPLES]
    if not inside:
        raise ValueError("no calibration samples")
    kernel = statistics.median(math.sqrt(s[2] * s[3]) for s in inside)
    return (REFERENCE_S / kernel) ** power


def busy(samples: Sequence[Sequence[float]], start: float,
         end: float) -> float:
    """CPU time the samplers spent inside ``[start, end]`` (a sample
    straddling an end counts pro rata): on a CPU shared with the
    measured work, time the work could not run."""
    total = 0.0
    for s in samples:
        overlap = min(s[1], end) - max(s[0], start)
        if overlap > 0:
            total += (s[2] + s[3]) * overlap / max(s[1] - s[0], 1e-9)
    return total


if __name__ == "__main__":
    if sys.argv[1:] != ["--sample"]:
        sys.exit("usage: calibrate.py --sample (started by Sampler)")
    _sample_loop()
