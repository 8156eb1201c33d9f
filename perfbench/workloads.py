"""Inputs of the benchmark: case pools, seeded task streams, renumbered models.

Everything here is a pure function of the seed (and of the committed case
lists), so the same seed always yields byte-identical inputs and the
program under test only ever receives the generated models.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("paper-medium", "quick-batch", "serve-mixed", "portfolio-medium")


def _medium_factories() -> Dict[str, Callable[[], object]]:
    from repro.benchgen.counters import counter_overflow, parity_counter
    from repro.benchgen.datapath import gray_counter
    from repro.benchgen.fifo import fifo_controller
    from repro.benchgen.registers import johnson_counter, token_ring

    return {
        "parity_w5_safe": lambda: parity_counter(5, safe=True),
        "parity_w6_safe": lambda: parity_counter(6, safe=True),
        "johnson_w16_safe": lambda: johnson_counter(16, safe=True),
        "johnson_w20_safe": lambda: johnson_counter(20, safe=True),
        "johnson_w24_safe": lambda: johnson_counter(24, safe=True),
        "ring_n20_safe": lambda: token_ring(20, safe=True),
        "gray_w8_safe": lambda: gray_counter(8, safe=True),
        "ovf_w6_unsafe": lambda: counter_overflow(6, safe=False),
        "ovf_w8_unsafe": lambda: counter_overflow(8, safe=False),
        "fifo_w6_unsafe": lambda: fifo_controller(6, safe=False),
    }


# Candidates measured by calibrate.py; calibration.json records the verdict
# for each.  The pools below are the kept subsets.
MEDIUM_CANDIDATES: Tuple[str, ...] = (
    "parity_w6_safe",
    "johnson_w24_safe",
    "johnson_w20_safe",
    "ring_n20_safe",
    "gray_w8_safe",
    "ovf_w6_unsafe",
    "fifo_w6_unsafe",
    "ovf_w8_unsafe",
    "johnson_w16_safe",
    "parity_w5_safe",
)
PORTFOLIO_CANDIDATES: Tuple[str, ...] = (
    "johnson_w16_safe",
    "johnson_w20_safe",
    "johnson_w24_safe",
    "ovf_w6_unsafe",
    "fifo_w6_unsafe",
    "ring_n20_safe",
    "gray_w8_safe",
    "parity_w5_safe",
    "parity_w6_safe",
)

# The kept pools.  Every case in them passed the calibration band; among the
# cases that passed, paper-medium takes three that show the paper's effect
# in both directions (johnson_w20: prediction helps IC3ref and slows RIC3;
# ovf_w6 and fifo_w6: it helps RIC3) within a pass of about 15 s on two
# cores.  The others passed too and are left out only to bound the pass
# time (calibration.json records them as in band, not selected).
PAPER_MEDIUM_POOL: Tuple[str, ...] = (
    "johnson_w20_safe",
    "fifo_w6_unsafe",
    "ovf_w6_unsafe",
)
# Three cases of distinct cost, so that the median latency is the middle
# of ovf_w6's samples and the tail (the maximum, with fewer than 20
# samples) comes from johnson_w24: the two races whose times vary least.
# A case whose latency sits between two others' (johnson_w16, johnson_w20,
# fifo_w6) would move the median by its own race-to-race variation.
PORTFOLIO_MEDIUM_POOL: Tuple[str, ...] = (
    "johnson_w24_safe",
    "ovf_w6_unsafe",
    "ring_n20_safe",
)
# Cases that run first in every paper-medium pass: with two lanes, a long
# case dispatched last would leave one lane idle for seconds, and the seed
# would then decide the makespan.
PAPER_MEDIUM_HEAVY: Tuple[str, ...] = ("johnson_w20_safe",)

# bench_suite() cases that belong to the medium band (0.3-4.4 s each under
# ic3-pl or ic3); serve-mixed leaves them out so that it measures service
# latency rather than solve time.
SERVE_EXCLUDED: Tuple[str, ...] = (
    "parity_w5_safe",
    "parity_w6_safe",
    "johnson_w12_safe",
    "johnson_w16_safe",
)
SERVE_ENGINES: Tuple[str, ...] = ("ic3-pl", "ic3")
SERVE_RESUB_LAG = 4
"""A resubmission refers to a fresh job at least this many stream items back."""


def build_case(name: str):
    """Generate one named medium-band case."""
    return _medium_factories()[name]()


def _rng(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def paper_medium_inputs(seed: int, pass_index: int):
    """(cases, configs) for one paper-medium pass.

    The heavy case always runs first (see ``PAPER_MEDIUM_HEAVY``) and the
    configurations keep the paper's order; the seed and the pass index
    order the other cases.  Which tasks share the two cores changes their
    run times by several percent, so the seed stays away from the heavy
    tasks' pairing.
    """
    from repro.harness.configs import paper_configurations

    rng = _rng(seed, f"paper-medium:{pass_index}")
    light = [name for name in PAPER_MEDIUM_POOL if name not in PAPER_MEDIUM_HEAVY]
    rng.shuffle(light)
    names = list(PAPER_MEDIUM_HEAVY) + light
    return [build_case(name) for name in names], paper_configurations()


def quick_batch_inputs(seed: int, pass_index: int):
    """(cases, configs) for a quick-batch pass: the same seeded order every pass."""
    from repro.benchgen.suite import quick_suite
    from repro.harness.configs import paper_configurations

    rng = _rng(seed, "quick-batch")
    cases = quick_suite()
    rng.shuffle(cases)
    configs = paper_configurations()
    rng.shuffle(configs)
    return cases, configs


def portfolio_medium_inputs(seed: int):
    """The portfolio-medium cases in seeded order."""
    rng = _rng(seed, "portfolio-medium")
    names = list(PORTFOLIO_MEDIUM_POOL)
    rng.shuffle(names)
    return [build_case(name) for name in names]


# ----------------------------------------------------------------------
# serve-mixed: job stream and isomorphic renumbering
# ----------------------------------------------------------------------
@dataclass
class ServeJob:
    """One item of the serve-mixed stream."""

    index: int
    case: object
    engine: str
    text: str
    resubmits: Optional[int] = None
    """Stream index of the fresh job this item resubmits (None = fresh)."""

    @property
    def is_resubmission(self) -> bool:
        return self.resubmits is not None


def renumber_aag(text: str, rng: random.Random) -> str:
    """An isomorphic copy of an ASCII AIGER model.

    AND gates get new variable numbers in a random topological order and
    their operands are swapped at random; inputs, latches and the property
    sections keep their order (the structural digest hashes the i-th
    input as the i-th input).  Symbols and comments are dropped.
    """
    lines = text.splitlines()
    header = lines[0].split()
    counts = [int(field) for field in header[1:]]
    max_var, n_in, n_latch, n_out, n_and = counts[:5]
    n_bad, n_con, n_just, n_fair = (counts[5:] + [0, 0, 0, 0])[:4]
    if n_just or n_fair:
        raise ValueError("renumber_aag handles safety models only")
    cursor = 1
    inputs = lines[cursor:cursor + n_in]
    cursor += n_in
    latches = [line.split() for line in lines[cursor:cursor + n_latch]]
    cursor += n_latch
    singles = lines[cursor:cursor + n_out + n_bad + n_con]
    cursor += n_out + n_bad + n_con
    gates = [tuple(int(x) for x in line.split()[:3]) for line in lines[cursor:cursor + n_and]]

    gate_of = {lhs >> 1: (r0, r1) for lhs, r0, r1 in gates}
    users: Dict[int, List[int]] = {var: [] for var in gate_of}
    pending = {}
    for var, (r0, r1) in gate_of.items():
        deps = {r >> 1 for r in (r0, r1) if (r >> 1) in gate_of}
        pending[var] = len(deps)
        for dep in deps:
            users[dep].append(var)
    ready = sorted(var for var, count in pending.items() if count == 0)
    numbers = sorted(gate_of)
    var_map = {var: var for var in range(max_var + 1) if var not in gate_of}
    order = []
    while ready:
        var = ready.pop(rng.randrange(len(ready)))
        var_map[var] = numbers[len(order)]
        order.append(var)
        for user in sorted(users[var]):
            pending[user] -= 1
            if pending[user] == 0:
                ready.append(user)
    if len(order) != len(gate_of):
        raise ValueError("combinational cycle in AND section")

    def lit(value: int) -> int:
        return 2 * var_map[value >> 1] + (value & 1)

    out = [" ".join(header)]
    out += inputs
    for fields in latches:
        out.append(" ".join([fields[0], str(lit(int(fields[1])))] + fields[2:]))
    out += [str(lit(int(line.split()[0]))) for line in singles]
    for var in order:
        r0, r1 = gate_of[var]
        operands = [lit(r0), lit(r1)]
        if rng.random() < 0.5:
            operands.reverse()
        out.append(f"{2 * var_map[var]} {operands[0]} {operands[1]}")
    return "\n".join(out) + "\n"


def serve_pool():
    """bench_suite() cases that serve-mixed draws fresh jobs from."""
    from repro.benchgen.suite import bench_suite

    return [case for case in bench_suite() if case.name not in SERVE_EXCLUDED]


def serve_stream(seed: int) -> List[ServeJob]:
    """The serve-mixed job stream: every (case, engine) once, plus resubmissions.

    Fresh jobs come in seeded order.  Half as many resubmissions as fresh
    jobs are inserted at seeded positions; each one is a seeded isomorphic
    renumbering of a fresh job at least ``SERVE_RESUB_LAG`` items earlier,
    so the client has usually seen its verdict already.
    """
    from repro.aiger.writer import to_aag_string

    rng = _rng(seed, "serve-mixed")
    fresh = [(case, engine) for case in serve_pool() for engine in SERVE_ENGINES]
    rng.shuffle(fresh)
    slots = set(rng.sample(range(SERVE_RESUB_LAG, len(fresh)), len(fresh) // 2))
    stream: List[ServeJob] = []
    fresh_indices: List[int] = []
    for position, (case, engine) in enumerate(fresh):
        if position in slots:
            eligible = [i for i in fresh_indices if i <= len(stream) - SERVE_RESUB_LAG]
            if eligible:
                origin = stream[rng.choice(eligible)]
                stream.append(ServeJob(
                    index=len(stream), case=origin.case, engine=origin.engine,
                    text=renumber_aag(origin.text, rng), resubmits=origin.index,
                ))
        fresh_indices.append(len(stream))
        stream.append(ServeJob(
            index=len(stream), case=case, engine=engine, text=to_aag_string(case.aig),
        ))
    return stream


FINGERPRINT_PASSES = 4


def stream_fingerprint(workload: str, seed: int) -> str:
    """SHA-256 over everything the program receives (harness workloads:
    the first ``FINGERPRINT_PASSES`` passes)."""
    from repro.aiger.writer import to_aag_string

    digest = hashlib.sha256()
    if workload == "serve-mixed":
        for job in serve_stream(seed):
            digest.update(json.dumps([job.engine, job.resubmits, job.text]).encode())
    elif workload == "portfolio-medium":
        for case in portfolio_medium_inputs(seed):
            digest.update(to_aag_string(case.aig).encode())
    else:
        make = paper_medium_inputs if workload == "paper-medium" else quick_batch_inputs
        for pass_index in range(FINGERPRINT_PASSES):
            cases, configs = make(seed, pass_index)
            for case in cases:
                digest.update(to_aag_string(case.aig).encode())
            digest.update(json.dumps([config.name for config in configs]).encode())
    return digest.hexdigest()
