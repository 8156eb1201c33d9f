"""Layer clock: wall time attributed to the program's layers, across processes.

The traced run wraps calls into each layer's public functions (the table
in ``LAYER_TARGETS``) with thin timers that live in this file, so no
program source is edited.  Every thread keeps a stack of the layers it is
inside; on each layer boundary the time since the previous boundary is
charged to the innermost layer (its *self* time), split into
``BIN_S``-wide bins on the machine-wide monotonic clock.  Calls into
``multiprocessing.connection.wait`` are pushed as *idle*: a parent that
waits on its workers is not busy, so that time is charged to nobody.

Forked children (harness workers, portfolio members, serve workers) inherit
the wrappers; each process appends its bins to its own JSON-lines file in
a spool directory.  :func:`attribute` merges the files and splits every
bin of the measured window among the layers that were busy in it, in
proportion to their busy time, capped at the bin's length.  A bin in
which two workers were busy for its full length therefore gives each
layer half of it.  Per layer, this yields wall-equivalent seconds, and
the part of the window in which nothing was busy is reported as
``unattributed``.  Spawn, interpreter start-up, pipe transfer and the
serve event loop land there, because no wrapper covers them.
"""

from __future__ import annotations

import functools
import glob
import json
import math
import os
import signal
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

BIN_S = 0.01
_INV_BIN = 1.0 / BIN_S

LAYERS: Tuple[str, ...] = (
    "aiger.parse",
    "aiger.digest",
    "reduce",
    "ts",
    "sat",
    "core",
    "core.generalize",
    "core.predict",
    "core.invariant",
    "engines.build",
    "engines",
    "harness",
    "serve",
    "obs",
)
_INDEX = {name: index for index, name in enumerate(LAYERS)}
_IDLE = -1
_SLOTS = 2 * len(LAYERS)  # slot = 2 * layer + (1 if inside an Engine.check)
_KEY_STRIDE = 64
assert _SLOTS <= _KEY_STRIDE

# (module path, attribute path, layer, role).  Roles: "check" marks an
# Engine.check boundary (its time, and everything under it, counts toward
# engines.check_s); "root" marks the body of a forked worker (the process
# flushes its bins when it returns); "member" is the root of a portfolio
# member, which may be stopped with SIGTERM; "sat" also records the call's
# duration histogram; "idle" is a wait.  Names imported into another
# module's namespace are patched there too, because that is the binding
# the caller resolves at call time.
LAYER_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.aiger.parser", "parse_aiger", "aiger.parse", ""),
    ("repro.aiger", "parse_aiger", "aiger.parse", ""),
    ("repro.serve.service", "parse_aiger", "aiger.parse", ""),
    ("repro.aiger.aig", "AIG.structural_digest", "aiger.digest", ""),
    ("repro.reduce", "reduce_aig", "reduce", ""),
    ("repro.engines.adapters", "reduce_aig", "reduce", ""),
    ("repro.reduce.pipeline", "ReductionResult.lift_outcome", "reduce", ""),
    ("repro.ts.system", "TransitionSystem.__init__", "ts", ""),
    ("repro.sat.solver", "Solver.solve_limited", "sat", "sat"),
    ("repro.sat.arena", "ArenaSolver.solve_limited", "sat", "sat"),
    ("repro.core.ic3", "IC3.check", "core", ""),
    ("repro.core.bmc", "BMC.check", "core", ""),
    ("repro.core.kinduction", "KInduction.check", "core", ""),
    ("repro.core.generalize", "Generalizer.generalize", "core.generalize", ""),
    ("repro.core.predict", "LemmaPredictor.predict", "core.predict", ""),
    ("repro.core.invariant", "check_certificate", "core.invariant", ""),
    ("repro.core.invariant", "check_counterexample", "core.invariant", ""),
    ("repro.harness.runner", "check_certificate", "core.invariant", ""),
    ("repro.harness.runner", "check_counterexample", "core.invariant", ""),
    ("repro.engines.registry", "create_engine", "engines.build", ""),
    ("repro.engines", "create_engine", "engines.build", ""),
    ("repro.harness.runner", "create_engine", "engines.build", ""),
    ("repro.engines.portfolio", "create_engine", "engines.build", ""),
    ("repro.engines.adapters", "IC3Engine.check", "engines", "check"),
    ("repro.engines.adapters", "BMCEngine.check", "engines", "check"),
    ("repro.engines.adapters", "KInductionEngine.check", "engines", "check"),
    ("repro.engines.portfolio", "PortfolioEngine.check", "engines", "check"),
    ("repro.engines.portfolio", "_run_member", "engines", "member"),
    ("repro.engines.adapters", "record_engine_outcome", "obs", ""),
    ("repro.engines.portfolio", "record_engine_outcome", "obs", ""),
    ("repro.harness.runner", "BenchmarkRunner.run", "harness", ""),
    ("repro.harness.runner", "_execute_case", "harness", ""),
    ("repro.harness.pool", "_worker_shim", "harness", "root"),
    ("repro.serve.service", "VerificationService.submit_raw", "serve", ""),
    ("repro.serve.service", "VerificationService.get_job", "serve", ""),
    ("repro.serve.workers", "_execute_job", "serve", "root"),
    ("multiprocessing.connection", "wait", "", "idle"),
)

_FLUSH_INTERVAL_S = 0.5
_HIST_PER_OCTAVE = 8


class _ThreadClock:
    """Per-thread layer stack and the bins it has charged since its last flush."""

    __slots__ = ("stack", "mark", "check_depth", "acc", "hist", "roots", "last_flush")

    def __init__(self) -> None:
        self.stack: List[int] = []
        self.mark = 0.0
        self.check_depth = 0
        self.acc: Dict[int, float] = {}
        self.hist: Dict[int, int] = {}
        self.roots: Dict[str, int] = {}
        self.last_flush = time.perf_counter()

    def charge(self, now: float) -> None:
        stack = self.stack
        if stack and stack[-1] >= 0:
            slot = 2 * stack[-1] + (1 if self.check_depth else 0)
            start = self.mark
            acc = self.acc
            first = int(start * _INV_BIN)
            last = int(now * _INV_BIN)
            if first == last:
                key = first * _KEY_STRIDE + slot
                acc[key] = acc.get(key, 0.0) + (now - start)
            else:
                for index in range(first, last + 1):
                    lo = max(start, index * BIN_S)
                    hi = min(now, (index + 1) * BIN_S)
                    if hi > lo:
                        key = index * _KEY_STRIDE + slot
                        acc[key] = acc.get(key, 0.0) + (hi - lo)
        self.mark = now


class LayerClock:
    """Installs the layer wrappers and spools their bins to ``spool_dir``."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self._local = threading.local()
        self._clocks: List[_ThreadClock] = []
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []
        self._active = False

    # -- per-thread state ----------------------------------------------
    def _clock(self) -> _ThreadClock:
        clock = getattr(self._local, "clock", None)
        if clock is None:
            clock = _ThreadClock()
            self._local.clock = clock
            with self._lock:
                self._clocks.append(clock)
        return clock

    def _after_fork_in_child(self) -> None:
        # A forked child starts with a copy of the forking thread's stack
        # and unflushed bins; both belong to the parent.
        if self._active:
            self._local = threading.local()
            self._clocks = []
            self._lock = threading.Lock()

    # -- wrappers --------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, role: str) -> Callable:
        index = _IDLE if role == "idle" else _INDEX[layer]
        is_check = role == "check"
        is_root = role in ("root", "member")
        is_member = role == "member"
        is_sat = role == "sat"
        clock_of = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            clock = clock_of()
            start = time.perf_counter()
            clock.charge(start)
            clock.stack.append(index)
            if is_check:
                clock.check_depth += 1
            if is_root:
                clock.roots[fn.__name__] = clock.roots.get(fn.__name__, 0) + 1
                if is_member:
                    _exit_on_sigterm()
            try:
                return fn(*args, **kwargs)
            finally:
                now = time.perf_counter()
                clock.charge(now)
                clock.stack.pop()
                if is_check:
                    clock.check_depth -= 1
                if is_sat:
                    bucket = int(math.log2(max(now - start, 1e-7) * 1e6) * _HIST_PER_OCTAVE)
                    clock.hist[bucket] = clock.hist.get(bucket, 0) + 1
                if not clock.stack and (
                    is_root or now - clock.last_flush >= _FLUSH_INTERVAL_S
                ):
                    self._flush(clock)

        return wrapper

    def install(self) -> "LayerClock":
        """Patch every target; forked children inherit the patched functions."""
        import importlib

        os.makedirs(self.spool_dir, exist_ok=True)
        for module_name, attr_path, layer, role in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, role))
        self._active = True
        os.register_at_fork(after_in_child=self._after_fork_in_child)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order) and flush."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.flush_all()
        self._active = False

    # -- spooling --------------------------------------------------------
    def _flush(self, clock: _ThreadClock) -> None:
        clock.last_flush = time.perf_counter()
        if not clock.acc and not clock.hist and not clock.roots:
            return
        record = {
            "pid": os.getpid(),
            "acc": list(clock.acc.items()),
            "hist": list(clock.hist.items()),
            "roots": clock.roots,
        }
        clock.acc, clock.hist, clock.roots = {}, {}, {}
        path = os.path.join(
            self.spool_dir, f"{os.getpid()}-{threading.get_ident()}.jsonl"
        )
        with open(path, "a") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")

    def flush_all(self) -> None:
        """Flush every thread of this process (call when its threads are idle)."""
        with self._lock:
            clocks = list(self._clocks)
        for clock in clocks:
            self._flush(clock)


def _exit_on_sigterm() -> None:
    """Portfolio losers are stopped with SIGTERM; turn it into an orderly exit.

    The member body catches the resulting ``SystemExit`` like any other
    error, so the wrapper around it still returns and flushes its bins.
    """

    def _exit(signum, frame):  # noqa: ARG001 - signal handler signature
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _exit)


# ----------------------------------------------------------------------
# Merging and attribution
# ----------------------------------------------------------------------
class Spool:
    """All records written to one spool directory, merged by bin."""

    def __init__(self, spool_dir: str):
        self.bins: Dict[int, List[float]] = {}
        self.hist: Dict[int, int] = {}
        self.pids = set()
        self.roots: Dict[str, int] = {}
        for path in sorted(glob.glob(os.path.join(spool_dir, "*.jsonl"))):
            with open(path) as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # a line cut short by a hard kill
                    self._add(record)

    def _add(self, record: dict) -> None:
        self.pids.add(record["pid"])
        for key, value in record["acc"]:
            row = self.bins.setdefault(key // _KEY_STRIDE, [0.0] * _SLOTS)
            row[key % _KEY_STRIDE] += value
        for bucket, count in record["hist"]:
            self.hist[bucket] = self.hist.get(bucket, 0) + count
        for name, count in record["roots"].items():
            self.roots[name] = self.roots.get(name, 0) + count


def hist_median(hist: Dict[int, int]) -> float:
    """Median SAT call duration in microseconds (log-bucket midpoint)."""
    total = sum(hist.values())
    seen = 0
    for bucket in sorted(hist):
        seen += hist[bucket]
        if 2 * seen >= total:
            return 2.0 ** ((bucket + 0.5) / _HIST_PER_OCTAVE)
    return 0.0


def attribute(
    bins: Dict[int, List[float]], windows: Iterable[Tuple[float, float]]
) -> Dict[str, float]:
    """Split each window's wall time among layers (``Spool.bins``); see the
    module docstring.

    Returns wall-equivalent seconds per layer, ``engines.check`` (time
    inside any Engine.check, all layers), ``unattributed`` and ``wall``,
    summed over the windows.
    """
    totals = {name: 0.0 for name in LAYERS}
    totals.update({"engines.check": 0.0, "unattributed": 0.0, "wall": 0.0})
    for t0, t1 in windows:
        totals["wall"] += t1 - t0
        for index in range(int(t0 * _INV_BIN), int(t1 * _INV_BIN) + 1):
            overlap = min(t1, (index + 1) * BIN_S) - max(t0, index * BIN_S)
            if overlap <= 0:
                continue
            row = bins.get(index)
            if row is None:
                totals["unattributed"] += overlap
                continue
            share = overlap / BIN_S  # edge bins: assume busy time was uniform
            busy = sum(row) * share
            scale = share * (min(1.0, overlap / busy) if busy > 0 else 0.0)
            used = 0.0
            for slot, value in enumerate(row):
                if value:
                    part = value * scale
                    totals[LAYERS[slot // 2]] += part
                    if slot % 2:
                        totals["engines.check"] += part
                    used += part
            totals["unattributed"] += overlap - used
    return totals


def sum_error(totals: Dict[str, float]) -> float:
    """Relative gap between (layers + unattributed) and the wall time."""
    if totals["wall"] <= 0:
        return 0.0
    covered = sum(totals[name] for name in LAYERS) + totals["unattributed"]
    return abs(covered - totals["wall"]) / totals["wall"]


def install_from_env(env_var: str = "PERFBENCH_SPOOL") -> Optional[LayerClock]:
    """Install a clock spooling to ``$PERFBENCH_SPOOL`` if it is set."""
    spool_dir = os.environ.get(env_var)
    if not spool_dir:
        return None
    return LayerClock(spool_dir).install()
