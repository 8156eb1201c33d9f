"""Unified process/thread-aware metrics registry.

The live-state counterpart of :mod:`repro.obs.tracer`: where the tracer
records *what happened when*, this module keeps *how much of everything
has happened so far* — monotonic counters, point-in-time gauges and
log-bucketed latency histograms, each with an optional label family
(``repro_engine_runs_total{engine="ic3-pl",result="safe"}``).

Design constraints, in order:

1. **Incrementing must be cheap enough for engine code.**  Counters and
   histograms accumulate into *per-thread cells* (plain dicts reached
   through ``threading.local``) so the hot path is a dict update with no
   lock; a snapshot merges the cells.  Under CPython's GIL a dict
   ``__setitem__`` is atomic, so readers can merge concurrently with
   writers and at worst miss the very latest increment.
2. **Snapshots must travel.**  :meth:`MetricsRegistry.snapshot` returns
   a plain JSON-able dict and :func:`merge_snapshots` folds any number
   of them together — worker processes ship their snapshot over the
   heartbeat channel (:mod:`repro.obs.heartbeat`) or a pipe and the
   parent merges them into one view.
3. **Exposition is text, validation is local.**  :func:`render_prometheus`
   emits the Prometheus text format (``# HELP``/``# TYPE``, cumulative
   ``_bucket{le=...}`` histogram series) and :func:`parse_prometheus` is
   a small strict parser of that format so CI can validate the daemon's
   ``GET /metrics`` output without an external ``promtool``.

The module-level :data:`REGISTRY` is the per-process default; the serve
daemon's :class:`repro.serve.metrics.Metrics` wraps its own private
instance so concurrently running services (tests) do not share counters.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "default_latency_buckets",
    "get_registry",
    "merge_snapshots",
    "parse_prometheus",
    "record_engine_outcome",
    "render_prometheus",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def default_latency_buckets() -> Tuple[float, ...]:
    """Log-spaced (powers of two) latency bounds from 1 ms to ~65 s.

    Seventeen finite buckets cover everything from a cache-served job to
    a portfolio run against a generous timeout; the implicit ``+Inf``
    bucket catches the rest.
    """
    return tuple(0.001 * 2**i for i in range(17))


def _format_value(value: float) -> str:
    """Prometheus sample value: integers bare, floats repr'd."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _ThreadCells:
    """A family of per-thread accumulation dicts.

    ``get()`` hands the calling thread its private dict (no lock on the
    hot path); ``merged()`` folds every thread's dict into one.  Cells
    of exited threads are retained — counters are monotonic over the
    life of the process, so their contributions must survive the thread.
    """

    __slots__ = ("_local", "_all", "_lock")

    def __init__(self) -> None:
        self._local = threading.local()
        self._all: List[dict] = []
        self._lock = threading.Lock()

    def get(self) -> dict:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = {}
            self._local.cell = cell
            with self._lock:
                self._all.append(cell)
        return cell

    def cells(self) -> List[dict]:
        with self._lock:
            return list(self._all)


class _Metric:
    """Shared declaration plumbing: name, help text, label family."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on {name}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)

    def _key(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


class Counter(_Metric):
    """Monotonic counter (optionally labelled); per-thread accumulation."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._cells = _ThreadCells()

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError("counters are monotonic; use a gauge")
        cell = self._cells.get()
        key = self._key(labels)
        cell[key] = cell.get(key, 0) + amount

    def labels(self, **labels: Any):
        """A bound single-series handle: ``c.labels(engine="bmc").inc()``."""
        key = self._key(labels)
        cells = self._cells
        return _BoundCounter(cells, key)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        total = 0
        for cell in self._cells.cells():
            total += cell.get(key, 0)
        return total

    def collect(self) -> Dict[Tuple[str, ...], float]:
        out: Dict[Tuple[str, ...], float] = {}
        for cell in self._cells.cells():
            for key, value in list(cell.items()):
                out[key] = out.get(key, 0) + value
        return out


class _BoundCounter:
    __slots__ = ("_cells", "_key")

    def __init__(self, cells: _ThreadCells, key: Tuple[str, ...]):
        self._cells = cells
        self._key = key

    def inc(self, amount: float = 1) -> None:
        cell = self._cells.get()
        cell[self._key] = cell.get(self._key, 0) + amount


class Gauge(_Metric):
    """Point-in-time value; last write wins (one dict under a lock —
    gauges are set at scrape/publish time, never in hot loops)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = value

    def value(self, **labels: Any) -> Optional[float]:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key)

    def collect(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return dict(self._values)


class Histogram(_Metric):
    """Cumulative histogram with log-spaced bounds; per-thread cells.

    Each thread cell maps a label key to ``[bucket_counts, sum, count]``
    where ``bucket_counts`` has one slot per finite bound plus ``+Inf``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ):
        super().__init__(name, help, labels)
        bounds = tuple(buckets) if buckets is not None else default_latency_buckets()
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.bounds: Tuple[float, ...] = bounds
        self._cells = _ThreadCells()

    def observe(self, value: float, **labels: Any) -> None:
        cell = self._cells.get()
        key = self._key(labels)
        state = cell.get(key)
        if state is None:
            state = cell[key] = [[0] * (len(self.bounds) + 1), 0.0, 0]
        state[0][bisect_left(self.bounds, value)] += 1
        state[1] += value
        state[2] += 1

    def collect(self) -> Dict[Tuple[str, ...], List[Any]]:
        out: Dict[Tuple[str, ...], List[Any]] = {}
        for cell in self._cells.cells():
            for key, state in list(cell.items()):
                merged = out.get(key)
                if merged is None:
                    merged = out[key] = [[0] * (len(self.bounds) + 1), 0.0, 0]
                for i, n in enumerate(state[0]):
                    merged[0][i] += n
                merged[1] += state[1]
                merged[2] += state[2]
        return out

    def mean(self, **labels: Any) -> Optional[float]:
        """Observed mean for one series; None before any observation."""
        state = self.collect().get(self._key(labels))
        if state is None or state[2] == 0:
            return None
        return state[1] / state[2]


class MetricsRegistry:
    """Declares and snapshots a family of metrics.

    Declaration is idempotent: re-declaring a name with the same kind and
    label family returns the existing metric (call sites in independent
    modules can each declare what they feed); a mismatch raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _declare(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already declared as {existing.kind}"
                        f"{existing.label_names}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._declare(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._declare(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._declare(Histogram, name, help, labels, buckets=buckets)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Everything declared + accumulated, as one JSON-able document."""
        with self._lock:
            metrics = list(self._metrics.values())
        doc: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for metric in metrics:
            entry: Dict[str, Any] = {
                "help": metric.help,
                "labels": list(metric.label_names),
                "values": [],
            }
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
                for key, state in sorted(metric.collect().items()):
                    entry["values"].append(
                        {
                            "labels": dict(zip(metric.label_names, key)),
                            "buckets": list(state[0]),
                            "sum": state[1],
                            "count": state[2],
                        }
                    )
                doc["histograms"][metric.name] = entry
            elif isinstance(metric, Counter):
                for key, value in sorted(metric.collect().items()):
                    entry["values"].append(
                        {"labels": dict(zip(metric.label_names, key)), "value": value}
                    )
                doc["counters"][metric.name] = entry
            else:
                for key, value in sorted(metric.collect().items()):
                    entry["values"].append(
                        {"labels": dict(zip(metric.label_names, key)), "value": value}
                    )
                doc["gauges"][metric.name] = entry
        return doc


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold registry snapshots from several processes into one.

    Counters and histograms add; for gauges a later snapshot's series
    replaces an earlier one's (point-in-time semantics).
    """
    merged: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}

    def _series_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted(labels.items()))

    for snap in snapshots:
        if not snap:
            continue
        for section in ("counters", "gauges", "histograms"):
            for name, entry in snap.get(section, {}).items():
                target = merged[section].setdefault(
                    name,
                    {
                        "help": entry.get("help", ""),
                        "labels": list(entry.get("labels", [])),
                        "values": [],
                        **(
                            {"bounds": list(entry.get("bounds", []))}
                            if section == "histograms"
                            else {}
                        ),
                    },
                )
                index = {
                    _series_key(value["labels"]): value for value in target["values"]
                }
                for value in entry.get("values", []):
                    key = _series_key(value["labels"])
                    existing = index.get(key)
                    if existing is None:
                        copied = dict(value)
                        if "buckets" in copied:
                            copied["buckets"] = list(copied["buckets"])
                        target["values"].append(copied)
                        index[key] = copied
                    elif section == "gauges":
                        existing["value"] = value["value"]
                    elif section == "histograms":
                        for i, n in enumerate(value["buckets"]):
                            existing["buckets"][i] += n
                        existing["sum"] += value["sum"]
                        existing["count"] += value["count"]
                    else:
                        existing["value"] += value["value"]
    for section in merged.values():
        for entry in section.values():
            entry["values"].sort(key=lambda v: _series_key(v["labels"]))
    return merged


def snapshot_totals(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Condense a registry snapshot to per-family totals.

    Counters fold their label families into one total; histograms keep
    ``sum``/``count``; gauges are omitted (point-in-time values have no
    meaningful total).  This is the compact form run manifests embed.
    """
    totals: Dict[str, Any] = {}
    for name, entry in sorted(snapshot.get("counters", {}).items()):
        totals[name] = sum(value["value"] for value in entry.get("values", []))
    for name, entry in sorted(snapshot.get("histograms", {}).items()):
        totals[name] = {
            "sum": round(sum(v["sum"] for v in entry.get("values", [])), 6),
            "count": sum(v["count"] for v in entry.get("values", [])),
        }
    return totals


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _render_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label(str(value))}"' for name, value in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """A registry snapshot as Prometheus text format (version 0.0.4).

    Families come out name-sorted so the exposition is deterministic;
    histograms emit cumulative ``_bucket`` series, ``_sum`` and
    ``_count`` per the format spec.
    """
    lines: List[str] = []
    flat: List[Tuple[str, str, Dict[str, Any]]] = []
    for section, kind in (
        ("counters", "counter"),
        ("gauges", "gauge"),
        ("histograms", "histogram"),
    ):
        for name, entry in snapshot.get(section, {}).items():
            flat.append((name, kind, entry))
    for name, kind, entry in sorted(flat):
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        values = entry.get("values", [])
        if not values:
            # Declared-but-untouched unlabelled metrics still expose a
            # zero sample so scrapers can tell "zero" from "renamed";
            # labelled families without series stay silent.
            if entry.get("labels"):
                continue
            if kind == "histogram":
                values = [
                    {
                        "labels": {},
                        "buckets": [0] * (len(entry.get("bounds", [])) + 1),
                        "sum": 0.0,
                        "count": 0,
                    }
                ]
            else:
                lines.append(f"{name} 0")
                continue
        for value in values:
            labels = value.get("labels", {})
            if kind == "histogram":
                bounds = list(entry.get("bounds", []))
                cumulative = 0
                for bound, count in zip(bounds + [math.inf], value["buckets"]):
                    cumulative += count
                    le_attr = 'le="' + _format_value(float(bound)) + '"'
                    lines.append(
                        f"{name}_bucket{_render_labels(labels, le_attr)} {cumulative}"
                    )
                lines.append(f"{name}_sum{_render_labels(labels)} {repr(float(value['sum']))}")
                lines.append(f"{name}_count{_render_labels(labels)} {value['count']}")
            else:
                lines.append(
                    f"{name}{_render_labels(labels)} {_format_value(value['value'])}"
                )
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<ts>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def _base_family(sample_name: str, families: Dict[str, Dict[str, Any]]) -> Optional[str]:
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count", "_total"):
        if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
            return sample_name[: -len(suffix)]
    return None


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse/validate Prometheus text exposition; the in-repo ``promtool``.

    Returns ``{family: {"type", "help", "samples": [(name, labels, value)]}}``
    and raises :class:`ValueError` (with a line number) on any format
    violation: malformed comment/sample lines, unknown TYPE, a sample
    with no preceding TYPE, unparseable values, or a histogram family
    missing its ``+Inf`` bucket / ``_sum`` / ``_count`` series.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            _, keyword, name = parts[0], parts[1], parts[2]
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: invalid metric name {name!r}")
            family = families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )
            if keyword == "HELP":
                family["help"] = parts[3] if len(parts) > 3 else ""
            else:
                kind = parts[3].strip() if len(parts) > 3 else ""
                if kind not in _TYPES:
                    raise ValueError(f"line {lineno}: unknown metric type {kind!r}")
                if family["samples"]:
                    raise ValueError(
                        f"line {lineno}: TYPE for {name} after its samples"
                    )
                family["type"] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        label_text = match.group("labels") or ""
        labels: Dict[str, str] = {}
        if label_text.strip():
            for pair in _LABEL_PAIR_RE.finditer(label_text):
                labels[pair.group(1)] = pair.group(2)
            # Re-serialize what we parsed and compare modulo separators:
            # anything left over is garbage inside the braces.
            rebuilt = ",".join(f'{k}="{v}"' for k, v in labels.items())
            if re.sub(r"[,\s]", "", rebuilt) != re.sub(r"[,\s]", "", label_text):
                raise ValueError(f"line {lineno}: malformed labels {{{label_text}}}")
        value_text = match.group("value")
        if value_text not in ("+Inf", "-Inf", "NaN"):
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: unparseable value {value_text!r}"
                ) from None
        else:
            value = math.inf if value_text == "+Inf" else (
                -math.inf if value_text == "-Inf" else math.nan
            )
        base = _base_family(name, families)
        if base is None or families[base]["type"] is None:
            raise ValueError(f"line {lineno}: sample {name!r} without a TYPE")
        families[base]["samples"].append((name, labels, value))

    for name, family in families.items():
        if family["type"] != "histogram" or not family["samples"]:
            continue
        sample_names = {sample[0] for sample in family["samples"]}
        if f"{name}_sum" not in sample_names or f"{name}_count" not in sample_names:
            raise ValueError(f"histogram {name} is missing _sum/_count series")
        inf_buckets = [
            sample
            for sample in family["samples"]
            if sample[0] == f"{name}_bucket" and sample[1].get("le") == "+Inf"
        ]
        if not inf_buckets:
            raise ValueError(f"histogram {name} is missing its +Inf bucket")
    return families


# ----------------------------------------------------------------------
# The per-process default registry and the standard families
# ----------------------------------------------------------------------
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (engines and harness feed it)."""
    return REGISTRY


ENGINE_RUNS = REGISTRY.counter(
    "repro_engine_runs_total",
    "Completed engine checks by engine and verdict.",
    labels=("engine", "result"),
)
ENGINE_RUNTIME = REGISTRY.histogram(
    "repro_engine_runtime_seconds",
    "End-to-end engine check runtime.",
    labels=("engine",),
)
SAT_CALLS = REGISTRY.counter(
    "repro_sat_calls_total", "SAT solver invocations across engine runs."
)
SAT_TIME = REGISTRY.counter(
    "repro_sat_time_seconds_total", "Seconds spent inside SAT solve calls."
)
SAT_CONFLICTS = REGISTRY.counter(
    "repro_sat_conflicts_total", "CDCL conflicts across engine runs."
)
SAT_DECISIONS = REGISTRY.counter(
    "repro_sat_decisions_total", "CDCL decisions across engine runs."
)
SAT_PROPAGATIONS = REGISTRY.counter(
    "repro_sat_propagations_total", "Unit propagations across engine runs."
)
HARNESS_TASKS = REGISTRY.counter(
    "repro_harness_tasks_total",
    "Pooled harness tasks by completion status.",
    labels=("status",),
)
PORTFOLIO_WINS = REGISTRY.counter(
    "repro_portfolio_wins_total",
    "Portfolio races decided, by winning member.",
    labels=("member",),
)
STALLS = REGISTRY.counter(
    "repro_stalls_total",
    "Workers whose heartbeat went silent past the stall limit.",
    labels=("pool",),
)


def record_engine_outcome(outcome: Any) -> None:
    """Fold one finished :class:`CheckOutcome` into the default registry.

    Called once per engine check (from the adapters and the portfolio),
    never from a hot loop — the cost is a handful of dict updates.
    """
    engine = getattr(outcome, "engine", "") or "unknown"
    result = getattr(getattr(outcome, "result", None), "value", None) or str(
        getattr(outcome, "result", "unknown")
    )
    ENGINE_RUNS.inc(engine=engine, result=result)
    ENGINE_RUNTIME.observe(getattr(outcome, "runtime", 0.0) or 0.0, engine=engine)
    stats = getattr(outcome, "stats", None)
    if stats is None:
        return
    for counter, attr in (
        (SAT_CALLS, "sat_calls"),
        (SAT_TIME, "sat_time"),
        (SAT_CONFLICTS, "solver_conflicts"),
        (SAT_DECISIONS, "solver_decisions"),
        (SAT_PROPAGATIONS, "solver_propagations"),
    ):
        amount = getattr(stats, attr, 0) or 0
        if amount > 0:
            counter.inc(amount)
