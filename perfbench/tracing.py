"""Per-layer tracing installed from outside the library.

Timing wrappers replace public names at run time: module functions in
every ``digsys`` module that holds them, and methods on their classes.
Private helpers are never wrapped, so refactors that delete them do not
break the trace; a public name that is missing is reported, not fatal.

Every wrapped call that runs inside an operation updates its layer's
call count and self time (its duration minus the time of wrapped calls
it made).  Coarse calls also keep a span (name, start, end, parent span,
operation id) in memory; fine-grained arithmetic keeps counts only, so
memory stays bounded.  ``IntegerRing`` arithmetic is too fine to time
and is only counted.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

# (layer metric prefix, module, attribute path, mode); mode "span" keeps
# spans, "time" keeps counts and self time, "count" keeps counts only
TARGETS = (
    ("rings.fp_mul", "digsys.rings", "FpPoly.__mul__", "time"),
    ("rings.fp_divmod", "digsys.rings", "FpPoly.__divmod__", "time"),
    ("rings.fp_add", "digsys.rings", "FpPoly.__add__", "time"),
    ("rings.fp_add", "digsys.rings", "FpPoly.__sub__", "time"),
    ("rings.zi_residue", "digsys.rings", "GaussianIntegerRing.canonical_residue", "time"),
    ("rings.z_residue", "digsys.rings", "IntegerRing.canonical_residue", "count"),
    ("polyquot.ring_init", "digsys.polyquot", "QuotRing.__init__", "span"),
    ("polyquot.normalize", "digsys.polyquot", "QuotRing.normalize", "time"),
    ("polyquot.divide_by_x", "digsys.polyquot", "QuotRing.divide_by_x", "time"),
    ("polyquot.from_coords", "digsys.polyquot", "QuotRing.from_coords", "time"),
    ("polyquot.std_rep", "digsys.polyquot", "QuotRing.standard_representation", "time"),
    ("polyquot.parse", "digsys.polyquot", "parse_poly", "span"),
    ("digits.validate", "digsys.digits", "validate_system", "span"),
    ("digits.step", "digsys.digits", "DigitSystem.step", "time"),
    ("digits.coordinate_step", "digsys.digits", "DigitSystem.coordinate_step", "time"),
    ("digits.sequence", "digsys.digits", "DigitSystem.digit_sequence", "span"),
    ("digits.zero_cycle", "digsys.digits", "DigitSystem.zero_cycle", "span"),
    ("digits.periodic_set", "digsys.digits", "DigitSystem.periodic_set", "span"),
    ("witness.closure", "digsys.witness", "witness_closure", "span"),
    ("witness.decide", "digsys.witness", "decide_fep", "span"),
    ("witness.decide", "digsys.witness", "decide_pep", "span"),
    ("witness.orbit_graph", "digsys.witness", "orbit_graph", "span"),
    ("srs.classify", "digsys.srs", "srs_classify", "span"),
    ("srs.tau_step", "digsys.srs", "tau_step", "time"),
    ("product.expand", "digsys.product", "product_expand", "span"),
    ("product.build", "digsys.product", "multi_product_digit_set", "span"),
    ("product.build", "digsys.product", "product_digit_set", "span"),
    ("ffds.prove", "digsys.ffds", "prove_fep_via_zero_cycle", "span"),
    ("ffds.convert", "digsys.ffds", "convert_expansion", "span"),
    ("cli.main", "digsys.cli", "main", "span"),
)

# (metric, unit, better); names and units as listed in BENCHMARK.json
LAYER_METRICS = (
    ("rings.fp_mul.calls", "count", "lower"),
    ("rings.fp_mul.self_s", "s", "lower"),
    ("rings.fp_mul.max_deg", "count", "lower"),
    ("rings.fp_divmod.calls", "count", "lower"),
    ("rings.fp_divmod.self_s", "s", "lower"),
    ("rings.fp_add.calls", "count", "lower"),
    ("rings.fp_add.self_s", "s", "lower"),
    ("rings.zi_residue.calls", "count", "lower"),
    ("rings.zi_residue.self_s", "s", "lower"),
    ("rings.z_residue.calls", "count", "lower"),
    ("polyquot.normalize.calls", "count", "lower"),
    ("polyquot.normalize.self_s", "s", "lower"),
    ("polyquot.divide_by_x.calls", "count", "lower"),
    ("polyquot.divide_by_x.self_s", "s", "lower"),
    ("polyquot.from_coords.calls", "count", "lower"),
    ("polyquot.from_coords.self_s", "s", "lower"),
    ("polyquot.std_rep.calls", "count", "lower"),
    ("polyquot.std_rep.self_s", "s", "lower"),
    ("polyquot.ring_init.self_s", "s", "lower"),
    ("polyquot.parse.self_s", "s", "lower"),
    ("digits.validate.calls", "count", "lower"),
    ("digits.validate.self_s", "s", "lower"),
    ("digits.step.calls", "count", "lower"),
    ("digits.step.self_s", "s", "lower"),
    ("digits.coordinate_step.calls", "count", "lower"),
    ("digits.sequence.calls", "count", "lower"),
    ("digits.sequence.steps", "count", "lower"),
    ("digits.sequence.self_s", "s", "lower"),
    ("digits.sequence.us_per_step", "us", "lower"),
    ("digits.sequence.peak_kb", "KB", "lower"),
    ("digits.zero_cycle.self_s", "s", "lower"),
    ("digits.periodic_set.self_s", "s", "lower"),
    ("witness.closure.calls", "count", "lower"),
    ("witness.closure.self_s", "s", "lower"),
    ("witness.closure.elements", "count", "lower"),
    ("witness.closure.us_per_element", "us", "lower"),
    ("witness.closure.per_system", "ratio", "lower"),
    ("witness.closure.stabilized_ratio", "ratio", "higher"),
    ("witness.closure.overshoot", "count", "lower"),
    ("witness.decide.calls", "count", "lower"),
    ("witness.decide.self_s", "s", "lower"),
    ("witness.orbit_graph.self_s", "s", "lower"),
    ("srs.classify.calls", "count", "lower"),
    ("srs.classify.self_s", "s", "lower"),
    ("srs.tau_step.calls", "count", "lower"),
    ("product.expand.calls", "count", "lower"),
    ("product.expand.self_s", "s", "lower"),
    ("product.expand.steps", "count", "lower"),
    ("product.build.self_s", "s", "lower"),
    ("ffds.prove.calls", "count", "lower"),
    ("ffds.prove.self_s", "s", "lower"),
    ("ffds.convert.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_numpy_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

SPAN_LIMIT = 200_000


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_deg: int = -1
    steps: int = 0
    elements: int = 0
    stabilized: int = 0
    overshoot: int = 0
    systems: set = field(default_factory=set)
    peak_kb: float = 0.0


def _record_result(name: str, stat: LayerStat, op_id: int, args, result) -> None:
    """Counters that need the call's arguments or result."""
    if name == "rings.fp_mul":
        stat.max_deg = max(stat.max_deg, result.degree)
    elif name == "digits.sequence":
        stat.steps += len(result.digits)
    elif name == "product.expand":
        stat.steps += result.steps
    elif name == "witness.closure":
        stat.elements += len(result)
        stat.systems.add((op_id, id(args[0])))
        if result.stabilized:
            stat.stabilized += 1
        else:
            stat.overshoot = max(stat.overshoot, len(result) - result.cap)


class Tracer:
    """Installs the wrappers, accumulates layer statistics and spans."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStat] = defaultdict(LayerStat)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.missing: list[str] = []
        self.op_id: int | None = None
        # frames of the calls in progress: [child seconds, span id]
        self._stack: list[list] = [[0.0, None]]
        self._span_ids = 0
        self._op_start = 0.0
        self._op_span: tuple = (None, "")
        self._restore: list[tuple] = []

    # -- operation scope -------------------------------------------------------

    def begin_op(self, op_id: int, kind: str) -> None:
        self.op_id = op_id
        self._span_ids += 1
        self._op_start = time.perf_counter()
        self._stack = [[0.0, self._span_ids]]
        self._op_span = (self._span_ids, f"op.{kind}")

    def end_op(self) -> None:
        end = time.perf_counter()
        sid, name = self._op_span
        self._add_span((sid, name, self._op_start, end, None, self.op_id))
        self.op_id = None

    def _add_span(self, span: tuple) -> None:
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(span)
        else:
            self.dropped_spans += 1

    # -- installation ------------------------------------------------------------

    def install(self, memory_probe: bool = False) -> None:
        """Wrap every target; with ``memory_probe`` wrap only digit_sequence,
        measuring its peak traced allocation."""
        for name, module, path, mode in TARGETS:
            if memory_probe and name != "digits.sequence":
                continue
            owner, attr, orig = _resolve(module, path)
            if orig is None:
                self.missing.append(f"{module}.{path}")
                continue
            if memory_probe:
                wrapper = self._memory_wrapper(name, orig)
            elif mode == "count":
                wrapper = self._count_wrapper(name, orig)
            else:
                wrapper = self._time_wrapper(name, orig, mode == "span")
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, orig))
                continue
            # a module function: rebind every digsys module's reference to it
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.partition(".")[0] != "digsys":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    # -- wrappers ----------------------------------------------------------------

    def _count_wrapper(self, name, fn):
        stat = self.stats[name]
        tracer = self

        def counted(*args, **kwargs):
            if tracer.op_id is not None:
                stat.calls += 1
            return fn(*args, **kwargs)

        return counted

    def _time_wrapper(self, name, fn, keep_span):
        stat = self.stats[name]
        tracer = self
        clock = time.perf_counter
        post = name in ("rings.fp_mul", "digits.sequence", "product.expand", "witness.closure")

        def timed(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            if keep_span:
                tracer._span_ids += 1
                frame = [0.0, tracer._span_ids]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                parent[0] += dur
                if keep_span:
                    tracer._add_span((frame[1], name, start, end, parent[1], tracer.op_id))
            if post:
                _record_result(name, stat, tracer.op_id, args, result)
            return result

        return timed

    def _memory_wrapper(self, name, fn):
        stat = self.stats[name]
        tracer = self

        def probed(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                stat.peak_kb = max(stat.peak_kb, peak / 1024)
                stat.calls += 1

        return probed

    # -- results -------------------------------------------------------------------

    def layer_metrics(self, peak_kb: float) -> dict:
        """The per-layer metrics from the traced calls; a layer whose
        functions are missing reads 0.  The cli import times and the
        overhead ratio are measured elsewhere."""
        s = self.stats
        out = {}
        for metric, _, _ in LAYER_METRICS:
            layer, _, what = metric.rpartition(".")
            stat = s.get(layer, LayerStat())
            if what in ("calls", "self_s", "steps", "elements", "overshoot"):
                out[metric] = getattr(stat, what)
        out["rings.fp_mul.max_deg"] = max(s.get("rings.fp_mul", LayerStat()).max_deg, 0)
        seq = s.get("digits.sequence", LayerStat())
        out["digits.sequence.us_per_step"] = seq.total_s / seq.steps * 1e6 if seq.steps else 0.0
        out["digits.sequence.peak_kb"] = peak_kb
        clo = s.get("witness.closure", LayerStat())
        out["witness.closure.us_per_element"] = (
            clo.total_s / clo.elements * 1e6 if clo.elements else 0.0
        )
        out["witness.closure.per_system"] = clo.calls / len(clo.systems) if clo.systems else 0.0
        out["witness.closure.stabilized_ratio"] = clo.stabilized / clo.calls if clo.calls else 0.0
        return out


def _resolve(module: str, path: str):
    """(owner, attribute, current value) of a target, value None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    if isinstance(owner, type):
        return owner, attr, owner.__dict__.get(attr)
    return owner, attr, getattr(owner, attr, None)
