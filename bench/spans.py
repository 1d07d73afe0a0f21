"""Span recording around the public functions of each ``groupfair`` module,
and the per-layer metrics derived from the spans.

:class:`Recorder` wraps each target function.  It replaces the module
attribute and every other name in the package bound to the same function
object at import (``cli.parse_instance``, ``protocols.democratic_report``
and so on), so calls through either spelling are recorded.  Spans stay in
memory; the caller writes them out when the run ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Every layer metric named ``*_s`` is a sum of self times, so
the layers partition each job's in-process ``cli.main`` time.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

#: The wrapped functions, by module.
TARGETS = {
    "model": ("parse_instance", "parse_allocation", "serialize_instance",
              "binarize_instance"),
    "budgets": ("maxh",),
    "fairness": ("democratic_report", "mms_share"),
    "protocols": ("rwav2", "cwav2", "rwavk", "rwav2_enhanced",
                  "best_k_protocol", "identical_local_search", "line2", "linek"),
    "oracles": ("max_h", "exists_h", "generate"),
    "cli": ("main",),
}

#: Protocols that pick goods turn by turn and return a per-turn trace.
TURN_ENGINES = {"protocols.rwav2", "protocols.cwav2", "protocols.rwavk"}


@dataclass
class Span:
    name: str
    job: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _turn_masks(name: str, inst, kwargs: dict):
    """Desired masks the turn engine updates on each pick (rwavk keeps
    each member's ``c`` lowest-index desired goods)."""
    masks = [[a.valuation.desired.mask for a in grp] for grp in inst.groups]
    if name != "protocols.rwavk":
        return masks
    c = kwargs["c"]

    def truncate(mask):
        out = 0
        for _ in range(c):
            if not mask:
                break
            low = mask & -mask
            out |= low
            mask ^= low
        return out

    return [[truncate(mask) for mask in grp] for grp in masks]


def _count(name: str, args: tuple, kwargs: dict, result) -> dict:
    """The work counts recorded on a span of ``name``."""
    if name in ("model.parse_instance", "model.parse_allocation"):
        return {"input_bytes": len(args[0].encode())}
    if name == "fairness.democratic_report":
        return {"agents": sum(args[0].sizes)}
    if name == "fairness.mms_share":
        return {"calls": 1}
    if name in TURN_ENGINES:
        masks = [m for grp in _turn_masks(name, args[0], kwargs) for m in grp]
        updates = sum(
            sum(1 for m in masks if m >> rec.pick & 1) for rec in result.trace.turns
        )
        return {"turns": len(result.trace.turns), "member_updates": updates}
    if name in ("oracles.max_h", "oracles.exists_h"):
        inst = args[0]
        return {
            "examined": result.allocations_examined,
            "space": inst.k ** inst.m,
            "binary": int(inst.is_binary()),
        }
    return {}


class Recorder:
    """Records spans of calls into the wrapped functions."""

    def __init__(self):
        self.spans: list = []
        self.job = "setup"
        self._stack: list = []
        self._restore: list = []
        self._pending: list = []

    def _wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, rec.job, time.perf_counter(),
                        parent=rec._stack[-1] if rec._stack else -1)
            rec.spans.append(span)
            rec._stack.append(len(rec.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            rec._pending.append((span, args, kwargs, result))
            return result

        return wrapper

    def install(self):
        """Wrap every target under every name the package binds it to."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "groupfair" or key.startswith("groupfair.")]
        for mod_name, names in TARGETS.items():
            module = sys.modules[f"groupfair.{mod_name}"]
            for fn_name in names:
                original = getattr(module, fn_name, None)
                if original is None:
                    raise LookupError(f"span target groupfair.{mod_name}.{fn_name} is gone")
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def count(self):
        """Record the work counts of the calls made since the last count.

        Counting walks protocol traces, so it runs after the job rather
        than inside any span."""
        for span, args, kwargs, result in self._pending:
            span.counts = _count(span.name, args, kwargs, result)
        self._pending.clear()

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def record(self, name: str, start: float, end: float):
        """Add a span timed by the caller (no children)."""
        self.spans.append(Span(name, self.job, start, end))


def assign_self_times(spans: list):
    """Set each span's self time: its duration minus the union of its
    children's intervals clipped to it."""
    children: dict = {}
    for i, span in enumerate(spans):
        children.setdefault(span.parent, []).append(i)
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        span.self_s = span.duration - covered


def check_accounting(spans: list, tolerance: float = 1e-6) -> dict:
    """Per job, the sum of self times against its ``cli.main`` time.

    Raises when they disagree: the layers must account for the job."""
    out = {}
    for span in spans:
        if span.name == "cli.main" and span.parent == -1:
            out[span.job] = {"main_s": span.duration, "self_sum_s": 0.0}
    for span in spans:
        if span.job in out:
            out[span.job]["self_sum_s"] += span.self_s
    for job, row in out.items():
        if abs(row["main_s"] - row["self_sum_s"]) > tolerance:
            raise AssertionError(
                f"job {job}: self times sum to {row['self_sum_s']:.6f}s, "
                f"cli.main took {row['main_s']:.6f}s")
    return out


def missing_spans(spans: list, job: str, expected) -> list:
    """The expected span names never recorded for ``job``."""
    seen = {s.name for s in spans if s.job == job}
    return [name for name in expected if name not in seen]


def _self(spans, *names) -> float:
    return sum(s.self_s for s in spans if s.name in names)


def _sum(spans, names, key) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.name in names)


def layer_metrics(spans: list) -> dict:
    """The span-derived per-layer metrics of one traced pass."""
    sweeps = ("oracles.max_h", "oracles.exists_h")
    protocols = {f"protocols.{n}" for n in TARGETS["protocols"]}
    picking = _self(spans, *protocols)
    turns = _sum(spans, protocols, "turns")

    def per_s(binary: int) -> float:
        chosen = [s for s in spans if s.name in sweeps and s.counts["binary"] == binary]
        busy = sum(s.self_s for s in chosen)
        return sum(s.counts["examined"] for s in chosen) / busy if busy else 0.0

    exists = [s for s in spans if s.name == "oracles.exists_h"]
    space = sum(s.counts["space"] for s in exists)
    return {
        "model.parse_instance_s": _self(spans, "model.parse_instance"),
        "model.parse_allocation_s": _self(spans, "model.parse_allocation"),
        "model.serialize_instance_s": _self(spans, "model.serialize_instance"),
        "model.binarize_s": _self(spans, "model.binarize_instance"),
        "model.input_bytes": _sum(
            spans, ("model.parse_instance", "model.parse_allocation"), "input_bytes"),
        "fairness.report_s": _self(spans, "fairness.democratic_report"),
        "fairness.agents_checked": _sum(spans, ("fairness.democratic_report",), "agents"),
        "fairness.mms_share_s": _self(spans, "fairness.mms_share"),
        "fairness.mms_calls": _sum(spans, ("fairness.mms_share",), "calls"),
        "protocols.picking_s": picking,
        "protocols.turns": turns,
        "protocols.turn_ms": 1000 * picking / turns if turns else 0.0,
        "protocols.member_updates": _sum(spans, protocols, "member_updates"),
        "oracles.sweep_s": _self(spans, *sweeps),
        "oracles.allocations_examined": _sum(spans, sweeps, "examined"),
        "oracles.binary_alloc_per_s": per_s(1),
        "oracles.generic_alloc_per_s": per_s(0),
        "oracles.exists_examined_ratio": (
            sum(s.counts["examined"] for s in exists) / space if space else 0.0),
        "oracles.generate_s": _self(spans, "oracles.generate"),
        "cli.self_s": _self(spans, "cli.main"),
    }
