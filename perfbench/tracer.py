"""In-memory span tracer that wraps the package's layer entry points.

The traced benchmark run installs these wrappers from outside the package:
each public function a layer calls into is replaced, on the module or class
that callers look it up on, by a wrapper that records a span (name, start,
end, parent span, operation id) and the counters its result carries. Spans
stay in memory and are written out once, when the run ends.

Spans are recorded only inside an operation (``Tracer.operation``), so the
benchmark's own output checks, which call the same functions, add nothing.
A wrapped name that no longer exists (after a refactor) is reported as
missing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from array import array
from collections import defaultdict

# Layer of each span name is the text before the first dot.
LAYERS = ("solver", "radau", "whittaker", "asymptotic", "montecarlo")


class Tracer:
    """Spans live in flat arrays (nothing the garbage collector has to scan,
    even at hundreds of thousands of spans): span i has name
    ``names[kinds[i]]``, ``starts[i]``, ``ends[i]``, the index of its parent
    span (-1 for none) and its operation id (-1 for set-up)."""

    def __init__(self):
        self.names: list[str] = []
        self._kind: dict[str, int] = {}
        self.kinds = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        kind = self._kind.get(name)
        if kind is None:
            kind = self._kind[name] = len(self.names)
            self.names.append(name)
        index = len(self.starts)
        self.kinds.append(kind)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(-1 if self.op == "setup" else self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def spans(self):
        """(name, start, end, parent, op) of every span, in opening order."""
        names = self.names
        return zip((names[k] for k in self.kinds), self.starts, self.ends,
                   self.parents, self.ops)

    @contextlib.contextmanager
    def operation(self, op_id):
        """Record everything called inside as part of operation ``op_id``
        (an index, or "setup")."""
        self.op = op_id
        index = self._open("op")
        try:
            yield
        finally:
            self._close(index)
            self.op = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr, None)
        if not callable(original):
            label = owner if isinstance(owner, str) else getattr(
                owner, "__name__", "spreadimpact")
            self.missing.append(f"{label}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            index = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer._close(index)
                tracer.counts[f"{span_name}.raised.{type(exc).__name__}"] += 1
                raise
            tracer._close(index)
            if after is not None:
                replaced = after(span_name, result)
                if replaced is not None:
                    result = replaced
            return result

        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, si) -> None:
        """Wrap the layer entry points of the imported package ``si``."""
        solver = _module("spreadimpact.solver")
        asym = _module("spreadimpact.asymptotic")
        policy_cls = getattr(si, "TradingPolicy", "spreadimpact.TradingPolicy")
        self._wrap(si, "solve", "solver.solve", self._after_solve)
        self._wrap(policy_cls, "__call__", "solver.policy_eval")
        self._wrap(policy_cls, "tabulated", "solver.tabulate",
                   self._after_tabulate)
        self._wrap(solver, "integrate_guarded", _solver_leg_role,
                   self._after_leg)
        self._wrap(asym, "integrate_guarded", "radau.riccati", self._after_leg)
        self._wrap(asym, "whittaker_w_ratio", "whittaker.ratio")
        self._wrap(si, "find_z_minus", "asymptotic.find_z_minus",
                   self._after_find_z_minus)
        self._wrap(si, "asymptotic_policy", "asymptotic.policy")
        self._wrap(si, "near_boundary_slope", "asymptotic.slope")
        self._wrap(si, "simulate_paths", "montecarlo.simulate",
                   self._after_simulate)
        self._wrap(si, "estimate_esr", "montecarlo.estimate")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counters carried by results ---------------------------------------

    def _after_solve(self, name, sol):
        diag = getattr(sol, "diagnostics", {}) or {}
        self.counts["solver.bisection_iterations"] += diag.get(
            "bisection_iterations", 0)
        self.counts["solver.grid_points"] += diag.get(
            "grid_size", len(getattr(sol, "y_grid", ())))

    def _after_leg(self, name, leg):
        status = getattr(leg, "status", None)
        self.counts[f"{name}.legs"] += 1
        self.counts[f"{name}.nfev"] += getattr(leg, "nfev", 0)
        self.counts[f"{name}.njev"] += getattr(leg, "njev", 0)
        self.counts[f"{name}.steps"] += getattr(leg, "naccepted", 0)
        self.counts[f"{name}.reached"] += status == "reached"
        self.counts[f"{name}.stalled"] += status == "stalled"

    def _after_find_z_minus(self, name, sol):
        diag = getattr(sol, "diagnostics", {}) or {}
        self.counts["asymptotic.roots"] += len(diag.get("roots", ()))
        self.counts["asymptotic.rejected"] += len(
            diag.get("rejected_crossings", ()))

    def _after_simulate(self, name, ensemble):
        self.counts["montecarlo.clamp_events"] += getattr(
            ensemble, "clamp_events", 0)
        self.counts["montecarlo.path_steps"] += getattr(
            ensemble, "total_steps", 0)

    def _after_tabulate(self, name, table):
        """Time the returned lookup table, which the simulation calls once
        per step with every path's weight."""
        tracer = self

        def lookup(y):
            if tracer.op is None:
                return table(y)
            index = tracer._open("montecarlo.lookup")
            try:
                return table(y)
            finally:
                tracer._close(index)
                tracer.counts["montecarlo.lookup_path_steps"] += len(y)

        return lookup

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics over every span. ``trace.coverage`` is the share
        of the timed operations' time (set-up excluded) that layer spans
        cover."""
        total = defaultdict(float)
        calls = defaultdict(int)
        child = array("d", bytes(8 * len(self.starts)))
        for name, start, end, parent, op in self.spans():
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        layer_self = defaultdict(float)
        op_time = covered = 0.0
        for (name, start, end, parent, op), below in zip(self.spans(), child):
            self_time[name] += (end - start) - below
            layer_self[name.split(".")[0]] += (end - start) - below
            if name == "op" and op >= 0:
                op_time += end - start
                covered += below

        c = self.counts
        m = {}
        for role in ("search", "final", "riccati"):
            key = f"radau.{role}"
            for what in ("legs", "nfev", "njev", "steps"):
                m[f"{key}.{what}"] = int(c[f"{key}.{what}"])
            m[f"{key}.s"] = total[key]
        m["radau.search.reached_frac"] = _ratio(c["radau.search.reached"],
                                                c["radau.search.legs"])
        m["radau.riccati.stalled"] = int(c["radau.riccati.stalled"])

        m["solver.solve_s"] = total["solver.solve"]
        m["solver.self_s"] = self_time["solver.solve"]
        m["solver.bisection_iterations"] = int(c["solver.bisection_iterations"])
        m["solver.grid_points"] = int(c["solver.grid_points"])
        m["solver.policy_eval_s"] = total["solver.policy_eval"]
        m["solver.tabulate_s"] = total["solver.tabulate"]

        m["whittaker.ratio.calls"] = calls["whittaker.ratio"]
        m["whittaker.ratio.s"] = total["whittaker.ratio"]
        m["whittaker.ratio.cancel_frac"] = _ratio(
            c["whittaker.ratio.raised.CancellationError"],
            calls["whittaker.ratio"])

        m["asymptotic.find_z_minus_s"] = total["asymptotic.find_z_minus"]
        m["asymptotic.self_s"] = self_time["asymptotic.find_z_minus"]
        m["asymptotic.roots"] = int(c["asymptotic.roots"])
        m["asymptotic.rejected"] = int(c["asymptotic.rejected"])
        m["asymptotic.policy_s"] = total["asymptotic.policy"]

        lookup_s = total["montecarlo.lookup"]
        m["montecarlo.simulate_s"] = total["montecarlo.simulate"]
        m["montecarlo.lookup_ns_per_path_step"] = 1e9 * _ratio(
            lookup_s, c["montecarlo.lookup_path_steps"])
        m["montecarlo.step_ns_per_path_step"] = 1e9 * _ratio(
            total["montecarlo.simulate"] - lookup_s,
            c["montecarlo.path_steps"])
        m["montecarlo.estimate_s"] = total["montecarlo.estimate"]
        m["montecarlo.clamp_events"] = int(c["montecarlo.clamp_events"])
        m["montecarlo.path_steps"] = int(c["montecarlo.path_steps"])

        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = layer_self[layer]
        m["trace.coverage"] = _ratio(covered, op_time)
        m["trace.spans"] = len(self.starts)
        return m

    def write(self, path) -> None:
        """Write every span as one CSV row: name,start,end,parent,op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans():
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def _solver_leg_role(args, kwargs) -> str:
    """Solver legs with a finite step cap are the final stitched pass; the
    bracket probe and the bisection legs run uncapped."""
    max_step = kwargs.get("max_step", args[10] if len(args) > 10 else math.inf)
    return "radau.final" if math.isfinite(max_step) else "radau.search"


def _module(name: str):
    """The module, or its name if it no longer imports."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return name


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
