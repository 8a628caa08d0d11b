"""Span tracer wrapped around levyfield's public entry points from outside.

``Tracer.install`` replaces each traced function or method with a wrapper on
every module attribute, class attribute and function default that refers to
it, so calls made through names other modules imported (``verify`` calling
``integrate``, ``paired_evaluations`` defaulting to ``sample_field``) are
traced too.  ``uninstall`` puts every original object back.  Nothing under
``src/`` is edited.

Coarse entry points are kept as spans (name, start, end, parent, operation
id, self time) in memory and written out as JSONL.  Per-point kernel methods
and ``scipy.integrate.quad`` are called millions of times by the slow
quadrature fixtures, so they are only aggregated in place (calls, total and
self time); their time still counts as child time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import math
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# (module, attribute, span name) for module-level functions.
FUNCTIONS = [
    ("levyfield.sampler", "sample_marginals", "sampler.sample_marginals"),
    ("levyfield.sampler", "sample_field", "sampler.sample_field"),
    ("levyfield.integrate", "integrate", "integrate.integrate"),
    ("levyfield.integrate", "empirical_cf", "integrate.empirical_cf"),
    ("levyfield.integrate", "cylindrical_characteristics",
     "integrate.cylindrical_characteristics"),
    ("levyfield.analysis", "lm_membership", "analysis.lm_membership"),
    ("levyfield.analysis", "tempered_test", "analysis.tempered_test"),
    ("levyfield.quadrature", "box_integral", "quadrature.box_integral"),
    ("levyfield.quadrature", "region_integral", "quadrature.region_integral"),
    ("levyfield.verify", "independence_test", "verify.independence_test"),
    ("levyfield.verify", "paired_evaluations", "verify.paired_evaluations"),
    ("levyfield.verify", "onb_counterexample", "verify.onb_counterexample"),
    ("levyfield.verify", "stationary_increment_test",
     "verify.stationary_increment_test"),
    ("levyfield.verify", "cf_match_test", "verify.cf_match_test"),
    ("levyfield.verify", "embedding_inequality_check",
     "verify.embedding_inequality_check"),
    ("levyfield.config", "load_config", "config.load_config"),
    ("levyfield.io", "atomic_write_bytes", "io.atomic_write_bytes"),
    ("levyfield.io", "atomic_write_text", "io.atomic_write_text"),
    ("levyfield.io", "write_jsonl", "io.write_jsonl"),
    ("levyfield.io", "write_jump_records", "io.write_jump_records"),
    ("levyfield.io", "write_frames", "io.write_frames"),
    ("levyfield.io", "write_cf_csv", "io.write_cf_csv"),
    ("levyfield.io", "write_sheet_csv", "io.write_sheet_csv"),
    ("levyfield.io", "write_manifest", "io.write_manifest"),
    # private, but it is the only per-task boundary of ``levy-field run``
    ("levyfield.cli", "_run_task", "cli.task"),
]

# (module, class, method, span name)
METHODS = [
    ("levyfield.sampler", "FieldRealization", "evaluate", "sampler.evaluate"),
    ("levyfield.gaussian", "WhiteNoiseField", "grid_values", "gaussian.grid_values"),
    ("levyfield.gaussian", "WhiteNoiseField", "value", "gaussian.value"),
    ("levyfield.sheets", "SheetRealization", "corner_grid", "sheets.corner_grid"),
    ("levyfield.characteristics", "Characteristics", "levy_symbol",
     "characteristics.levy_symbol"),
    ("levyfield.characteristics", "Characteristics", "control_measure",
     "characteristics.control_measure"),
]

SCALAR_KERNEL_METHODS = ("tail_mass", "tail_masses")

# The benchmark's own module whose imported references to traced functions
# are redirected as well.
CALLERS = ("workloads",)


def _traced_modules():
    """levyfield's modules plus the benchmark's caller modules, as (name, module)."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "levyfield" or name.startswith("levyfield.")
                                or name in CALLERS):
            yield name, mod


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, op, self_s)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, total, self
        self.counts = defaultdict(float)
        self.op = None
        self._stack: list[list] = []   # [start, child_s, span id or None]
        self._ids: list[int] = []      # ids of open recorded spans
        self._span_ids = itertools.count(1)
        self._kernel_depth = 0
        self._paused = False
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------
    def _enter(self) -> list:
        frame = [0.0, 0.0, next(self._span_ids)]
        self._ids.append(frame[2])
        self._stack.append(frame)
        frame[0] = perf()
        return frame

    def _exit(self, frame: list, name: str) -> None:
        end = perf()
        self._stack.pop()
        dur = end - frame[0]
        self_s = dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += self_s
        self._ids.pop()
        parent = self._ids[-1] if self._ids else None
        self.spans.append((frame[2], name, frame[0], end, parent, self.op, self_s))

    def run_op(self, name: str, op_id: str, fn, *args):
        """Run one benchmark operation as a root span with its own id."""
        self.op = op_id
        frame = self._enter()
        try:
            return fn(*args)
        finally:
            self._exit(frame, f"op.{name}")
            self.op = None

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` spent outside the program out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through untraced (used by the counting hooks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- wrappers -------------------------------------------------------------
    def _wrap(self, fn, name, pre=None, post=None):
        """Wrapper that records a span (``name`` may be a function of the args)."""
        tracer = self
        dynamic = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused or tracer._kernel_depth:
                return fn(*args, **kwargs)
            if pre is not None:
                args, kwargs = pre(tracer, args, kwargs)
            label = name(args, kwargs) if dynamic else name
            frame = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, label)
            if post is not None:
                with tracer.paused():
                    post(tracer, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _wrap_aggregate(self, fn, name, counter=None):
        """Lean wrapper for per-point calls: totals only, no span record.

        Calls made while a kernel method is running pass straight through, so
        ``kernels.*`` self time includes the kernel's own nested calls and
        the ``scipy.integrate.quad`` machinery it drives.  A kernel method's
        counter counts only calls entered from outside the kernels (so
        ``tail_mass`` calling ``tail_masses`` counts once); ``quad`` counts
        every call, since the kernels themselves drive most of them.
        """
        tracer = self
        stack = self._stack
        counts = self.counts
        totals = self.totals[name]
        is_kernel = name.startswith("kernels.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if counter is not None and not (is_kernel and tracer._kernel_depth):
                counts[counter] += 1
            if tracer._kernel_depth:
                return fn(*args, **kwargs)
            if is_kernel:
                tracer._kernel_depth = 1
            frame = [perf(), 0.0, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - frame[0]
                stack.pop()
                tracer._kernel_depth = 0
                if stack:
                    stack[-1][1] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every traced module attribute and default at ``wrapper``."""
        for mod_name, mod in _traced_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)
                elif inspect.isfunction(value):
                    self._patch_defaults(value, original, wrapper)
                elif inspect.isclass(value) and value.__module__ == mod_name:
                    for member in vars(value).values():
                        if inspect.isfunction(member):
                            self._patch_defaults(member, original, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append(("attr", owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_defaults(self, func, original, wrapper) -> None:
        defaults = func.__defaults__
        if defaults and any(d is original for d in defaults):
            self._patches.append(("defaults", func, None, defaults))
            func.__defaults__ = tuple(wrapper if d is original else d
                                      for d in defaults)
        kwdefaults = func.__kwdefaults__
        if kwdefaults and any(d is original for d in kwdefaults.values()):
            self._patches.append(("kwdefaults", func, None, dict(kwdefaults)))
            func.__kwdefaults__ = {k: (wrapper if d is original else d)
                                   for k, d in kwdefaults.items()}

    def install(self) -> None:
        import scipy.integrate

        import levyfield.kernels as kernels

        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            pre, post = _HOOKS.get(name, (None, None))
            label = _task_label if name == "cli.task" else name
            self._replace_everywhere(original, self._wrap(original, label,
                                                          pre=pre, post=post))
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            pre, post = _HOOKS.get(name, (None, None))
            self._patch(cls, attr, self._wrap(vars(cls)[attr], name,
                                              pre=pre, post=post))
        bases = (kernels.JumpKernel, kernels.JumpSizeDistribution)
        for cls in list(vars(kernels).values()):
            if not (inspect.isclass(cls) and issubclass(cls, bases)):
                continue
            for attr, member in list(vars(cls).items()):
                if inspect.isfunction(member) and not attr.startswith("_"):
                    self._patch(cls, attr, self._wrap_aggregate(
                        member, f"kernels.{cls.__name__}.{attr}",
                        "kernels.scalar_calls" if attr in SCALAR_KERNEL_METHODS
                        else None))
        quad = scipy.integrate.quad
        wrapped = self._wrap_aggregate(quad, "scipy.quad", "kernels.quad_calls")
        self._patch(scipy.integrate, "quad", wrapped)
        self._replace_everywhere(quad, wrapped)

    def uninstall(self) -> None:
        for kind, owner, attr, value in reversed(self._patches):
            if kind == "attr":
                setattr(owner, attr, value)
            elif kind == "defaults":
                owner.__defaults__ = value
            else:
                owner.__kwdefaults__ = value
        self._patches.clear()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, name, start, end, parent, op, self_s in self.spans:
                out.write(json.dumps({"id": sid, "name": name, "start": start,
                                      "end": end, "parent": parent, "op": op,
                                      "self_s": self_s}) + "\n")
            for name, (calls, total, self_s) in sorted(self.totals.items()):
                out.write(json.dumps({"aggregate": name, "calls": calls,
                                      "total_s": total, "self_s": self_s}) + "\n")
            out.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def installed_wrappers() -> list[str]:
    """Names of traced attributes that currently hold a tracer wrapper."""
    import scipy.integrate

    found = []
    if hasattr(scipy.integrate.quad, "__perfbench_original__"):
        found.append("scipy.integrate.quad")
    for mod_name, mod in _traced_modules():
        for attr, value in vars(mod).items():
            holders = [value]
            if inspect.isclass(value):
                holders = list(vars(value).values())
            if any(hasattr(h, "__perfbench_original__") for h in holders):
                found.append(f"{mod_name}.{attr}")
    return found


# --------------------------------------------------------------------------
# Counting hooks: work counts read from call arguments and return values
# --------------------------------------------------------------------------

def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _task_label(args, kwargs):
    return "cli.task." + _arg(args, kwargs, 1, "task")["kind"]


def _marginal_jumps(tracer, args, kwargs, result):
    # computed: T * spatial_mass(region) * tail_mass(eps) * N
    chars, cfg = _arg(args, kwargs, 0, "chars"), _arg(args, kwargs, 1, "config")
    region = _arg(args, kwargs, 2, "region") or cfg.window
    if chars.nu is None or cfg.eps <= 0.0:
        return
    rate = (cfg.horizon * chars.nu.spatial_mass(region)[0]
            * chars.nu.kernel.tail_mass(cfg.eps))
    tracer.counts["sampler.sample_marginals.jumps"] += rate * cfg.replicates


def _field_jumps(tracer, args, kwargs, result):
    tracer.counts["sampler.sample_field.jumps"] += len(result.jump_sizes)


def _grid_cells(tracer, args, kwargs, result):
    edges = _arg(args, kwargs, 3, "edges")
    tracer.counts["gaussian.grid_values.cells"] += math.prod(len(e) - 1 for e in edges)


def _corner_points(tracer, args, kwargs, result):
    axes = _arg(args, kwargs, 2, "axes")
    tracer.counts["sheets.corner_grid.points"] += math.prod(len(a) for a in axes)


def _membership_shells(tracer, args, kwargs, result):
    tracer.counts["analysis.lm_membership.shells"] += len(result.shells)


def _independence_work(tracer, args, kwargs, result):
    n = len(_arg(args, kwargs, 0, "x"))
    tracer.counts["verify.independence_test.pairs_used"] += min(
        n, kwargs.get("max_points", 2000))
    tracer.counts["verify.independence_test.permutations"] += kwargs.get(
        "permutations", 200)


def _count_bytes(tracer, args, kwargs, result):
    tracer.counts["io.bytes"] += len(_arg(args, kwargs, 1, "data"))
    tracer.counts["io.files"] += 1


def _count_nodes(tracer, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    counts = tracer.counts

    def counted(x):
        counts["quadrature.box_integral.nodes"] += len(x)
        return f(x)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=counted)
    return args, kwargs


def _convergence(tracer, args, kwargs, result):
    from levyfield.quadrature import ABS_TOL, REL_TOL

    value, err = result
    tol = max(_arg(args, kwargs, 2, "abs_tol", ABS_TOL),
              _arg(args, kwargs, 3, "rel_tol", REL_TOL) * abs(value))
    if not err <= tol:
        tracer.counts["quadrature.box_integral.unconverged"] += 1


_HOOKS = {
    "sampler.sample_marginals": (None, _marginal_jumps),
    "sampler.sample_field": (None, _field_jumps),
    "gaussian.grid_values": (None, _grid_cells),
    "sheets.corner_grid": (None, _corner_points),
    "analysis.lm_membership": (None, _membership_shells),
    "verify.independence_test": (None, _independence_work),
    "io.atomic_write_bytes": (None, _count_bytes),
    "quadrature.box_integral": (_count_nodes, _convergence),
}


# --------------------------------------------------------------------------
# Per-module metrics
# --------------------------------------------------------------------------

# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER_UNITS = {
    "sampler.sample_marginals.self_s": "s",
    "sampler.sample_marginals.jumps": "count",
    "sampler.sample_marginals.ns_per_jump": "ns",
    "sampler.sample_field.self_s": "s",
    "sampler.sample_field.calls": "count",
    "sampler.sample_field.jumps": "count",
    "sampler.evaluate.self_s": "s",
    "gaussian.grid_values.self_s": "s",
    "gaussian.grid_values.calls": "count",
    "gaussian.grid_values.cells": "count",
    "gaussian.value.self_s": "s",
    "gaussian.value.calls": "count",
    "integrate.integrate.self_s": "s",
    "integrate.integrate.calls": "count",
    "integrate.empirical_cf.self_s": "s",
    "integrate.cylindrical_characteristics.self_s": "s",
    "sheets.corner_grid.self_s": "s",
    "sheets.corner_grid.points": "count",
    "analysis.lm_membership.self_s": "s",
    "analysis.lm_membership.calls": "count",
    "analysis.lm_membership.shells": "count",
    "analysis.tempered_test.self_s": "s",
    "quadrature.box_integral.self_s": "s",
    "quadrature.box_integral.calls": "count",
    "quadrature.box_integral.nodes": "count",
    "quadrature.box_integral.unconverged": "count",
    "quadrature.box_integral.converged_frac": "ratio",
    "kernels.self_s": "s",
    "kernels.scalar_calls": "count",
    "kernels.quad_calls": "count",
    "characteristics.levy_symbol.self_s": "s",
    "characteristics.levy_symbol.calls": "count",
    "characteristics.control_measure.self_s": "s",
    "verify.independence_test.self_s": "s",
    "verify.independence_test.calls": "count",
    "verify.independence_test.ms_per_permutation": "ms",
    "verify.independence_test.pairs_used": "count",
    "verify.paired_evaluations.self_s": "s",
    "verify.onb_counterexample.self_s": "s",
    "verify.stationary_increment_test.self_s": "s",
    "verify.cf_match_test.self_s": "s",
    "verify.embedding_inequality_check.self_s": "s",
    "config.load_config.self_s": "s",
    "io.write.self_s": "s",
    "io.bytes": "count",
    "io.files": "count",
    "cli.task.sample.s": "s",
    "cli.task.sheet.s": "s",
    "cli.task.integrate.s": "s",
    "cli.task.verify-cf.s": "s",
    "cli.task.check-integrability.s": "s",
    "trace.overhead_frac": "ratio",
    "machine.rng_fill_ns": "ns",
    "machine.copy_gbps": "GB/s",
}


def module_self_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per module (the first dotted part of a span name)."""
    out: dict[str, float] = defaultdict(float)
    for name, (_, _, self_s) in tracer.totals.items():
        module = name.split(".", 1)[0]
        if module not in ("op", "scipy"):
            out[module] += self_s
    return dict(out)


def per_layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass means of the per-module metrics (without trace/machine ones)."""
    tot = tracer.totals
    cnt = tracer.counts

    def calls(name):
        return tot[name][0] / passes if name in tot else 0.0

    def self_s(name):
        return tot[name][2] / passes if name in tot else 0.0

    def count(name):
        return cnt.get(name, 0.0) / passes

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("sampler.sample_marginals", "sampler.sample_field",
                 "sampler.evaluate", "gaussian.grid_values", "gaussian.value",
                 "integrate.integrate", "integrate.empirical_cf",
                 "integrate.cylindrical_characteristics", "sheets.corner_grid",
                 "analysis.lm_membership", "analysis.tempered_test",
                 "quadrature.box_integral", "characteristics.levy_symbol",
                 "characteristics.control_measure", "verify.independence_test",
                 "verify.paired_evaluations", "verify.onb_counterexample",
                 "verify.stationary_increment_test", "verify.cf_match_test",
                 "verify.embedding_inequality_check", "config.load_config"):
        m[f"{name}.self_s"] = self_s(name)
    for name in ("sampler.sample_field", "gaussian.grid_values", "gaussian.value",
                 "integrate.integrate", "analysis.lm_membership",
                 "quadrature.box_integral", "characteristics.levy_symbol",
                 "verify.independence_test"):
        m[f"{name}.calls"] = calls(name)
    for name in ("sampler.sample_marginals.jumps", "sampler.sample_field.jumps",
                 "gaussian.grid_values.cells", "sheets.corner_grid.points",
                 "analysis.lm_membership.shells", "quadrature.box_integral.nodes",
                 "quadrature.box_integral.unconverged", "kernels.scalar_calls",
                 "kernels.quad_calls", "verify.independence_test.pairs_used",
                 "io.bytes", "io.files"):
        m[name] = count(name)
    m["sampler.sample_marginals.ns_per_jump"] = 1e9 * ratio(
        m["sampler.sample_marginals.self_s"], m["sampler.sample_marginals.jumps"])
    box_calls = m["quadrature.box_integral.calls"]
    m["quadrature.box_integral.converged_frac"] = ratio(
        box_calls - m["quadrature.box_integral.unconverged"], box_calls)
    m["kernels.self_s"] = sum(v[2] for k, v in tot.items()
                              if k.startswith("kernels.")) / passes
    m["verify.independence_test.ms_per_permutation"] = 1e3 * ratio(
        m["verify.independence_test.self_s"],
        count("verify.independence_test.permutations"))
    m["io.write.self_s"] = sum(v[2] for k, v in tot.items()
                               if k.startswith("io.")) / passes
    for kind in ("sample", "sheet", "integrate", "verify-cf", "check-integrability"):
        name = f"cli.task.{kind}"
        m[f"{name}.s"] = tot[name][1] / passes if name in tot else 0.0
    return m
