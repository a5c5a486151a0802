"""Span recorder and per-module attribution for the traced benchmark run.

Tracing happens entirely from outside the package: every public function
of each ``netcoord`` module (its ``__all__`` functions plus the public
instance methods of its public classes) is wrapped, and every global
name under which a ``netcoord`` module looks that function up is rebound
to the wrapper.  A call through any rebound name opens a span (name,
start, end, parent id) that stays in memory until the run ends.

A span's self time is its duration minus the time its direct child spans
cover.  Self time is summed per module and attributed to the metrics in
``OWNERS``: a span counts toward the nearest owner among itself and its
ancestors that are unbroken members of the same module, so the
``front_f_array`` calls a wave solve makes land in ``contagion.solve.s``
while the ``StepFn.eval_array`` calls it makes land in ``stepfn``.

The per-flip and per-cube ratios divide inclusive call times taken in
the untraced pass, where only the ``UNIT_CLOCKS`` functions are wrapped,
so the tracer's per-span cost on the per-element calls inside them does
not reach the ratios.

Functions that appear as a default argument of some package function are
left unwrapped: the package compares such callables by identity (e.g.
``solve_wave(f=front_f)`` selects its vectorized path with
``f is front_f``), and a wrapper would change which path runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

MODULES = ("stepfn", "game", "network", "dynamics", "contagion", "cubes", "harness", "cli")

# Metric stem -> qualified functions whose spans own it.
OWNERS = {
    "network.build": ("network.complete_graph", "network.disjoint_copies", "network.lattice", "network.load_edgelist"),
    "network.matvec": ("network.neighborhood_fractions",),
    "dynamics.extremal": ("dynamics.extremal_equilibria",),
    "dynamics.closure": ("dynamics.upper_closure", "dynamics.lower_closure"),
    "stepfn.eval_array": ("stepfn.StepFn.eval_array",),
    "stepfn.ru_dominant": ("stepfn.ru_dominant",),
    "contagion.build": ("contagion.build_delta_wave",),
    "contagion.solve": ("contagion.solve_wave",),
    "contagion.verify": ("contagion.ContagionWave.verify_grid",),
    "cubes.classify": ("cubes.classify_bad",),
    "cubes.good_set": ("cubes.good_set_search",),
    "cubes.report": ("cubes.cube_report", "cubes.report_to_csv"),
    "game.sample_shocks": ("game.sample_shocks",),
    "harness.replication": ("harness.run_replication",),
    "harness.run": ("harness.run_experiment",),
}
_OWNER_OF = {fn: stem for stem, fns in OWNERS.items() for fn in fns}
_ASYNC = ("dynamics.upper_dynamics", "dynamics.lower_dynamics")
_AUDIT = ("dynamics.audit_main_bound",)
_CLASSIFY = ("cubes.classify_bad",)
UNIT_CLOCKS = _ASYNC + _AUDIT + _CLASSIFY

# Per-layer metrics in report order: name -> unit.  Counts are
# deterministic for a fixed input; times and their ratios are not.
PER_LAYER = {
    "network.build.s": "s",
    "network.matvec.calls": "count",
    "network.matvec.nnz": "count",
    "network.matvec.s": "s",
    "network.matvec.ms_per_call": "ms",
    "network.self.s": "s",
    "dynamics.extremal.s": "s",
    "dynamics.closure.s": "s",
    "dynamics.flips": "count",
    "dynamics.async.us_per_flip": "us",
    "dynamics.audit.us_per_flip": "us",
    "dynamics.self.s": "s",
    "stepfn.eval_array.calls": "count",
    "stepfn.eval_array.s": "s",
    "stepfn.ru_dominant.s": "s",
    "stepfn.self.s": "s",
    "contagion.build.s": "s",
    "contagion.solve.calls": "count",
    "contagion.solve.s": "s",
    "contagion.front_evals": "count",
    "contagion.front_points": "count",
    "contagion.verify.s": "s",
    "contagion.verify.points": "count",
    "contagion.solve_yield": "ratio",
    "contagion.self.s": "s",
    "cubes.classify.calls": "count",
    "cubes.classify.cubes": "count",
    "cubes.classify.s": "s",
    "cubes.classify.us_per_cube": "us",
    "cubes.good_set.s": "s",
    "cubes.report.s": "s",
    "cubes.self.s": "s",
    "game.sample_shocks.s": "s",
    "game.self.s": "s",
    "harness.replication.s": "s",
    "harness.run.s": "s",
    "harness.self.s": "s",
    "cli.s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}
DETERMINISTIC = tuple(k for k, unit in PER_LAYER.items() if unit == "count") + ("contagion.solve_yield",)


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Qualified function -> hook(counts, args, kwargs, result) adding
# argument- or result-derived counts at the span boundary.
_COUNTERS = {
    "network.neighborhood_fractions": lambda c, a, k, r: _add(
        c, "network.matvec.nnz", int(_arg(a, k, 0, "g").weights.nnz)
    ),
    "dynamics.upper_dynamics": lambda c, a, k, r: _add(c, "dynamics.flips", r.n_steps),
    "dynamics.lower_dynamics": lambda c, a, k, r: _add(c, "dynamics.flips", r.n_steps),
    "dynamics.audit_main_bound": lambda c, a, k, r: _add(c, "dynamics.audit.flips", _arg(a, k, 4, "trace").n_steps),
    "contagion.front_f_array": lambda c, a, k, r: _add(c, "contagion.front_points", int(np.size(_arg(a, k, 0, "x")))),
    "contagion.ContagionWave.experienced_fraction": lambda c, a, k, r: _add(
        c, "contagion.verify.points", int(np.size(_arg(a, k, 1, "x")))
    ),
    "contagion.build_delta_wave": lambda c, a, k, r: _add(c, "contagion.waves", 1),
    "cubes.classify_bad": lambda c, a, k, r: _add(c, "cubes.classify.cubes", int(_arg(a, k, 0, "part").n_small)),
}


@dataclass
class SpanRecorder:
    """Flat in-memory span store; parent ids come from the open-span stack."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()


def _wrap(fn, qualname: str, rec: SpanRecorder):
    hook = _COUNTERS.get(qualname)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = rec.open(qualname)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if hook is not None:
            hook(rec.counts, args, kwargs, result)
        return result

    return traced


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return list(names)


def _default_callables(funcs) -> set[int]:
    ids = set()
    for fn in funcs:
        for value in (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values()):
            if callable(value):
                ids.add(id(value))
    return ids


class Tracer:
    """Installs span wrappers into the loaded package and removes them.

    ``only``: wrap just these qualified functions instead of every public one.
    """

    def __init__(self, only: tuple[str, ...] | None = None):
        self.rec = SpanRecorder()
        self.only = only
        self._undo: list[tuple[object, str, object]] = []

    def _wanted(self, qualname: str) -> bool:
        return self.only is None or qualname in self.only

    def install(self) -> None:
        mods = {name: importlib.import_module(f"netcoord.{name}") for name in MODULES}
        functions: dict[int, tuple[object, str]] = {}
        methods: list[tuple[type, str, object, str]] = []
        for short, mod in mods.items():
            for name in _public_names(mod):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    functions[id(obj)] = (obj, f"{short}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, val in vars(obj).items():
                        if not attr.startswith("_") and inspect.isfunction(val):
                            methods.append((obj, attr, val, f"{short}.{obj.__name__}.{attr}"))
        sentinels = _default_callables([f for f, _ in functions.values()] + [m[2] for m in methods])
        wrappers = {
            fid: _wrap(fn, qual, self.rec)
            for fid, (fn, qual) in functions.items()
            if fid not in sentinels and self._wanted(qual)
        }
        for cls, attr, fn, qual in methods:
            if id(fn) not in sentinels and self._wanted(qual):
                self._set(cls, attr, _wrap(fn, qual, self.rec))
        for modname, mod in list(sys.modules.items()):
            if modname == "netcoord" or modname.startswith("netcoord."):
                for gname, gval in list(vars(mod).items()):
                    if id(gval) in wrappers and functions[id(gval)][0] is gval:
                        self._set(mod, gname, wrappers[id(gval)])

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _inclusive(rec: SpanRecorder, names: tuple[str, ...]) -> float:
    return sum(e - s for name, s, e in zip(rec.names, rec.starts, rec.ends) if name in names)


def per_layer_metrics(
    rec: SpanRecorder, clocks: SpanRecorder, untraced_s: float, traced_s: float
) -> dict[str, float]:
    """Reduce the traced spans ``rec`` and the untraced ``UNIT_CLOCKS`` spans ``clocks`` to ``PER_LAYER``."""
    n = len(rec.names)
    dur = [rec.ends[i] - rec.starts[i] for i in range(n)]
    self_t = list(dur)
    for i in range(n):
        p = rec.parents[i]
        if p >= 0:
            self_t[p] -= dur[i]
    module = [name.split(".", 1)[0] for name in rec.names]
    calls: dict[str, int] = {}
    by_module: dict[str, float] = {m: 0.0 for m in MODULES}
    by_owner: dict[str, float] = {stem: 0.0 for stem in OWNERS}
    for i in range(n):
        name = rec.names[i]
        calls[name] = calls.get(name, 0) + 1
        by_module[module[i]] += self_t[i]
        j = i
        while j >= 0 and module[j] == module[i]:
            stem = _OWNER_OF.get(rec.names[j])
            if stem is not None:
                by_owner[stem] += self_t[i]
                break
            j = rec.parents[j]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    counts, clocked = rec.counts, clocks.counts
    matvec_calls = calls.get("network.neighborhood_fractions", 0)
    solves = calls.get("contagion.solve_wave", 0)
    out = {
        "network.build.s": by_owner["network.build"],
        "network.matvec.calls": matvec_calls,
        "network.matvec.nnz": counts.get("network.matvec.nnz", 0),
        "network.matvec.s": by_owner["network.matvec"],
        "network.matvec.ms_per_call": 1e3 * ratio(by_owner["network.matvec"], matvec_calls),
        "dynamics.extremal.s": by_owner["dynamics.extremal"],
        "dynamics.closure.s": by_owner["dynamics.closure"],
        "dynamics.flips": counts.get("dynamics.flips", 0),
        "dynamics.async.us_per_flip": 1e6 * ratio(_inclusive(clocks, _ASYNC), clocked.get("dynamics.flips", 0)),
        "dynamics.audit.us_per_flip": 1e6
        * ratio(_inclusive(clocks, _AUDIT), clocked.get("dynamics.audit.flips", 0)),
        "stepfn.eval_array.calls": calls.get("stepfn.StepFn.eval_array", 0),
        "stepfn.eval_array.s": by_owner["stepfn.eval_array"],
        "stepfn.ru_dominant.s": by_owner["stepfn.ru_dominant"],
        "contagion.build.s": by_owner["contagion.build"],
        "contagion.solve.calls": solves,
        "contagion.solve.s": by_owner["contagion.solve"],
        "contagion.front_evals": calls.get("contagion.front_f_array", 0),
        "contagion.front_points": counts.get("contagion.front_points", 0),
        "contagion.verify.s": by_owner["contagion.verify"],
        "contagion.verify.points": counts.get("contagion.verify.points", 0),
        "contagion.solve_yield": ratio(counts.get("contagion.waves", 0), solves),
        "cubes.classify.calls": calls.get("cubes.classify_bad", 0),
        "cubes.classify.cubes": counts.get("cubes.classify.cubes", 0),
        "cubes.classify.s": by_owner["cubes.classify"],
        "cubes.classify.us_per_cube": 1e6
        * ratio(_inclusive(clocks, _CLASSIFY), clocked.get("cubes.classify.cubes", 0)),
        "cubes.good_set.s": by_owner["cubes.good_set"],
        "cubes.report.s": by_owner["cubes.report"],
        "game.sample_shocks.s": by_owner["game.sample_shocks"],
        "harness.replication.s": by_owner["harness.replication"],
        "harness.run.s": by_owner["harness.run"],
        "cli.s": by_module["cli"],
        "trace.spans": n,
        "trace.overhead_ratio": ratio(traced_s, untraced_s),
    }
    for m in MODULES:
        if m != "cli":
            out[f"{m}.self.s"] = by_module[m]
    return {name: out[name] for name in PER_LAYER}
