"""Span tracing for the benchmark's traced run, applied from outside the package.

Tracing wraps callables where their callers look them up: a module global
such as ``sonicflow.profile1d.critical_field`` is replaced by a timing
wrapper, so calls made through that name (from the benchmark or from
package code) record a span.  Each span has a name, a start, an end and
the span that caused it; a span's self time is its duration minus the
durations of its direct children.  Names that the package no longer binds
are reported as absent instead of failing the run.
"""

from __future__ import annotations

import os
import time
import types

PACKAGE = "sonicflow"
MODULES = ("gas", "profile1d", "keldysh", "mixed2d", "shockpolar", "svgplot",
           "field2d", "cli")

# (module, attribute, span name).  These are the names the per-layer metrics
# need; each is reported absent when the module no longer binds it.  The
# SciPy entry points are wrapped in the solver module that looks them up.
REQUIRED = (
    ("keldysh", "splu", "keldysh.factor"),
    ("keldysh", "solve_model", "keldysh.solve_model"),
    ("keldysh", "sonic_derivative_scan", "keldysh.sonic_derivative_scan"),
    ("keldysh", "corner_probe", "keldysh.corner_probe"),
    ("keldysh", "verify_bounds", "keldysh.verify_bounds"),
    ("mixed2d", "splu", "mixed2d.factor"),
    ("mixed2d", "build_operator", "mixed2d.build_operator"),
    ("mixed2d", "solve_linear", "mixed2d.solve_linear"),
    ("mixed2d", "sonic_smoothness_diag", "mixed2d.sonic_smoothness_diag"),
    ("profile1d", "solve_ivp", "profile1d.solve_ivp"),
    ("profile1d", "verify_lemma", "profile1d.verify_lemma"),
    ("profile1d", "integrate_profile", "profile1d.integrate_profile"),
    ("profile1d", "locate_lmax", "profile1d.locate_lmax"),
    ("profile1d", "kz_check", "profile1d.kz_check"),
    ("profile1d", "reconstruct_fields", "profile1d.reconstruct_fields"),
    ("profile1d", "critical_field", "gas.critical_field"),
    ("gas", "critical_field", "gas.critical_field"),
    ("gas", "find_u_star", "gas.find_u_star"),
    ("shockpolar", "compute_polar", "shockpolar.compute_polar"),
    ("shockpolar", "weak_state", "shockpolar.weak_state"),
    ("shockpolar", "pseudo_sonic_geometry", "shockpolar.pseudo_sonic_geometry"),
    ("svgplot", "heatmap", "svgplot.heatmap"),
    ("svgplot", "line_plot", "svgplot.line_plot"),
    ("svgplot.SvgCanvas", "write", "svgplot.write"),
    ("cli", "_digest", "cli.digest"),
    ("cli", "csv_text", "cli.csv"),
    ("cli", "field_csv_text", "cli.csv"),
    ("cli", "profile_csv_text", "cli.csv"),
)

CLI_SUBCOMMANDS = ("phase-portrait", "profile", "kz-check", "keldysh-solve",
                   "mixed-solve", "shock-polar", "geometry")


class _Stat:
    __slots__ = ("calls", "s", "self_s")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0


class _TracedLU:
    """Proxy for a SuperLU factorization that times its triangular solves."""

    def __init__(self, lu, tracer, name):
        self._lu, self._tracer, self._name = lu, tracer, name

    def solve(self, *args, **kwargs):
        return self._tracer.call(self._name, self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Records spans in memory and aggregates calls, time and self time per name."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span index, start, child time]
        self._active: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [index, 0.0, 0.0]
        self._stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        frame[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1
            dur = end - frame[1]
            self.spans[index] = (name, frame[1], end, parent)
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = _Stat()
            stat.calls += 1
            stat.self_s += dur - frame[2]
            if not self._active[name]:  # count recursive time once
                stat.s += dur
            if self._stack:
                self._stack[-1][2] += dur

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def record_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    # -- installation -----------------------------------------------------

    def _wrapper(self, fn, name):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if hook is not None:
                out = hook(tracer, name, out, args)
            return out

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the required names, then every other public package function."""
        modules = {m: getattr(package, m, None) for m in MODULES}
        for owner_path, attr, name in REQUIRED:
            owner = _resolve(modules, owner_path)
            if owner is None or not callable(owner.__dict__.get(attr)):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            self._replace(owner, attr, self._wrapper(owner.__dict__[attr], name))
        # every other public function, under its defining module's name
        for mod in modules.values():
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or not fn.__module__.startswith(PACKAGE + ".")):
                    continue
                name = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
                self._replace(mod, attr, self._wrapper(fn, name))
        cli = modules.get("cli")
        handlers = getattr(cli, "HANDLERS", None)
        for sub in CLI_SUBCOMMANDS:
            if handlers is None or sub not in handlers:
                self.absent.append(f"cli.HANDLERS[{sub}]")
                continue
            fn = handlers[sub]
            handlers[sub] = self._wrapper(fn, f"cli.handler.{sub}")
            self._undo.append((handlers, sub, fn))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._undo.clear()

    # -- summary ----------------------------------------------------------

    def stat(self, name):
        return self.stats.get(name, _Stat())

    def dump(self):
        """Aggregated table plus the raw span list, for writing out at the end."""
        return {
            "absent": self.absent,
            "stats": {k: {"calls": v.calls, "s": v.s, "self_s": v.self_s}
                      for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "maxima": dict(sorted(self.maxima.items())),
            "spans": self.spans,
        }


def _resolve(modules, path):
    head, _, rest = path.partition(".")
    obj = modules.get(head)
    for part in rest.split(".") if rest else ():
        obj = getattr(obj, part, None)
    return obj


def _hook_lu(tracer, name, lu, args):
    layer = name.split(".", 1)[0]
    # SuperLU's own count of stored L and U entries; building L and U as
    # sparse matrices to count them would copy the whole factorization
    tracer.record_max(f"{layer}.lu_nnz", int(lu.nnz))
    return _TracedLU(lu, tracer, f"{layer}.tri_solve")


def _hook_keldysh_solution(tracer, name, fld, args):
    tracer.count("keldysh.iterations", int(fld.metadata["iterations"]))
    tracer.count("keldysh.reliable", int(bool(fld.metadata["reliable"])))
    return fld


def _hook_ivp(tracer, name, sol, args):
    tracer.count("profile1d.nfev", int(sol.nfev))
    return sol


def _hook_svg_bytes(tracer, name, out, args):
    tracer.count("svgplot.bytes", os.path.getsize(args[1]))
    return out


def _hook_csv_bytes(tracer, name, text, args):
    tracer.count("cli.csv.bytes", len(text.encode()))
    return text


# span name -> hook run on the result; keyed by span so that every binding
# of a function (e.g. solve_model in keldysh and in cli) counts alike
_HOOKS = {"keldysh.factor": _hook_lu, "mixed2d.factor": _hook_lu,
          "keldysh.solve_model": _hook_keldysh_solution,
          "profile1d.solve_ivp": _hook_ivp, "svgplot.write": _hook_svg_bytes,
          "cli.csv": _hook_csv_bytes}


# per-layer metric prefix -> the spans summed into it, where that is not
# just the span of the same name
LAYER_SPANS = {
    "keldysh.diagnostics": ("keldysh.sonic_derivative_scan", "keldysh.corner_probe",
                            "keldysh.verify_bounds"),
}

LAYER_METRICS = (  # (metric, unit); "<prefix>.s|self_s|calls" read the spans
    ("keldysh.solve_model.s", "s"), ("keldysh.solve_model.self_s", "s"),
    ("keldysh.iterations", "count"), ("keldysh.factor.calls", "count"),
    ("keldysh.factor.s", "s"), ("keldysh.tri_solve.s", "s"),
    ("keldysh.lu_nnz", "count"), ("keldysh.diagnostics.s", "s"),
    ("keldysh.reliable_frac", "frac"),
    ("mixed2d.build_operator.s", "s"), ("mixed2d.solve_linear.s", "s"),
    ("mixed2d.solve_linear.self_s", "s"), ("mixed2d.factor.calls", "count"),
    ("mixed2d.factor.s", "s"), ("mixed2d.tri_solve.s", "s"),
    ("mixed2d.lu_nnz", "count"), ("mixed2d.sonic_smoothness_diag.s", "s"),
    ("profile1d.verify_lemma.calls", "count"), ("profile1d.verify_lemma.s", "s"),
    ("profile1d.verify_lemma.self_s", "s"), ("profile1d.integrate_profile.calls", "count"),
    ("profile1d.integrate_profile.s", "s"), ("profile1d.locate_lmax.s", "s"),
    ("profile1d.solve_ivp.calls", "count"), ("profile1d.nfev", "count"),
    ("profile1d.kz_check.s", "s"), ("profile1d.reconstruct_fields.s", "s"),
    ("gas.critical_field.calls", "count"), ("gas.critical_field.s", "s"),
    ("gas.find_u_star.calls", "count"), ("gas.find_u_star.s", "s"),
    ("shockpolar.compute_polar.s", "s"), ("shockpolar.weak_state.s", "s"),
    ("shockpolar.pseudo_sonic_geometry.s", "s"), ("svgplot.heatmap.s", "s"),
    ("svgplot.line_plot.s", "s"), ("svgplot.bytes", "B"), ("cli.csv.s", "s"),
    ("cli.csv.bytes", "B"), ("cli.digest.s", "s"),
) + tuple((f"cli.handler.{sub}.s", "s") for sub in CLI_SUBCOMMANDS) + (
    ("process.cpu_s", "s"), ("trace.overhead_frac", "frac"), ("trace.absent", "count"),
)


def layer_metrics(tracer, wall_untraced, wall_traced, cpu_untraced):
    """Every per-layer metric as {name: (value, unit)}.

    A metric whose span the tracer could not install reads 0 and its name
    is listed in ``tracer.absent``; ``trace.absent`` counts those names.
    """
    direct = {
        "keldysh.iterations": tracer.counts.get("keldysh.iterations", 0),
        "keldysh.lu_nnz": tracer.maxima.get("keldysh.lu_nnz", 0),
        "keldysh.reliable_frac": (tracer.counts.get("keldysh.reliable", 0)
                                  / max(1, tracer.stat("keldysh.solve_model").calls)),
        "mixed2d.lu_nnz": tracer.maxima.get("mixed2d.lu_nnz", 0),
        "profile1d.nfev": tracer.counts.get("profile1d.nfev", 0),
        "svgplot.bytes": tracer.counts.get("svgplot.bytes", 0),
        "cli.csv.bytes": tracer.counts.get("cli.csv.bytes", 0),
        "process.cpu_s": cpu_untraced,
        "trace.overhead_frac": wall_traced / wall_untraced - 1.0,
        "trace.absent": len(tracer.absent),
    }
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric in direct:
            value = direct[metric]
        else:
            prefix, field = metric.rsplit(".", 1)
            stats = [tracer.stat(name) for name in LAYER_SPANS.get(prefix, (prefix,))]
            value = sum(getattr(st, field) for st in stats)
        out[metric] = (value, unit)
    return out
