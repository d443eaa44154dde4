"""Traced runs: spans and counters around zmcsurf's public functions.

The tracer patches module attributes and class methods of an imported zmcsurf
from the benchmark's side and restores them afterwards; nothing under ``src/``
changes.  Coarse calls (sweeps, samplers, quadrature, I/O) become spans with
name, start, end, parent and run id, kept in memory and written when the run
ends; only the set-up (run 0) and the first traced pass keep their spans,
which bounds the file, while counts and times cover every traced pass.  Per-point calls (``AnalyticExpr.eval``, ``TwoVarExpr.eval``,
``HeightSurface.height_at``, ``foliation.leaf_height``) are only counted and
timed, because a span each would swamp the run.  A call's self time is its
duration minus the time its wrapped children took; a layer's self time is the
sum over the wrapped functions of its module.
"""

import json
import os
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("expr", "reps", "zmc", "catalog", "foliation", "meshio", "report")
# Check families whose worst error and worst error-to-tolerance ratio are reported.
ACCURACY_FAMILIES = ("reps.oracle", "reps.split", "zmc.parametric", "zmc.residual",
                     "catalog.identity", "catalog.heights", "foliation", "meshio.heights")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _path_bytes(args, kwargs, index):
    path = _arg(args, kwargs, index, "path")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


# Per-call hooks, run after a call that returned:
# (args, kwargs, result, direct child counts, seconds) -> {extra key: amount}.

def _integrate_hook(args, kwargs, result, direct, dur):
    integrands = len(args[0]) if args else len(kwargs["integrands"])
    nodes = direct.get("expr.eval", 0) / max(integrands, 1)
    if nodes == 0:
        return {}
    # Levels of 1, 2, 4, ..., L segments of 32 nodes: 32 * (2L - 1) nodes in
    # total, of which the accepted level's 32 * L are used.
    level = (nodes / 32 + 1) / 2
    return {"integrate.evals": direct["expr.eval"], "integrate.nodes": nodes,
            "integrate.useful_nodes": 32 * level}


def _newton_hook(args, kwargs, result, direct, dur):
    trials = direct.get("reps.we_point", 0) - 1  # the first residual is not a trial step
    return {"newton.residual_evals": trials + 1, "newton.trials": trials,
            # each accepted iteration evaluates the two Jacobian integrands once
            "newton.accepted": direct.get("expr.eval", 0) // 2}


def _graph_jet_hook(args, kwargs, result, direct, dur):
    if _arg(args, kwargs, 3, "method", "exact") != "central-diff":
        return {}
    return {"fd.jets": 1, "fd.height_evals": direct.get("catalog.height_at", 0)}


def _residual_hook(args, kwargs, result, direct, dur):
    method = _arg(args, kwargs, 3, "method", "exact")
    return {f"residual.{method}.points": result.points_checked, f"residual.{method}.s": dur}


def _points_hook(key):
    def hook(args, kwargs, result, direct, dur):
        return {key: result.points_checked}
    return hook


def _sampler_point_hook(args, kwargs, result, direct, dur):
    return {"sampler.integrals": direct.get("reps.integrate_segment", 0)
            + 2 * direct.get("reps.tlms_point", 0) + 2 * direct.get("reps.bc_point", 0)}


def _grid_points_hook(args, kwargs, result, direct, dur):
    grid = _arg(args, kwargs, 1, "grid")
    return {"sampler.inverted.points": grid.nu * grid.nv}


def _bytes_hook(key, index):
    def hook(args, kwargs, result, direct, dur):
        return {key: _path_bytes(args, kwargs, index)}
    return hook


def _targets():
    """(owner, attribute, traced name, record a span, hook) for every wrapped callable."""
    from zmcsurf import catalog, expr, foliation, meshio, reps, report, zmc
    t = [
        (expr.AnalyticExpr, "eval", "expr.eval", False, None),
        (expr.AnalyticExpr, "derivative", "expr.derivative", False, None),
        (expr.TwoVarExpr, "eval", "expr.eval_xy", False, None),
        (expr, "parse", "expr.parse", True, None),
        (reps, "integrate_segment", "reps.integrate_segment", True, _integrate_hook),
        (reps, "we_point", "reps.we_point", True, None),
        (reps, "tlms_point", "reps.tlms_point", True, None),
        (reps, "bc_point", "reps.bc_point", True, None),
        (reps, "invert_parametrization", "reps.invert_parametrization", True, _newton_hook),
        (reps, "verify_split", "reps.verify_split", True, None),
        (reps.InvertedGraphSampler, "sample_grid", "reps.inverted.sample_grid", True,
         _grid_points_hook),
        (zmc, "graph_jet", "zmc.graph_jet", True, _graph_jet_hook),
        (zmc, "residual_sweep", "zmc.residual_sweep", True, _residual_hook),
        (zmc, "parametric_sweep", "zmc.parametric_sweep", True, _points_hook("parametric.points")),
        (zmc, "parametric_zmc_numerator", "zmc.parametric_zmc_numerator", True, None),
        (catalog, "verify_identity", "catalog.verify_identity", True,
         _points_hook("identity.points")),
        (catalog, "verify_identity_at", "catalog.verify_identity_at", True,
         _points_hook("identity.points")),
        (catalog.HeightSurface, "height_at", "catalog.height_at", False, None),
        (foliation, "foliation_check", "foliation.foliation_check", True,
         _points_hook("foliation.points")),
        (foliation, "leaf_height", "foliation.leaf_height", False, None),
        (meshio, "sample_patch", "meshio.sample_patch", True, None),
        (meshio, "write_obj", "meshio.write_obj", True, _bytes_hook("write_obj.bytes", 1)),
        (meshio, "write_csv", "meshio.write_csv", True, _bytes_hook("write_csv.bytes", 1)),
        (meshio, "read_csv", "meshio.read_csv", True, _bytes_hook("read_csv.bytes", 0)),
        (report.VerificationReport, "write", "report.write", True, _bytes_hook("report.bytes", 1)),
    ]
    for kind in ("WE", "TLMS", "BC"):
        cls = getattr(reps, f"{kind}Sampler")
        t.append((cls, "point", f"reps.{kind.lower()}.point", True, _sampler_point_hook))
        t.append((cls, "jet", f"reps.{kind.lower()}.jet", True, None))
    return t


class Tracer:
    """Collects spans, call counts and self times while installed."""

    def __init__(self, zmcsurf):
        self._zmcsurf = zmcsurf
        self._targets = _targets()
        self._saved = []
        self.spans = []      # (run id, span id, parent span id, name, start, end)
        self.run_id = 0
        self._keep_spans = True
        self._next_span = 1
        self._stack = []     # frames: [span id for children, child seconds, direct counts]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.extra = Counter()
        self.raised = Counter()

    # -- patching --------------------------------------------------------

    def install(self, run_id):
        """Start a traced run: zero the per-run tallies and patch every target."""
        self.run_id = run_id
        self._keep_spans = run_id <= 1
        self.calls.clear()
        self.self_s.clear()
        self.incl_s.clear()
        self.extra.clear()
        self.raised.clear()
        modules = [m for m in vars(self._zmcsurf).values() if type(m) is type(self._zmcsurf)]
        modules.append(self._zmcsurf)
        for owner, attr, name, span, hook in self._targets:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, span, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                if attr == "eval" and owner.__dict__.get("__call__") is original:
                    self._saved.append((owner, "__call__", original))
                    setattr(owner, "__call__", wrapper)
                continue
            # Modules that imported the function by name hold their own reference.
            for mod in modules:
                if mod is not owner and mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, span, hook):
        stack = self._stack
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent else 0
            span_id = parent_id
            if span:
                span_id = self._next_span
                self._next_span += 1
            frame = [span_id, 0.0, {}]
            stack.append(frame)
            result = None
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            except Exception as exc:
                self.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[name] += 1
                incl_s[name] += dur
                self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                    parent[2][name] = parent[2].get(name, 0) + 1
                if span and self._keep_spans:
                    self.spans.append((self.run_id, span_id, parent_id, name, start, end))
                if hook is not None and returned:
                    self.extra.update(hook(args, kwargs, result, frame[2], dur))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ---------------------------------------------------------

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"run": run_id, "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


# Every per-layer metric a traced run prints: (name, unit, better).  The
# accuracy rows come from the output checks rather than the tracer.
PER_LAYER = [(f"{layer}.self_frac", "frac", "lower") for layer in LAYERS] + [
    ("unwrapped.self_frac", "frac", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
    ("expr.eval.calls", "count", "lower"),
    ("expr.eval.calls_per_s", "1/s", "higher"),
    ("expr.eval_xy.calls", "count", "lower"),
    ("expr.eval_xy.calls_per_s", "1/s", "higher"),
    ("expr.derivative.calls", "count", "lower"),
    ("expr.parse.calls", "count", "lower"),
    ("expr.parse.setup_frac", "frac", "lower"),
    ("reps.integrate.calls", "count", "lower"),
    ("reps.integrate.self_frac", "frac", "lower"),
    ("reps.integrate.evals_per_call", "count", "lower"),
    ("reps.integrate.useful_node_frac", "frac", "higher"),
    ("reps.integrate.raised", "count", "lower"),
    ("reps.newton.calls", "count", "lower"),
    ("reps.newton.residual_evals_per_call", "count", "lower"),
    ("reps.newton.accepted_step_frac", "frac", "higher"),
    ("reps.newton.failed", "count", "lower"),
    ("reps.sampler.we.points_per_s", "1/s", "higher"),
    ("reps.sampler.tlms.points_per_s", "1/s", "higher"),
    ("reps.sampler.bc.points_per_s", "1/s", "higher"),
    ("reps.sampler.inverted.points_per_s", "1/s", "higher"),
    ("reps.sampler.integrals_per_point", "count", "lower"),
    ("zmc.parametric.points_per_s", "1/s", "higher"),
    ("zmc.parametric.self_frac", "frac", "lower"),
    ("zmc.residual.exact.points_per_s", "1/s", "higher"),
    ("zmc.residual.central-diff.points_per_s", "1/s", "higher"),
    ("zmc.fd.height_evals_per_point", "count", "lower"),
    ("catalog.identity.points_per_s", "1/s", "higher"),
    ("catalog.identity.self_frac", "frac", "lower"),
    ("catalog.height.calls", "count", "lower"),
    ("catalog.height.calls_per_s", "1/s", "higher"),
    ("foliation.check.points_per_s", "1/s", "higher"),
    ("foliation.leaf.calls", "count", "lower"),
    ("foliation.leaf.points_per_s", "1/s", "higher"),
    ("meshio.sample_patch.self_frac", "frac", "lower"),
    ("meshio.write_obj.bytes", "B", "lower"),
    ("meshio.write_obj.bytes_per_s", "B/s", "higher"),
    ("meshio.write_csv.bytes", "B", "lower"),
    ("meshio.write_csv.bytes_per_s", "B/s", "higher"),
    ("meshio.read_csv.bytes", "B", "lower"),
    ("meshio.read_csv.bytes_per_s", "B/s", "higher"),
    ("meshio.invalid.points", "count", "lower"),
    ("meshio.invalid_frac", "frac", "lower"),
    ("report.write.calls", "count", "lower"),
    ("report.write.bytes_per_s", "B/s", "higher"),
    ("meshio.roundtrip.max_abs_err", "abs", "lower"),
] + [(f"{family}.{what}", unit, "lower") for family in ACCURACY_FAMILIES
      for what, unit in (("max_abs_err", "abs"), ("err_to_tol", "frac"))]


def _rate(num, den):
    return num / den if den > 0 else 0.0


def raised_count(tr, name):
    return sum(n for (fn, _), n in tr.raised.items() if fn == name)


def pass_metrics(tr, wall):
    """Tracer-derived metrics of one traced pass that took ``wall`` seconds."""
    c, s, inc, x = tr.calls, tr.self_s, tr.incl_s, tr.extra
    layers = tr.layer_self_s()
    m = {f"{layer}.self_frac": layers[layer] / wall for layer in LAYERS}
    m["unwrapped.self_frac"] = max(0.0, 1.0 - sum(layers.values()) / wall)
    m.update({
        "expr.eval.calls": c["expr.eval"],
        "expr.eval.calls_per_s": _rate(c["expr.eval"], s["expr.eval"]),
        "expr.eval_xy.calls": c["expr.eval_xy"],
        "expr.eval_xy.calls_per_s": _rate(c["expr.eval_xy"], s["expr.eval_xy"]),
        "expr.derivative.calls": c["expr.derivative"],
        "reps.integrate.calls": c["reps.integrate_segment"],
        "reps.integrate.self_frac": s["reps.integrate_segment"] / wall,
        "reps.integrate.evals_per_call": _rate(x["integrate.evals"], c["reps.integrate_segment"]),
        "reps.integrate.useful_node_frac": _rate(x["integrate.useful_nodes"], x["integrate.nodes"]),
        "reps.integrate.raised": raised_count(tr, "reps.integrate_segment"),
        "reps.newton.calls": c["reps.invert_parametrization"],
        "reps.newton.residual_evals_per_call": _rate(x["newton.residual_evals"],
                                                     c["reps.invert_parametrization"]),
        "reps.newton.accepted_step_frac": _rate(x["newton.accepted"], x["newton.trials"]),
        "reps.newton.failed": raised_count(tr, "reps.invert_parametrization"),
    })
    for kind in ("we", "tlms", "bc"):
        m[f"reps.sampler.{kind}.points_per_s"] = _rate(c[f"reps.{kind}.point"],
                                                       inc[f"reps.{kind}.point"])
    m["reps.sampler.inverted.points_per_s"] = _rate(x["sampler.inverted.points"],
                                                    inc["reps.inverted.sample_grid"])
    sampler_points = sum(c[f"reps.{k}.point"] for k in ("we", "tlms", "bc"))
    m["reps.sampler.integrals_per_point"] = _rate(x["sampler.integrals"], sampler_points)
    m.update({
        "zmc.parametric.points_per_s": _rate(x["parametric.points"], inc["zmc.parametric_sweep"]),
        "zmc.parametric.self_frac": (s["zmc.parametric_sweep"]
                                     + s["zmc.parametric_zmc_numerator"]) / wall,
        "zmc.residual.exact.points_per_s": _rate(x["residual.exact.points"],
                                                 x["residual.exact.s"]),
        "zmc.residual.central-diff.points_per_s": _rate(x["residual.central-diff.points"],
                                                        x["residual.central-diff.s"]),
        "zmc.fd.height_evals_per_point": _rate(x["fd.height_evals"], x["fd.jets"]),
        "catalog.identity.points_per_s": _rate(
            x["identity.points"],
            inc["catalog.verify_identity"] + inc["catalog.verify_identity_at"]),
        "catalog.identity.self_frac": (s["catalog.verify_identity"]
                                       + s["catalog.verify_identity_at"]) / wall,
        "catalog.height.calls": c["catalog.height_at"],
        "catalog.height.calls_per_s": _rate(c["catalog.height_at"], s["catalog.height_at"]),
        "foliation.check.points_per_s": _rate(x["foliation.points"],
                                              inc["foliation.foliation_check"]),
        "foliation.leaf.calls": c["foliation.leaf_height"],
        "foliation.leaf.points_per_s": _rate(c["foliation.leaf_height"],
                                             s["foliation.leaf_height"]),
        "meshio.sample_patch.self_frac": s["meshio.sample_patch"] / wall,
    })
    for op in ("write_obj", "write_csv", "read_csv"):
        m[f"meshio.{op}.bytes"] = x[f"{op}.bytes"]
        m[f"meshio.{op}.bytes_per_s"] = _rate(x[f"{op}.bytes"], inc[f"meshio.{op}"])
    m.update({
        "report.write.calls": c["report.write"],
        "report.write.bytes_per_s": _rate(x["report.bytes"], inc["report.write"]),
    })
    return m
