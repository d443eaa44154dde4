"""The operations of each workload and the checks on their outputs.

An operation is one program call sequence through the public API (a sampled
and exported patch, or one verification sweep with its report written) paired
with a check that compares its outputs against ``oracles``.  Only ``run`` is
timed; ``check`` runs afterwards and returns a list of problems (empty when the
output is correct).  Program modules are referenced as module attributes at
call time, so a traced run sees every call.
"""

import json
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles
from inputs import SPLIT_SAMPLES

PATCH_TOL = (1e-9, 1e-9)       # quadrature patches: integrate_segment tol is 1e-10
INVERTED_TOL = (1e-8, 1e-8)    # Newton stops at residual 1e-10, heights move by ~|grad z| * that
CLOSED_TOL = (1e-12, 1e-12)    # closed-form heights: only rounding differs
CENTRAL_DIFF_TOL = 1e-5        # 5-point second differences with h = 1e-4 lose ~eps * |z| / h^2


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable


@dataclass
class Tally:
    """What the checks of one pass saw."""

    lattice_points: int = 0
    invalid_points: int = 0
    accuracy: dict = field(default_factory=dict)   # family -> [max_abs_err, max err/tol]

    def invalid_frac(self):
        return self.invalid_points / self.lattice_points if self.lattice_points else 0.0

    def lattice(self, total, invalid):
        self.lattice_points += total
        self.invalid_points += invalid

    def error(self, family, err, tol=None):
        cur = self.accuracy.setdefault(family, [0.0, 0.0])
        cur[0] = max(cur[0], float(err))
        if tol:
            cur[1] = max(cur[1], float(err) / tol)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def check_patch(patch, expected, expected_valid, tol, tally, family):
    bad, err = oracles.vertex_errors(patch.points, patch.valid, expected, expected_valid, *tol)
    tally.lattice(patch.nu * patch.nv, patch.nu * patch.nv - patch.valid_count())
    tally.error(family, err, tol[0])
    return [f"{bad} vertices differ from the oracle"] if bad else []


def check_obj(path, patch):
    verts, faces, top = oracles.parse_obj(path)
    problems = []
    if not np.array_equal(verts, patch.points[patch.valid]):
        problems.append("OBJ vertices differ from the patch")
    want = oracles.expected_faces(patch.valid, patch.nu, patch.nv)
    if faces != want or top > len(verts):
        problems.append(f"OBJ has {faces} faces (max index {top}), expected {want}")
    return problems


def check_report(report, path, points, tally, family):
    """points_checked, pass flag, error bounds, and the JSON written to ``path``."""
    problems = []
    if report.points_checked != points:
        problems.append(f"points_checked {report.points_checked} != {points}")
    errors_ordered = 0.0 <= report.mean_abs_err <= report.max_abs_err <= report.tolerance
    if not report.passed or not errors_ordered:
        problems.append(f"report fails: max_abs_err {report.max_abs_err} tol {report.tolerance}")
    with open(path) as fh:
        written = json.load(fh)
    if "timestamp" not in written:
        problems.append("written report has no timestamp")
    written.pop("timestamp", None)
    if written != json.loads(report.to_json(include_timestamp=False)):
        problems.append("written report differs from the in-memory report")
    tally.error(family, report.max_abs_err, report.tolerance)
    return problems


def _close(a, b, tol=1e-10):
    return abs(complex(a) - complex(b)) <= tol * (1.0 + abs(complex(b)))


def _on_lattice(coords, g):
    us, vs = oracles.lattice(g)
    return bool(np.any((us == coords[0]) & (vs == coords[1])))


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def representations(spec, objs, workdir):
    from zmcsurf import meshio, reps, zmc
    ops = []

    def patch_op(name, make_source, grid_key, expected, tol=PATCH_TOL):
        path = os.path.join(workdir, f"{name}.obj")

        def run():
            patch = meshio.sample_patch(make_source(), objs[grid_key + ".grid"])
            meshio.write_obj(patch, path)
            return patch

        def check(patch, tally):
            want, want_valid = expected()
            return (check_patch(patch, want, want_valid, tol, tally, "reps.oracle")
                    + check_obj(path, patch))

        ops.append(Op(name, run, check))

    def all_valid(points):
        return points, np.ones(len(points), dtype=bool)

    patch_op("we_minimal", lambda: reps.WESampler(objs["we_minimal"]), "we_minimal",
             lambda: all_valid(oracles.we_patch(spec["we_minimal"], "minimal")))
    patch_op("we_maximal", lambda: reps.WESampler(objs["we_maximal"]), "we_maximal",
             lambda: all_valid(oracles.we_patch(spec["we_maximal"], "maximal")))
    for i, theta in enumerate(spec["associated"]["thetas"]):
        patch_op(f"associated_{i}", lambda t=theta: reps.WESampler(objs["associated"], theta=t),
                 "associated",
                 lambda t=theta: all_valid(oracles.we_patch(spec["associated"], "minimal", t)))
    patch_op("tlms", lambda: reps.TLMSSampler(objs["tlms"]), "tlms",
             lambda: all_valid(oracles.tlms_patch(spec["tlms"])))
    patch_op("bc", lambda: reps.BCSampler(objs["bc"]), "bc",
             lambda: all_valid(oracles.bc_patch(spec["bc"])))
    inv = spec["inverted"]
    # Where the oracle Newton does not converge the program must drop the point too.
    patch_op("inverted", lambda: reps.InvertedGraphSampler(objs["inverted"], complex(*inv["seed"])),
             "inverted", lambda: oracles.inverted_patch(inv), INVERTED_TOL)

    split = spec["split"]
    split_path = os.path.join(workdir, "split.json")

    def run_split():
        report = reps.verify_split(objs["split"], split["weights"], n_samples=SPLIT_SAMPLES,
                                   seed=split["seed"])
        report.write(split_path)
        return report

    def check_split(report, tally):
        problems = check_report(report, split_path, SPLIT_SAMPLES, tally, "reps.split")
        w = report.worst_point
        if not _close(w["lhs"], oracles.reduced_height(split["r"], complex(*w["coords"]))):
            problems.append("split worst-point height differs from the oracle")
        return problems

    ops.append(Op("split", run_split, check_split))

    for name, make, metric in (
            ("we_minimal", lambda: reps.WESampler(objs["we_minimal"]), zmc.EUCLID3),
            ("we_maximal", lambda: reps.WESampler(objs["we_maximal"]), zmc.LORENTZ3),
            ("tlms", lambda: reps.TLMSSampler(objs["tlms"]), zmc.LORENTZ3),
            ("bc", lambda: reps.BCSampler(objs["bc"]), zmc.LORENTZ3_PRIME)):
        ops.append(_parametric_op(name, make, metric, objs[name + ".grid"], workdir))
    return ops


def _parametric_op(name, make_sampler, metric, grid, workdir):
    from zmcsurf import zmc
    path = os.path.join(workdir, f"parametric_{name}.json")

    def run():
        report = zmc.parametric_sweep(make_sampler(), metric, grid,
                                      subject=f"parametric-zmc:{name}")
        report.write(path)
        return report

    def check(report, tally):
        problems = check_report(report, path, grid.nu * grid.nv, tally, "zmc.parametric")
        if report.worst_point and not _on_lattice(report.worst_point["coords"], grid.to_dict()):
            problems.append("worst point is not a lattice point")
        return problems

    return Op(f"parametric_{name}", run, check)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def closed_forms(spec, objs, workdir):
    from zmcsurf import catalog, foliation, zmc
    ops = []

    def report_op(name, call, check_more, points, family):
        path = os.path.join(workdir, re.sub(r"[^A-Za-z0-9_.-]", "_", name) + ".json")

        def run():
            report = call()
            report.write(path)
            return report

        def check(report, tally):
            return check_report(report, path, points, tally, family) + check_more(report)

        ops.append(Op(name, run, check))

    def identity_check(inst, on_probe):
        def check_more(report):
            w = report.worst_point
            x, y = w["coords"]
            lhs, rhs = oracles.identity_sides(inst.id, inst.n, x, y, inst.params)
            problems = []
            if not (_close(w["lhs"], lhs) and _close(w["rhs"], rhs)):
                problems.append("worst-point identity sides differ from the oracle")
            if not on_probe((x, y)):
                problems.append("worst point is not one of the checked points")
            return problems
        return check_more

    for tag, inst, grid, tol in objs["identities"]:
        g = grid.to_dict()
        report_op(tag, lambda i=inst, gr=grid, t=tol: catalog.verify_identity(i, gr, tolerance=t),
                  identity_check(inst, lambda xy, g=g: _on_lattice(xy, g)),
                  grid.nu * grid.nv, "catalog.identity")
    for tag, inst, probes in objs["probes"]:
        report_op(tag, lambda i=inst, p=probes: catalog.verify_identity_at(i, p),
                  identity_check(inst, lambda xy, p=probes: tuple(map(complex, xy)) in p),
                  len(probes), "catalog.identity")

    for sid, method, surf, eq, grid in objs["residuals"]:
        tol = 1e-10 if method == "exact" else CENTRAL_DIFF_TOL

        def residual_more(report, g=grid.to_dict()):
            w = report.worst_point
            problems = []
            if abs(w["lhs"]) != report.max_abs_err:
                problems.append("worst residual differs from max_abs_err")
            if not _on_lattice(w["coords"], g):
                problems.append("worst point is not a lattice point")
            return problems

        report_op(f"residual-{method}-{sid}",
                  lambda s=surf, e=eq, gr=grid, m=method, t=tol:
                      zmc.residual_sweep(s, e, gr, method=m, tolerance=t),
                  residual_more, grid.nu * grid.nv, "zmc.residual")

    surf, grid = objs["expr_heights"]

    def run_heights():
        return [surf.height_at(u, v) for _, (u, v) in grid.points()]

    def check_heights(heights, tally):
        want, ok = oracles.catalog_patch("scherk2", grid.to_dict())
        got = np.column_stack([want[:, :2], heights])
        bad, err = oracles.vertex_errors(got, np.ones(len(heights), dtype=bool), want, ok,
                                         *CLOSED_TOL)
        tally.error("catalog.heights", err, CLOSED_TOL[0])
        return [f"{bad} expr: heights differ from scherk2"] if bad else []

    ops.append(Op("expr-heights", run_heights, check_heights))

    fol = spec["foliation"]
    fol_grid = objs["foliation"]
    pairs = oracles.foliation_pairs(fol["grid"])

    def foliation_more(report):
        p = report.parameters
        problems = []
        if p["boundary_pairs"] != pairs or not p["roundtrip_pass"]:
            problems.append(f"foliation saw {p['boundary_pairs']} boundary pairs, expected {pairs}")
        return problems

    report_op("foliation",
              lambda: foliation.foliation_check(fol_grid, fol["t_samples"], seed=fol["seed"]),
              foliation_more, pairs + 2000 * len(fol["t_samples"]), "foliation")
    return ops


# ---------------------------------------------------------------------------
# mesh I/O
# ---------------------------------------------------------------------------

def mesh_io(spec, objs, workdir):
    from zmcsurf import meshio
    ops = []
    for idx, (item, source, grid) in enumerate(objs):
        stem = os.path.join(workdir, f"patch{idx}")

        def run(source=source, grid=grid, stem=stem):
            patch = meshio.sample_patch(source, grid)
            meshio.write_obj(patch, stem + ".obj")
            meshio.write_csv(patch, stem + ".csv")
            return patch, meshio.read_csv(stem + ".csv")

        def check(out, tally, item=item, stem=stem):
            patch, back = out
            want, ok = oracles.catalog_patch(item["surface"], item["grid"], item.get("t", 0.0))
            problems = check_patch(patch, want, ok, CLOSED_TOL, tally, "meshio.heights")
            same = (back.nu, back.nv) == (patch.nu, patch.nv) and np.array_equal(
                back.valid, patch.valid) and np.array_equal(back.points, patch.points)
            if not same:
                problems.append("read_csv differs from the patch written")
            if back.points.shape == patch.points.shape:
                tally.error("meshio.roundtrip", np.abs(back.points - patch.points).max())
            return problems + check_obj(stem + ".obj", patch)

        ops.append(Op(f"mesh-{idx}-{item['surface']}", run, check))
    return ops


OPS = {"representations": representations, "closed_forms": closed_forms, "mesh_io": mesh_io}
