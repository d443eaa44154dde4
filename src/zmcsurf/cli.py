"""Command-line surface over the catalog, residual checkers, representations,
and the foliation, with machine-readable JSON reports.

Exit codes: 0 when every requested check passes, 1 on a failed check (the
report is still written), 2 on usage errors.  Grid specs are written
``umin:umax:nu,vmin:vmax:nv[,margin]``.  A JSON config file may supply any
flag's value (flags win).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, foliation, reps, zmc
from .errors import DomainViolation, EmptyGrid
from .expr import EvalDomainError
from .meshio import GridSpec, sample_patch, write_csv, write_obj

__all__ = ["main", "build_parser", "parse_complex"]


def parse_complex(text: str) -> complex:
    """Accept ``0.4+0.3i`` (or ``j``) and bare reals."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}") from exc


def _fmt_real(v: float) -> str:
    return format(float(v), ".17g")


def _fmt_value(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}i"
    return _fmt_real(v)


def _parse_param_items(items):
    """``k=v`` items; v may be a float, a colon-separated float list, or text."""
    params = {}
    for item in items or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"expected k=v, got {item!r}")
        if ":" in raw:
            try:
                params[key] = [float(p) for p in raw.split(":")]
                continue
            except ValueError:
                pass
        try:
            params[key] = float(raw)
        except ValueError:
            params[key] = raw
    return params


def _finish(report, path) -> int:
    """Write the report (if ``path``), print its summary; exit 0 iff it passed."""
    if path:
        report.write(path)
    flag = "PASS" if report.passed else "FAIL"
    print(f"[{flag}] {report.subject}: max_abs_err={report.max_abs_err:.3e} "
          f"mean={report.mean_abs_err:.3e} tol={report.tolerance:.1e} "
          f"points={report.points_checked} policy={report.policy}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# builders shared by subcommands
# ---------------------------------------------------------------------------

# An unset --g takes its source's default: Gauss map w (WE data), density 1 (TLMS data).

def _we_data(args) -> reps.WEData:
    zeta0 = parse_complex(args.zeta0)
    offset = tuple(float(t) for t in args.offset.split(",")) if args.offset else (0.0, 0.0, 0.0)
    if args.mode == "reduced-R":
        return reps.WEData.reduced(args.f, zeta0=zeta0, offset=offset)
    g = "w" if args.g is None else args.g
    return reps.WEData.from_text(args.f, g, zeta0=zeta0, offset=offset, mode=args.mode)


def _tlms_sampler(args) -> reps.TLMSSampler:
    base = tuple(float(t) for t in args.base.split(","))
    g = "1" if args.g is None else args.g
    return reps.TLMSSampler(reps.TLMSData.from_text(args.f, g, args.q, args.r, base=base))


def _bc_sampler(args) -> reps.BCSampler:
    return reps.BCSampler(reps.BCData.from_text(args.big_f, args.big_g))


def _parametric_sampler(args):
    if args.source == "we":
        return reps.WESampler(_we_data(args), theta=args.theta), f"we:{args.mode}"
    if args.source == "tlms":
        return _tlms_sampler(args), "tlms"
    if args.source == "bc":
        return _bc_sampler(args), "bc"
    surf = catalog.builtin_surface(args.surface)
    return zmc.GraphLiftSampler(surf), f"graph:{surf.id}"


def _write_patch(patch, path: str) -> None:
    if path.endswith(".csv"):
        write_csv(patch, path)
    else:
        write_obj(patch, path)


def _mesh(args, make_sampler) -> int:
    """Mesh --grid of ``make_sampler(args)`` to --out; print the vertex count."""
    grid = GridSpec.parse(args.grid)
    patch = sample_patch(make_sampler(args), grid)
    _write_patch(patch, args.out)
    print(f"wrote {args.out} ({patch.valid_count()} vertices)")
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_surface(args) -> int:
    surf = catalog.builtin_surface(args.name)
    if args.complex:
        value = surf.evaluate(parse_complex(args.x), parse_complex(args.y))
    else:
        value = surf.evaluate(float(args.x), float(args.y))
    print(_fmt_value(value))
    return 0


def _cmd_identity(args) -> int:
    params = _parse_param_items(args.param)
    inst = catalog.identity_terms(args.identity, args.n, params)
    grid = GridSpec.parse(args.grid)
    tol = args.tol if args.tol is not None else 1e-9
    report = catalog.verify_identity(inst, grid, tolerance=tol, policy=args.policy)
    return _finish(report, args.report)


def _cmd_residual(args) -> int:
    grid = GridSpec.parse(args.grid)
    if args.parametric == "parametric":
        sampler, label = _parametric_sampler(args)
        metric = zmc.METRIC_NAMES[args.metric]
        tol = args.tol if args.tol is not None else 1e-6
        report = zmc.parametric_sweep(sampler, metric, grid, tolerance=tol,
                                      use_exact_jet=args.method == "exact",
                                      subject=f"parametric-zmc:{label}")
    else:
        eq = {"bi": "bi-soliton"}.get(args.equation, args.equation)
        surf = catalog.builtin_surface(args.surface)
        tol = args.tol if args.tol is not None else 1e-10
        report = zmc.residual_sweep(surf, eq, grid, method=args.method, tolerance=tol)
    return _finish(report, args.report)


def _cmd_we(args) -> int:
    data = _we_data(args)
    if args.verb == "eval":
        if args.zeta is None:
            raise argparse.ArgumentTypeError("we eval needs --zeta")
        zeta = parse_complex(args.zeta)
        pt = reps.WESampler(data, args.theta).point(zeta.real, zeta.imag)
        print(" ".join(_fmt_real(v) for v in pt))
        return 0
    if args.verb == "mesh":
        return _mesh(args, lambda a: reps.WESampler(data, theta=a.theta))
    if args.verb == "invert":
        guess = parse_complex(args.guess)
        zeta = reps.invert_parametrization(data, float(args.x), float(args.y), guess)
        print(_fmt_value(zeta))
        return 0
    if args.verb == "split":
        if args.pieces:
            pieces = args.pieces.split(",")
            weights = None
        else:
            pieces = None
            weights = [float(t) for t in args.weights.split(",")]
        if not args.verify:
            if pieces is not None:
                split = reps.split_weierstrass_expressions(data, pieces)
            else:
                split = reps.split_weierstrass(data, weights)
            for piece in split:
                print(piece.f.source())
            return 0
        tol = args.tol if args.tol is not None else 1e-10
        report = reps.verify_split(data, weights, tolerance=tol, pieces=pieces)
        return _finish(report, args.report)
    raise argparse.ArgumentTypeError(f"unknown we verb {args.verb!r}")


def _cmd_foliate(args) -> int:
    ts = [float(t) for t in args.t.split(",")]
    lo_txt, _, hi_txt = args.bands.partition("..")
    k_lo, k_hi = int(lo_txt), int(hi_txt or lo_txt)
    if k_hi < k_lo:
        raise argparse.ArgumentTypeError("bands must be k_lo..k_hi with k_lo <= k_hi")
    margin = 0.05
    x_lo = (2 * k_lo - 1) * 3.141592653589793 + margin
    x_hi = (2 * k_hi + 1) * 3.141592653589793 - margin
    grid = GridSpec(x_lo, x_hi, args.ymin, args.ymax, args.nx, args.ny, margin)
    os.makedirs(args.out, exist_ok=True)
    for idx, t in enumerate(ts):
        patch = sample_patch(foliation.LeafSurface(t), grid)
        _write_patch(patch, os.path.join(args.out, f"leaf_{idx:02d}.obj"))
    print(f"wrote {len(ts)} leaf meshes to {args.out}")
    if not args.check:
        return 0
    report = foliation.foliation_check(grid, ts)
    return _finish(report, os.path.join(args.out, "foliation_check.json"))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser(defaults=None) -> argparse.ArgumentParser:
    """CLI parser; ``defaults`` (from a config file) override argument defaults
    in every subcommand while explicit flags still win."""
    defaults = dict(defaults or {})
    parser = argparse.ArgumentParser(
        prog="zmcsurf",
        description="Construct and numerically verify zero-mean-curvature surfaces.")
    parser.add_argument("--config", help="JSON file of flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="evaluate a catalog surface")
    p.add_argument("verb", choices=["eval"])
    p.add_argument("--name", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--complex", action="store_true",
                   help="treat --x/--y as complex literals like 0.3+0.1i")
    p.set_defaults(handler=_cmd_surface)

    p = sub.add_parser("identity", help="verify a finite decomposition identity")
    p.add_argument("verb", choices=["verify"])
    p.add_argument("--identity", required=True, choices=list(catalog.IDENTITY_IDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", action="append", metavar="k=v",
                   help="identity parameter (repeatable); lists as k=v1:v2:...")
    p.add_argument("--grid", required=True)
    p.add_argument("--policy", choices=list(catalog.BRANCH_POLICIES), default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_identity)

    p = sub.add_parser("residual", help="graph-PDE or parametric ZMC residual sweep")
    p.add_argument("parametric", nargs="?", choices=["parametric"],
                   help="run the signature-aware parametric check instead")
    p.add_argument("--equation", choices=["minimal", "maximal", "bi"], default="minimal")
    p.add_argument("--surface", default="scherk2")
    p.add_argument("--method", choices=["exact", "central-diff"], default="exact")
    p.add_argument("--metric", choices=list(zmc.METRIC_NAMES), default="euclid")
    p.add_argument("--source", choices=["we", "tlms", "bc", "surface"], default="surface")
    p.add_argument("--f", default="1")
    p.add_argument("--g", default=None)
    p.add_argument("--q", default="u")
    p.add_argument("--r", default="v")
    p.add_argument("--F", dest="big_f", default="r")
    p.add_argument("--G", dest="big_g", default="s")
    p.add_argument("--mode", choices=list(reps.WE_MODES), default="minimal")
    p.add_argument("--zeta0", default="0")
    p.add_argument("--offset", default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--base", default="0,0")
    p.add_argument("--grid", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_residual)

    p = sub.add_parser("we", help="Weierstrass-Enneper representation tools")
    p.add_argument("verb", choices=["eval", "mesh", "invert", "split"])
    p.add_argument("--f", required=True)
    p.add_argument("--g", default=None)
    p.add_argument("--mode", choices=list(reps.WE_MODES), default="minimal")
    p.add_argument("--zeta0", default="0")
    p.add_argument("--offset", default=None)
    p.add_argument("--zeta", default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--x", default="0")
    p.add_argument("--y", default="0")
    p.add_argument("--guess", default="0")
    p.add_argument("--weights", default="1")
    p.add_argument("--pieces", default=None,
                   help="explicit expression pieces like '2+w,-1-w' "
                        "(non-vanishing checked by sampling)")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--grid", default="-0.8:0.8:17,-0.8:0.8:17")
    p.add_argument("--out", default="we_mesh.obj")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_we)

    p = sub.add_parser("tlms", help="timelike minimal surface mesh")
    p.add_argument("verb", choices=["mesh"])
    p.add_argument("--f", default="1")
    p.add_argument("--g", default=None)
    p.add_argument("--q", default="u")
    p.add_argument("--r", default="v")
    p.add_argument("--base", default="0,0")
    p.add_argument("--grid", default="0:0.8:21,0:0.8:21")
    p.add_argument("--out", default="tlms_mesh.obj")
    p.set_defaults(handler=lambda args: _mesh(args, _tlms_sampler))

    p = sub.add_parser("bc", help="Born-Infeld soliton mesh")
    p.add_argument("verb", choices=["mesh"])
    p.add_argument("--F", dest="big_f", required=True)
    p.add_argument("--G", dest="big_g", required=True)
    p.add_argument("--grid", default="0:0.8:21,0:0.8:21")
    p.add_argument("--out", default="bc_mesh.obj")
    p.set_defaults(handler=lambda args: _mesh(args, _bc_sampler))

    p = sub.add_parser("foliate", help="export shifted-helicoid leaves and checks")
    p.add_argument("--t", required=True, help="comma list of leaf shifts")
    p.add_argument("--bands", default="0..0", help="band range k_lo..k_hi")
    p.add_argument("--ymin", type=float, default=-3.0)
    p.add_argument("--ymax", type=float, default=3.0)
    p.add_argument("--nx", type=int, default=81)
    p.add_argument("--ny", type=int, default=41)
    p.add_argument("--out", required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(handler=_cmd_foliate)

    # Subparsers parse into a fresh namespace, so config defaults are installed
    # per subcommand, after its arguments exist (set_defaults rebinds the
    # defaults of already-registered arguments).
    for p in sub.choices.values():
        p.set_defaults(**defaults)
    return parser


def _preprocess_argv(argv):
    """Join ``--flag -1:...`` into ``--flag=-1:...`` so negative-leading grid
    specs, coordinates, and weight lists survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        item = argv[i]
        if (item.startswith("--") and "=" not in item and i + 1 < len(argv)):
            nxt = argv[i + 1]
            if (nxt.startswith("-") and len(nxt) > 1
                    and (nxt[1].isdigit() or nxt[1] == ".")):
                out.append(f"{item}={nxt}")
                i += 2
                continue
        out.append(item)
        i += 1
    return out


def main(argv=None) -> int:
    argv = _preprocess_argv(list(sys.argv[1:] if argv is None else argv))

    config = None
    config_path = None
    for i, item in enumerate(argv):
        if item == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif item.startswith("--config="):
            config_path = item.split("=", 1)[1]
    if config_path:
        try:
            with open(config_path) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError, TypeError) as exc:
            print(f"error: cannot read config {config_path!r}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print(f"error: config {config_path!r} must be a JSON object", file=sys.stderr)
            return 2

    parser = build_parser(config)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.handler(args)
    except (catalog.UnknownSurface, catalog.UnknownIdentity, catalog.ParamDomainError,
            argparse.ArgumentTypeError, DomainViolation, EmptyGrid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (reps.SingularPath, reps.NoConvergence, reps.NewtonDiverged,
            reps.JacobianSingular, EvalDomainError, zmc.ExactUnavailable,
            zmc.DegenerateMetric) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
