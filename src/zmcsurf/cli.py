"""Command-line surface over the catalog, residual checkers, representations,
and the foliation, with machine-readable JSON reports.

Every flag is declared once, in ``_FLAGS``, with its argparse keywords and
the converter of its text (or ``--config`` value); each subcommand in
``_COMMANDS`` names its flags and the keywords it changes.  One pass after
parsing converts every value, so a malformed or non-finite number, or a
negative ``--tol``, is a one-line usage error that names its flag.  A flag
that takes a value takes the next token if it starts with one ``-``
(``--zeta -i``).  A JSON config file may give any flag's value under its name
without dashes (flags win; null is the default); any other key is a usage error.

Exit codes: 0 when every requested check passes, 1 on a failed check (the
report is still written), 2 on usage errors.  Grid specs are written
``umin:umax:nu,vmin:vmax:nv[,margin]``.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import math
import os
import sys

from . import catalog, foliation, reps, zmc
from .errors import DomainViolation, EmptyGrid
from .expr import EvalDomainError
from .meshio import GridSpec, sample_patch, write_csv, write_obj

__all__ = ["main", "build_parser", "parse_complex"]


def parse_complex(text: str) -> complex:
    """Accept ``0.4+0.3i`` (or ``j``) and bare reals; both parts must be finite."""
    literal = text.strip()
    try:
        value = complex(literal[:-1] + "j" if literal.endswith("i") else literal)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad complex literal {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite complex literal {text!r}")
    return value


# Value converters: (flag text or config value, flag) -> value.

def _number(value, flag: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"{flag} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise argparse.ArgumentTypeError(f"{flag} must be finite, got {value!r}")
    return number


def _non_negative(value, flag: str) -> float:
    number = _number(value, flag)
    if number < 0:
        raise argparse.ArgumentTypeError(f"{flag} must not be negative, got {value!r}")
    return number


def _numbers(value, flag: str) -> list:
    return [_number(item, flag) for item in str(value).split(",")]


def _integer(value, flag: str) -> int:
    try:
        number = int(value) if isinstance(value, str) else value
    except ValueError:
        number = None
    if type(number) is not int:
        raise argparse.ArgumentTypeError(f"{flag} must be an integer, got {value!r}")
    return number


_BAND_MARGIN = 0.05  # leaves are meshed this far inside the outer band boundaries


def _bands(value, flag: str) -> tuple:
    """The x window of the bands k_lo..k_hi, ``_BAND_MARGIN`` inside their outer ends."""
    lo, _, hi = str(value).partition("..")
    k_lo, k_hi = _integer(lo, flag), _integer(hi or lo, flag)
    if k_hi < k_lo:
        raise argparse.ArgumentTypeError(f"{flag} must be k_lo..k_hi with k_lo <= k_hi, "
                                         f"got {value!r}")
    with contextlib.suppress(OverflowError):  # an int too large for a float
        window = (2 * k_lo - 1) * math.pi + _BAND_MARGIN, (2 * k_hi + 1) * math.pi - _BAND_MARGIN
        if all(map(math.isfinite, window)):
            return window
    raise argparse.ArgumentTypeError(f"{flag} must give a finite x window")


def _params(items, flag: str) -> dict:
    """``k=v`` items, each value the text that its identity converts."""
    params = {}
    for item in [items] if isinstance(items, str) else items:
        key, sep, value = str(item).partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"{flag} must be k=v, got {item!r}")
        params[key] = value
    return params


def _complex(value, flag: str) -> complex:
    return parse_complex(str(value))


@contextlib.contextmanager
def _writing(path: str):
    """An OSError from writing ``path`` is a usage error that names it."""
    try:
        yield
    except OSError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _fmt_value(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:.17g}{v.imag:+.17g}i"
    return format(float(v), ".17g")


def _tolerance(args) -> dict:
    """--tol as a check's keyword when it is given; else the check keeps its own default."""
    return {} if args.tol is None else {"tolerance": args.tol}


def _finish(report, path) -> int:
    """Write the report (if ``path``), print its summary; exit 0 iff it passed."""
    if path:
        with _writing(path):
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
    g = "w" if args.g is None else args.g
    return reps.WEData.from_text(args.f, g, zeta0=args.zeta0, offset=args.offset,
                                 mode=args.mode)


def _tlms_sampler(args) -> reps.TLMSSampler:
    g = "1" if args.g is None else args.g
    return reps.TLMSSampler(reps.TLMSData.from_text(args.f, g, args.q, args.r, base=args.base))


def _bc_sampler(args) -> reps.BCSampler:
    return reps.BCSampler(reps.BCData.from_text(args.F, args.G))


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
    with _writing(path):
        (write_csv if path.endswith(".csv") else write_obj)(patch, path)


def _mesh(args, make_sampler) -> int:
    """Mesh --grid of ``make_sampler(args)`` to --out; print the vertex count."""
    patch = sample_patch(make_sampler(args), args.grid)
    _write_patch(patch, args.out)
    print(f"wrote {args.out} ({patch.valid_count()} vertices)")
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_surface(args) -> int:
    surf = catalog.builtin_surface(args.name)
    if not args.complex and (args.x.imag or args.y.imag):
        raise argparse.ArgumentTypeError("complex --x or --y needs --complex")
    x, y = (args.x, args.y) if args.complex else (args.x.real, args.y.real)
    print(_fmt_value(surf.evaluate(x, y)))
    return 0


def _cmd_identity(args) -> int:
    inst = catalog.identity_terms(args.identity, args.n, args.param)
    report = catalog.verify_identity(inst, args.grid, policy=args.policy, **_tolerance(args))
    return _finish(report, args.report)


def _cmd_residual(args) -> int:
    if args.parametric == "parametric":
        sampler, label = _parametric_sampler(args)
        metric = zmc.METRIC_NAMES[args.metric]
        report = zmc.parametric_sweep(sampler, metric, args.grid,
                                      use_exact_jet=args.method == "exact",
                                      subject=f"parametric-zmc:{label}", **_tolerance(args))
    else:
        eq = {"bi": "bi-soliton"}.get(args.equation, args.equation)
        surf = catalog.builtin_surface(args.surface)
        report = zmc.residual_sweep(surf, eq, args.grid, method=args.method, **_tolerance(args))
    return _finish(report, args.report)


def _cmd_we(args) -> int:
    data = _we_data(args)
    if args.verb == "eval":
        if args.zeta is None:
            raise argparse.ArgumentTypeError("we eval needs --zeta")
        pt = reps.WESampler(data, args.theta).point(args.zeta.real, args.zeta.imag)
        print(" ".join(_fmt_value(v) for v in pt))
        return 0
    if args.verb == "mesh":
        return _mesh(args, lambda a: reps.WESampler(data, theta=a.theta))
    if args.verb == "invert":
        print(_fmt_value(reps.invert_parametrization(data, args.x, args.y, args.guess)))
        return 0
    # split
    weights = None if args.pieces else args.weights
    if args.verify:
        report = reps.verify_split(data, weights, pieces=args.pieces, **_tolerance(args))
        return _finish(report, args.report)
    split = (reps.split_weierstrass_expressions(data, args.pieces) if args.pieces
             else reps.split_weierstrass(data, weights))
    for piece in split:
        print(piece.f.source())
    return 0


def _cmd_foliate(args) -> int:
    x_lo, x_hi = args.bands
    grid = GridSpec(x_lo, x_hi, args.ymin, args.ymax, args.nx, args.ny, _BAND_MARGIN)
    # The check runs first, so a window it refuses is an error before any file is written.
    report = foliation.foliation_check(grid, args.t) if args.check else None
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    for idx, t in enumerate(args.t):
        patch = sample_patch(foliation.LeafSurface(t), grid)
        _write_patch(patch, os.path.join(args.out, f"leaf_{idx:02d}.obj"))
    print(f"wrote {len(args.t)} leaf meshes to {args.out}")
    if report is None:
        return 0
    return _finish(report, os.path.join(args.out, "foliation_check.json"))


# ---------------------------------------------------------------------------
# flag table and parser
# ---------------------------------------------------------------------------

# Every flag once: its argparse keywords, plus "convert", the converter of its
# value.  A flag without one keeps its value as text; a switch is a bool.
_FLAGS = {
    "name": {"required": True},
    "x": {"default": 0.0, "convert": _number},
    "y": {"default": 0.0, "convert": _number},
    "complex": {"action": "store_true", "help": "treat --x/--y as complex literals like 0.3+0.1i"},
    "identity": {"required": True, "choices": list(catalog.IDENTITY_IDS)},
    "n": {"required": True, "convert": _integer},
    "param": {"action": "append", "metavar": "k=v", "convert": _params,
              "help": "identity parameter (repeatable); lists as k=v1:v2:..."},
    "grid": {"default": "0:0.8:21,0:0.8:21",
             "convert": lambda value, flag: GridSpec.parse(str(value))},
    "policy": {"choices": list(catalog.BRANCH_POLICIES)},
    "tol": {"convert": _non_negative},
    "report": {},
    "equation": {"choices": ["minimal", "maximal", "bi"], "default": "minimal"},
    "surface": {"default": "scherk2"},
    "method": {"choices": ["exact", "central-diff"], "default": "exact"},
    "metric": {"choices": list(zmc.METRIC_NAMES), "default": "euclid"},
    "source": {"choices": ["we", "tlms", "bc", "surface"], "default": "surface"},
    "f": {"default": "1"},
    "g": {},
    "q": {"default": "u"},
    "r": {"default": "v"},
    "F": {"default": "r"},
    "G": {"default": "s"},
    "mode": {"choices": list(reps.WE_MODES), "default": "minimal"},
    "zeta0": {"default": "0", "convert": _complex},
    "offset": {"default": "0,0,0", "convert": _numbers},
    "theta": {"default": 0.0, "convert": _number},
    "base": {"default": "0,0", "convert": _numbers},
    "zeta": {"convert": _complex},
    "guess": {"default": "0", "convert": _complex},
    "weights": {"default": "1", "convert": _numbers},
    "pieces": {"convert": lambda value, flag: str(value).split(","),
               "help": "explicit expression pieces like '2+w,-1-w' "
                       "(non-vanishing checked by sampling)"},
    "verify": {"action": "store_true"},
    "out": {},
    "t": {"required": True, "convert": _numbers, "help": "comma list of leaf shifts"},
    "bands": {"default": "0..0", "convert": _bands, "help": "band range k_lo..k_hi"},
    "ymin": {"default": -3.0, "convert": _number},
    "ymax": {"default": 3.0, "convert": _number},
    "nx": {"default": 81, "convert": _integer},
    "ny": {"default": 41, "convert": _integer},
    "check": {"action": "store_true"},
}

_REQUIRED = {"required": True}
_POINT = {"required": True, "convert": _complex}  # surface eval's --x and --y

# Every subcommand: help, handler, positional argument, the flags it takes,
# and the keywords it changes.
_COMMANDS = {
    "surface": ("evaluate a catalog surface", _cmd_surface, ("verb", {"choices": ["eval"]}),
                "name x y complex", {"x": _POINT, "y": _POINT}),
    "identity": ("verify a finite decomposition identity", _cmd_identity,
                 ("verb", {"choices": ["verify"]}), "identity n param grid policy tol report",
                 {"grid": _REQUIRED}),
    "residual": ("graph-PDE or parametric ZMC residual sweep", _cmd_residual,
                 ("parametric", {"nargs": "?", "choices": ["parametric"],
                                 "help": "run the signature-aware parametric check instead"}),
                 "equation surface method metric source f g q r F G mode zeta0 offset theta "
                 "base grid tol report", {"grid": _REQUIRED}),
    "we": ("Weierstrass-Enneper representation tools", _cmd_we,
           ("verb", {"choices": ["eval", "mesh", "invert", "split"]}),
           "f g mode zeta0 offset zeta theta x y guess weights pieces verify grid out tol report",
           {"f": _REQUIRED, "grid": {"default": "-0.8:0.8:17,-0.8:0.8:17"},
            "out": {"default": "we_mesh.obj"}}),
    "tlms": ("timelike minimal surface mesh", lambda args: _mesh(args, _tlms_sampler),
             ("verb", {"choices": ["mesh"]}), "f g q r base grid out",
             {"out": {"default": "tlms_mesh.obj"}}),
    "bc": ("Born-Infeld soliton mesh", lambda args: _mesh(args, _bc_sampler),
           ("verb", {"choices": ["mesh"]}), "F G grid out",
           {"F": _REQUIRED, "G": _REQUIRED, "out": {"default": "bc_mesh.obj"}}),
    "foliate": ("export shifted-helicoid leaves and checks", _cmd_foliate, None,
                "t bands ymin ymax nx ny out check", {"out": _REQUIRED}),
}


def _command_flags(command: str) -> dict:
    """Flag name -> keywords (with "convert") of ``command``, its changes applied."""
    _, _, _, names, changes = _COMMANDS[command]
    return {name: {**_FLAGS[name], **changes.get(name, {})} for name in names.split()}


def build_parser(defaults=None) -> argparse.ArgumentParser:
    """CLI parser; ``defaults`` (from a config file) replace the flags' own
    defaults in every subcommand while explicit flags still win."""
    parser = argparse.ArgumentParser(
        prog="zmcsurf",
        description="Construct and numerically verify zero-mean-curvature surfaces.")
    parser.add_argument("--config", help="JSON file of flag defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, positional, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if positional:
            p.add_argument(positional[0], **positional[1])
        for name, spec in _command_flags(command).items():
            p.add_argument(f"--{name}", **{k: v for k, v in spec.items() if k != "convert"})
        # set_defaults also rebinds the defaults of the arguments just added.
        p.set_defaults(**(defaults or {}), handler=handler)
    return parser


def _convert(args) -> None:
    """Replace each flag's text (or config value) on ``args`` by its value."""
    for name, spec in _command_flags(args.command).items():
        value = getattr(args, name)
        if value is None or spec.get("action") == "store_true":
            continue
        value = spec["convert"](value, f"--{name}") if "convert" in spec else str(value)
        if "choices" in spec and value not in spec["choices"]:
            raise argparse.ArgumentTypeError(
                f"--{name} must be one of {', '.join(spec['choices'])}, got {value!r}")
        setattr(args, name, value)


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(config, dict):
        raise argparse.ArgumentTypeError(f"config {path!r} must be a JSON object")
    unknown = sorted(set(config) - set(_FLAGS))
    if unknown:
        raise argparse.ArgumentTypeError(f"config {path!r} has unknown key {unknown[0]!r} "
                                         "(keys are flag names without dashes)")
    config = {name: value for name, value in config.items() if value is not None}
    # argparse appends a repeated flag to its default and takes any default of a switch.
    for name, value in config.items():
        action = _FLAGS[name].get("action")
        if action == "append" and not isinstance(value, list):
            raise argparse.ArgumentTypeError(
                f"config {path!r} key {name!r} must be a list, got {value!r}")
        if action == "store_true" and not isinstance(value, bool):
            raise argparse.ArgumentTypeError(
                f"config {path!r} key {name!r} must be true or false, got {value!r}")
    return config


def _preprocess_argv(argv):
    """Join ``--flag -value`` into ``--flag=-value`` when the flag takes a value,
    so a value may start with one ``-``: ``--zeta -i``, ``--grid -1:1:5,-1:1:5``."""
    takes_value = {"--config"} | {f"--{name}" for name, spec in _FLAGS.items()
                                  if spec.get("action") != "store_true"}
    out = []
    for item in argv:
        if out and out[-1] in takes_value and item.startswith("-") and item[1:2] != "-":
            out[-1] += f"={item}"
        else:
            out.append(item)
    return out


def main(argv=None) -> int:
    argv = _preprocess_argv(list(sys.argv[1:] if argv is None else argv))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.config:
            # Config values are only defaults: this parse fails only where the first did.
            args = build_parser(_read_config(args.config)).parse_args(argv)
        _convert(args)
        return args.handler(args)
    except (catalog.UnknownSurface, catalog.UnknownIdentity, catalog.ParamDomainError,
            argparse.ArgumentTypeError, DomainViolation, EmptyGrid, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (reps.SingularPath, reps.NoConvergence, reps.NewtonDiverged,
            reps.JacobianSingular, EvalDomainError, zmc.DegenerateMetric) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
