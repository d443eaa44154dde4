"""Catalog of classical ZMC height functions and their finite decomposition identities.

Surfaces live in a registry keyed by stable string ids (``scherk2``,
``scherk1[:alpha]``, ``helicoid``, ``scherk2max``, ``scherkBI``,
``plane[:a,b]``, ``expr:<text>``).  Identities are instantiated as explicit
term lists and verified at every point of a lattice (one numpy call per
term for the whole lattice) under a branch policy, because arctan/log
identities are only true modulo their periods:

    principal       |L - S|
    mod-pi          distance of L - S to the nearest multiple of pi
    mod-2pi-i       distance of the complex L - S to the nearest multiple of 2*pi*i
    multiplicative  |exp(L) - exp(S)| / (1 + |exp(L)|)

Truncated Euler-Ramanujan series (arctan sums and the cosine product) are
provided as independent oracles for the closed forms.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as _expr
from .errors import DomainViolation
from .meshio import GridSpec
from .report import ErrorStats, VerificationReport
from .zmc import GraphJet, one_point

__all__ = [
    "HeightSurface",
    "IdentityTerm",
    "IdentityInstance",
    "UnknownSurface",
    "UnknownIdentity",
    "ParamDomainError",
    "SingularArgument",
    "BUILTIN_SURFACES",
    "IDENTITY_IDS",
    "builtin_surface",
    "affine_rescaled",
    "c_offsets",
    "identity_terms",
    "rescaled_component",
    "branch_error",
    "verify_identity",
    "verify_identity_at",
    "er_series_partial",
    "kind_equation",
]

PI = math.pi


class UnknownSurface(KeyError):
    """Surface id not in the registry."""


class UnknownIdentity(KeyError):
    """Identity id not in the registry."""


class ParamDomainError(ValueError):
    """Identity parameters violate a precondition (zero scale, empty sum, ...)."""


class SingularArgument(ValueError):
    """Series argument sits on the singular set of the identity."""


# ---------------------------------------------------------------------------
# singularity distances (complex-capable array predicates)
# ---------------------------------------------------------------------------

def _dist_mod_pi(t, offset: float = 0.0):
    r = np.mod(t - offset, PI)
    return np.minimum(r, PI - r)


def _cos_zero_distance(arg):
    """Distance from ``arg`` to the zero set of cos (points pi/2 + k*pi on the real axis)."""
    return np.hypot(_dist_mod_pi(np.real(arg), PI / 2), np.imag(arg))


def _cosh_zero_distance(arg):
    """Distance from ``arg`` to the zero set of cosh (points i*(pi/2 + k*pi))."""
    return np.hypot(np.real(arg), _dist_mod_pi(np.imag(arg), PI / 2))


def _sin_zero_distance(arg):
    return np.hypot(_dist_mod_pi(np.real(arg)), np.imag(arg))


def _zeros_like(a):
    return np.zeros_like(a)[()]


def _pole(d):
    """``d`` with its exact zeros replaced by nan, so a quotient by it is nan there
    (where the limit would otherwise come out finite, as atan(1/0) does)."""
    return np.where(d == 0, np.nan, d)[()]


def _negligible_imag(value):
    """Whether complex heights (an array or one value) count as real."""
    return abs(value.imag) <= 1e-9 * (1.0 + abs(value))


def _real_part(value):
    """Heights of real points: real formulas pass through; a complex value becomes
    its real part where the imaginary part is negligible, and nan elsewhere."""
    if not np.iscomplexobj(value):
        return value
    return np.where(_negligible_imag(value), value.real, np.nan)[()]


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------
#
# Every height, jet and domain predicate below is written once with numpy
# ufuncs, and a scalar query is its one-point case (``zmc.one_point``), which
# gives the bits of the same point in a lattice.  The exception is ``expr:``:
# its real scalar ``height_at`` and ``exact_jet`` run the compiled ``cmath``
# kernel (``eval``) and have its bits, which may differ in the last place
# from the tape's lattice entry; its complex and one-element queries run the
# tape.  Real arguments give real arithmetic (nan off the real domain),
# complex arguments complex arithmetic; exact poles give nan (``_pole``).

_AS_IS = contextlib.nullcontext()


@dataclass(frozen=True)
class HeightSurface:
    """A named graph surface z = Z(x, y).

    ``height`` is the formula (real or complex, arrays or scalars); ``domain``
    the real-point validity predicate with a singularity margin; ``exact_jet``
    the closed-form second-order jet (None when unavailable).  For kind !=
    generic the corresponding graph PDE residual vanishes on the default grid
    (tested, not assumed).  ``quiet`` says that ``height`` never emits numpy
    warnings, so ``evaluate`` need not silence them.
    """

    id: str
    kind: str
    height: Callable
    domain: Callable
    exact_jet: Optional[Callable]
    default_grid: GridSpec
    quiet: bool = False

    def evaluate(self, x, y):
        """The height at one real or complex point: the one-point case of ``height``,
        except at a real point of an ``expr:`` surface, whose value has the bits
        of its compiled ``cmath`` kernel rather than of its lattice tape.

        Raises DomainViolation when an input or the value is not finite, or
        when a real point has no real height.
        """
        real = not (isinstance(x, complex) or isinstance(y, complex))
        with _AS_IS if self.quiet else np.errstate(all="ignore"):
            h = self.height(*one_point(x, y))
        if real:  # _real_part without its array call, which costs more than the height
            value = complex(h)
            value = value.real if _negligible_imag(value) else math.nan
        else:
            value = complex(h[0])
        if not (cmath.isfinite(x) and cmath.isfinite(y) and cmath.isfinite(value)):
            what = "real value" if real else "value"
            raise DomainViolation(f"{self.id} has no finite {what} at ({x}, {y})", [(x, y)])
        return value

    def height_at(self, x: float, y: float) -> float:
        return self.evaluate(float(x), float(y))

    def heights(self, x, y):
        """Real heights at real points (arrays or scalars), nan where there is none."""
        with np.errstate(all="ignore"):
            return _real_part(self.height(x, y))

    def domain_ok(self, x, y, margin: float = 0.0):
        """The domain predicate: a bool for one point, a bool array for arrays."""
        ok = np.broadcast_to(self.domain(x, y, margin), np.broadcast(x, y).shape)
        return bool(ok) if ok.ndim == 0 else ok

    def sample_grid(self, grid: GridSpec):
        """Lattice points (u, v, heights(u, v)) and the mask of points in the
        domain at the grid's margin, with heights evaluated there only (nan
        elsewhere)."""
        u, v = grid.lattice()
        ok = self.domain_ok(u, v, grid.margin).copy()
        z = np.full(u.shape, np.nan)
        z[ok] = self.heights(u[ok], v[ok])
        return np.column_stack([u, v, z]), ok


@dataclass(frozen=True)
class _Factor:
    """cos or cosh as a factor of the log-ratio family z = log(F(y) / G(x))."""

    name: str
    fn: Callable             # the ufunc
    log_slopes: Callable     # a -> (log fn)'(a), (log fn)''(a)
    zero_distance: Callable  # a -> distance of a to the zeros of fn
    shift: Callable          # (a, c) -> the argument of a decomposition term
    shift_text: str
    real_zeros: bool


def _cos_log_slopes(a):
    t = np.tan(a)
    return -t, -(1 + t * t)


def _cosh_log_slopes(a):
    t = np.tanh(a)
    return t, 1 - t * t


_COS = _Factor("cos", np.cos, _cos_log_slopes, _cos_zero_distance,
               lambda a, c: a - c, " - c", True)
_COSH = _Factor("cosh", np.cosh, _cosh_log_slopes, _cosh_zero_distance,
                lambda a, c: a + 1j * c, " + i*c", False)

# Scherk's second surface and its maximal and Born-Infeld relatives:
# id -> (numerator factor F of y, denominator factor G of x, kind, branch
# policy of the ``<id>-decomp`` identity).
_LOG_RATIO_FAMILY = {
    "scherk2": (_COS, _COS, "minimal", "multiplicative"),
    "scherk2max": (_COSH, _COSH, "maximal", "mod-2pi-i"),
    "scherkBI": (_COSH, _COS, "bi-soliton", "mod-2pi-i"),
}


def _log_ratio_surface(name: str) -> HeightSurface:
    num, den, kind, _ = _LOG_RATIO_FAMILY[name]

    def height(x, y):
        return np.log(num.fn(y) / den.fn(x))

    def domain(x, y, margin):
        # The real height exists where the cos factors' product is positive.
        ok, product = True, 1.0
        for factor, a in ((num, y), (den, x)):
            if factor.real_zeros:
                ok = ok & (factor.zero_distance(a) >= margin)
                product = product * factor.fn(a)
        return ok & (product > 0)

    def jet(x, y):
        gx, gxx = den.log_slopes(x)
        fy, fyy = num.log_slopes(y)
        return GraphJet(height(x, y), -gx, fy, -gxx, _zeros_like(gx + fy), fyy)

    return HeightSurface(name, kind, height, domain, jet, GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41))


def _helicoid_height(x, y):
    return np.arctan(y / _pole(x))


def _helicoid_surface() -> HeightSurface:
    def domain(x, y, margin):
        return np.abs(x) > max(margin, 0.0)

    def jet(x, y):
        r2 = x * x + y * y
        r4 = r2 * r2
        return GraphJet(_helicoid_height(x, y), -y / r2, x / r2, 2 * x * y / r4,
                        (y * y - x * x) / r4, -2 * x * y / r4)

    return HeightSurface("helicoid", "minimal", _helicoid_height, domain, jet,
                         GridSpec(0.3, 2.5, -2.0, 2.0, 41, 41))


def _scherk_first_height(x, y, alpha: float):
    """One-parameter Scherk-tower family: -sec(a/2)*atan(tanh(x*sin(a)/2)/tan(y*sin(a/2)))."""
    s1 = math.sin(alpha) / 2.0
    s2 = math.sin(alpha / 2.0)
    sec = 1.0 / math.cos(alpha / 2.0)
    u = np.cos(s2 * y) / _pole(np.sin(s2 * y))
    return -sec * np.arctan(np.tanh(s1 * x) * u)


def _scherk1_surface(alpha: float) -> HeightSurface:
    if math.cos(alpha / 2.0) == 0 or math.sin(alpha) == 0 or math.sin(alpha / 2.0) == 0:
        raise UnknownSurface(f"scherk1 is degenerate at alpha={alpha}")
    s1 = math.sin(alpha) / 2.0
    s2 = math.sin(alpha / 2.0)
    sec = 1.0 / math.cos(alpha / 2.0)

    def height(x, y):
        return _scherk_first_height(x, y, alpha)

    def domain(x, y, margin):
        # Grid-space distance to the tan-pole lines y = k*pi/s2.
        return _dist_mod_pi(s2 * y) / abs(s2) >= max(margin, 1e-12)

    def jet(x, y):
        t = np.tanh(s1 * x)
        u = np.cos(s2 * y) / _pole(np.sin(s2 * y))
        d = 1 + t * t * u * u
        one_t = 1 - t * t
        one_u = 1 + u * u
        phi = np.arctan(t * u)
        phi_x = s1 * u * one_t / d
        phi_y = -s2 * t * one_u / d
        phi_xx = -2 * s1 * s1 * t * u * one_t * one_u / (d * d)
        phi_yy = 2 * s2 * s2 * t * u * one_u * one_t / (d * d)
        phi_xy = -s1 * s2 * one_t * one_u * (1 - t * t * u * u) / (d * d)
        return GraphJet(*(-sec * v for v in (phi, phi_x, phi_y, phi_xx, phi_xy, phi_yy)))

    lo = 0.18 / s2
    hi = (PI - 0.18) / s2
    return HeightSurface(f"scherk1:{alpha!r}", "minimal", height, domain, jet,
                         GridSpec(-2.0, 2.0, min(lo, hi), max(lo, hi), 41, 41))


def _plane_surface(a: float, b: float) -> HeightSurface:
    def height(x, y):
        return a * x + b * y

    def jet(x, y):
        zero = _zeros_like(x + y)
        return GraphJet(height(x, y), a + zero, b + zero, zero, zero, zero)

    return HeightSurface(f"plane:{a!r},{b!r}", "generic", height,
                         lambda x, y, margin: True, jet,
                         GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41))


def _points_key(x, y):
    """The bits of points: equal keys give equal heights."""
    return [(a.dtype, a.shape, a.tobytes()) for a in (np.asarray(x), np.asarray(y))]


def _expr_surface(text: str) -> HeightSurface:
    """A user graph: ``eval`` at a 0-d point, tapes on arrays of any size
    (complex values; real points take the real part).  A lattice jet evaluates
    the six jet trees on one tape, built on first use.

    An array domain check keeps its heights for the next ``height`` call, which
    takes them if its points have the same bits (as the stencil's ``heights``
    after its ``domain_ok``); any ``height`` call releases them.
    """
    e = _expr.parse_xy(text)
    ex, ey = e.derivative("x"), e.derivative("y")
    trees = (e, ex, ey, ex.derivative("x"), ex.derivative("y"), ey.derivative("y"))
    kept = None  # (points key, complex heights) of the last array domain check

    @functools.cache
    def jet_tape():
        return _expr.Tape(trees)

    def value(tree, x, y):
        if getattr(x, "ndim", 0) or getattr(y, "ndim", 0):
            return tree.eval_array(x, y)[0]
        try:
            return tree.eval(x, y)
        except _expr.EvalDomainError:
            return complex("nan")

    def height(x, y):
        nonlocal kept
        got, kept = kept, None
        if got is not None and got[0] == _points_key(x, y):
            return got[1]
        return value(e, x, y)

    def domain(x, y, margin):
        nonlocal kept
        z = value(e, x, y)
        if getattr(z, "ndim", 0):
            kept = (_points_key(x, y), z)
        return np.isfinite(_real_part(z))

    def jet(x, y):
        if getattr(x, "ndim", 0) or getattr(y, "ndim", 0):
            vals = list(jet_tape()(x, y)[0])
        else:
            vals = [value(tree, x, y) for tree in trees]
        if not (np.iscomplexobj(x) or np.iscomplexobj(y)):
            vals = [v.real for v in vals]
        return GraphJet(*vals)

    return HeightSurface(f"expr:{text}", "generic", height, domain, jet,
                         GridSpec(-1.0, 1.0, -1.0, 1.0, 41, 41), quiet=True)


def _fixed(build: Callable) -> Callable:
    """The registry entry of a surface without parameters: it takes no suffix."""
    def parse(rest):
        if rest is not None:
            raise ValueError(f"takes no parameters, got {rest!r}")
        return build()
    return parse


# id -> builder of the text after "id:" (None when the id has no colon).
_SURFACES = {
    "scherk2": _fixed(lambda: _log_ratio_surface("scherk2")),
    "scherk1": lambda rest: _scherk1_surface(float(rest) if rest else PI / 2),
    "helicoid": _fixed(_helicoid_surface),
    "scherk2max": _fixed(lambda: _log_ratio_surface("scherk2max")),
    "scherkBI": _fixed(lambda: _log_ratio_surface("scherkBI")),
    "plane": lambda rest: _plane_surface(*(map(float, rest.split(",")) if rest else (0.0, 0.0))),
}

BUILTIN_SURFACES = tuple(_SURFACES)


def builtin_surface(surface_id: str) -> HeightSurface:
    """Look up (and parameterize) a surface by its registry id."""
    if surface_id.startswith("expr:"):
        return _expr_surface(surface_id[len("expr:"):])
    name, colon, rest = surface_id.partition(":")
    if name not in _SURFACES:
        raise UnknownSurface(surface_id)
    try:
        return _SURFACES[name](rest if colon else None)
    except (ValueError, TypeError) as exc:
        raise UnknownSurface(f"bad surface id {surface_id!r}: {exc}") from exc


def affine_rescaled(surface: HeightSurface, a: float, b: float, d: float,
                    scale: float) -> HeightSurface:
    """The surface z = scale * Z((x - b)/a, (y - d)/a); jets follow by the chain rule.

    The ZMC kind is preserved exactly when scale == a: the graph is then the
    homothety image (x, y, z) -> (a x + b, a y + d, a z) of the base surface.
    Other vertical scales shear the graph anisotropically and break the PDE.
    """
    if a == 0:
        raise ParamDomainError("affine scale a must be nonzero")

    def height(x, y):
        return scale * surface.height((x - b) / a, (y - d) / a)

    def domain(x, y, margin):
        return surface.domain_ok((x - b) / a, (y - d) / a, margin)

    inner_jet = surface.exact_jet

    def jet(x, y):
        j = inner_jet((x - b) / a, (y - d) / a)
        return GraphJet(scale * j.z, (scale / a) * j.z_x, (scale / a) * j.z_y,
                        (scale / a ** 2) * j.z_xx, (scale / a ** 2) * j.z_xy,
                        (scale / a ** 2) * j.z_yy)

    g = surface.default_grid
    lo_u, hi_u = sorted((a * g.u_min + b, a * g.u_max + b))
    lo_v, hi_v = sorted((a * g.v_min + d, a * g.v_max + d))
    return HeightSurface(
        f"{surface.id}~affine({a!r},{b!r},{d!r};{scale!r})",
        surface.kind, height, domain, jet if inner_jet is not None else None,
        GridSpec(lo_u, hi_u, lo_v, hi_v, g.nu, g.nv, g.margin),
    )


def kind_equation(kind: str) -> Optional[str]:
    """Graph PDE matching a surface kind (None for generic/timelike graphs)."""
    return {"minimal": "minimal", "maximal": "maximal", "bi-soliton": "bi-soliton"}.get(kind)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def c_offsets(n: int) -> list:
    """The antisymmetric offset ladder c(m) = (2m - n + 1) * pi / (2n), m = 0..n-1."""
    return [(2 * m - n + 1) * PI / (2 * n) for m in range(n)]


@dataclass(frozen=True)
class IdentityTerm:
    """One evaluable term of an identity with its own singularity guard; both
    are numpy formulas that take whole arrays of points."""

    label: str
    fn: Callable     # (x, y) -> value
    guard: Callable  # (x, y, margin) -> bool


@dataclass(frozen=True)
class IdentityInstance:
    """A fully instantiated decomposition identity: LHS vs a finite term list."""

    id: str
    n: int
    params: dict
    lhs: IdentityTerm
    rhs_terms: tuple
    branch_policy: str


def _log_ratio_decomp(name: str, n: int, params: dict) -> IdentityInstance:
    num, den, _, policy = _LOG_RATIO_FAMILY[name]
    cs = c_offsets(n)
    lhs = IdentityTerm(
        f"log({num.name}(y)/{den.name}(x))",
        _log_ratio_surface(name).height,
        lambda x, y, m: (den.zero_distance(x) >= m) & (num.zero_distance(y) >= m),
    )
    # Margins are measured in grid coordinates, so arguments scaled by 1/n get
    # their singularity distance rescaled by n.
    terms = []
    for m, c in enumerate(cs):
        terms.append(IdentityTerm(
            f"log({num.name}(y/{n}{num.shift_text}{m})/{den.name}(x/{n}{den.shift_text}{m}))",
            lambda x, y, c=c: np.log(num.fn(num.shift(y / n, c)) / den.fn(den.shift(x / n, c))),
            lambda x, y, mg, c=c: ((n * den.zero_distance(den.shift(x / n, c)) >= mg)
                                   & (n * num.zero_distance(num.shift(y / n, c)) >= mg)),
        ))
    return IdentityInstance(f"{name}-decomp", n, {"c": cs}, lhs, tuple(terms), policy)


def _kamien_decomp(n: int, params: dict) -> IdentityInstance:
    beta = float(params.get("beta", PI / 6))
    sin_b = math.sin(beta)
    if abs(sin_b) > n:
        raise ParamDomainError(f"|sin(beta)| = {abs(sin_b)} exceeds n = {n}")
    if abs(sin_b) < 1e-12 or abs(math.cos(beta)) < 1e-12:
        raise ParamDomainError("beta must avoid multiples of pi/2 for the tower family")
    beta_t = beta if n == 1 else math.asin(sin_b / n)
    sin_bt = math.sin(beta_t)
    prefactor = math.cos(beta_t) / math.cos(beta)
    sec_b = 1.0 / math.cos(beta)
    sec_bt = 1.0 / math.cos(beta_t)

    lhs = IdentityTerm(
        "h[x*sec(beta), y; 2*beta]",
        lambda x, y: _scherk_first_height(x * sec_b, y, 2 * beta),
        lambda x, y, m: _sin_zero_distance(sin_b * y) >= m * abs(sin_b),
    )
    terms = []
    shifts = [m * PI / (n * sin_bt) for m in range(n)]
    for m, shift in enumerate(shifts):
        terms.append(IdentityTerm(
            f"(cos(bt)/cos(b)) * h[x*sec(bt), y + {m}*pi*csc(bt)/{n}; 2*bt]",
            lambda x, y, s=shift: prefactor * _scherk_first_height(x * sec_bt, y + s, 2 * beta_t),
            lambda x, y, mg, s=shift: _sin_zero_distance(sin_bt * (y + s)) >= mg * abs(sin_bt),
        ))
    return IdentityInstance(
        "kamien-decomp", n,
        {"beta": beta, "beta_tilde": beta_t, "prefactor": prefactor, "shifts": shifts},
        lhs, tuple(terms), "mod-pi")


def _arctan_tanh_cot(a, b):
    return np.arctan(np.tanh(a) * np.cos(b) / _pole(np.sin(b)))


def _arctan_ratio(num, den):
    return np.arctan(num / _pole(den))


def _helicoid_decomp(n: int, params: dict) -> IdentityInstance:
    lhs = IdentityTerm(
        "atan(tanh(y)*cot(x))",
        lambda x, y: _arctan_tanh_cot(y, x),
        lambda x, y, m: _sin_zero_distance(x) >= m,
    )
    terms = []
    # Margins are grid-space distances: arguments scaled by 1/n rescale by n.
    # Group 1: tower terms at the shifted/scaled arguments.
    for m in range(1, n):
        terms.append(IdentityTerm(
            f"+atan(tanh(y/{n})*cot((x+{m}*pi)/{n}))",
            lambda x, y, m=m: _arctan_tanh_cot(y / n, (x + m * PI) / n),
            lambda x, y, mg, m=m: n * _sin_zero_distance((x + m * PI) / n) >= mg,
        ))
    # Group 2: subtracted flat arctans at the same scaled arguments.
    for m in range(1, n):
        terms.append(IdentityTerm(
            f"-atan((y/{n})/((x+{m}*pi)/{n}))",
            lambda x, y, m=m: -_arctan_ratio(y / n, (x + m * PI) / n),
            lambda x, y, mg, m=m: np.abs(x + m * PI) >= mg,
        ))
    # Group 3: the lone unshifted tower term.
    terms.append(IdentityTerm(
        f"+atan(tanh(y/{n})*cot(x/{n}))",
        lambda x, y: _arctan_tanh_cot(y / n, x / n),
        lambda x, y, mg: n * _sin_zero_distance(x / n) >= mg,
    ))
    # Group 4: subtracted flat arctans with the pi-shifted denominator.
    for m in range(1, n):
        terms.append(IdentityTerm(
            f"-atan((y/{n})/((x+{m}*pi)/{n} - pi))",
            lambda x, y, m=m: -_arctan_ratio(y / n, (x + m * PI) / n - PI),
            lambda x, y, mg, m=m: np.abs(x + m * PI - n * PI) >= mg,
        ))
    # Groups 5 and 6: the two helicoid fans.
    for m in range(1, n):
        terms.append(IdentityTerm(
            f"+atan(y/(x+{m}*pi))",
            lambda x, y, m=m: _arctan_ratio(y, x + m * PI),
            lambda x, y, mg, m=m: np.abs(x + m * PI) >= mg,
        ))
    for m in range(1, n):
        terms.append(IdentityTerm(
            f"+atan(y/(x-{m}*pi))",
            lambda x, y, m=m: _arctan_ratio(y, x - m * PI),
            lambda x, y, mg, m=m: np.abs(x - m * PI) >= mg,
        ))
    return IdentityInstance("helicoid-decomp", n, {}, lhs, tuple(terms), "mod-pi")


def _general_scaled(n: int, params: dict) -> IdentityInstance:
    surface_id = str(params.get("surface", "scherk2"))
    base = builtin_surface(surface_id)

    def floats(name, default):  # a bare number is one value
        return [float(v) for v in np.atleast_1d(params.get(name, default))]

    a = floats("a", [1.0] * n)
    b = floats("b", [0.0] * n)
    d = floats("d", [0.0] * n)
    c = floats("c", [float(m) for m in range(1, n + 1)])
    for name, values in (("a", a), ("b", b), ("d", d), ("c", c)):
        if len(values) != n:
            raise ParamDomainError(f"parameter {name!r} must have length n = {n}")
    if any(v == 0 for v in a):
        raise ParamDomainError("all scale factors a_m must be nonzero")
    if any(v == 0 for v in c):
        raise ParamDomainError("all weights c_m must be nonzero")
    c_total = sum(1.0 / v for v in c)
    if abs(c_total) < 1e-15:
        raise ParamDomainError("the weight sum C_n must be nonzero")

    lhs = IdentityTerm(
        f"{surface_id}(x, y)",
        lambda x, y: base.height(x, y),
        lambda x, y, m: (True if np.iscomplexobj(x) or np.iscomplexobj(y)
                         else base.domain_ok(x, y, m)),
    )
    terms = []
    for m in range(n):
        am, bm, dm, cm = a[m], b[m], d[m], c[m]

        def term_fn(x, y, am=am, bm=bm, dm=dm, cm=cm):
            # Evaluated through the literal affine chain so the algebraic
            # cancellation is exercised, not assumed.
            xx = am * x + bm
            yy = am * y + dm
            return base.height((xx - bm) / am, (yy - dm) / am) / (cm * c_total)

        terms.append(IdentityTerm(
            f"(1/(C_n*c_{m})) * {surface_id}(((a_{m}x+b_{m})-b_{m})/a_{m}, ...)",
            term_fn, lhs.guard))
    return IdentityInstance(
        "general-scaled", n,
        {"surface": surface_id, "a": a, "b": b, "d": d, "c": c, "C_n": c_total},
        lhs, tuple(terms), "principal")


def rescaled_component(inst: IdentityInstance, m: int) -> HeightSurface:
    """The m-th component rescaled back to a surface of the base kind:
    alpha_m * Z_m with alpha_m = a_m * c_m, i.e. a_m * Z((x-b_m)/a_m, (y-d_m)/a_m).

    This is the homothety image of the base surface (scale a_m plus the
    translation), which satisfies the same graph PDE.  Rescaling by c_m/a_m
    instead would scale the height by 1/a_m against a plane scale of a_m, a
    vertical squeeze that is not ZMC for a_m != +-1.
    """
    if inst.id != "general-scaled":
        raise UnknownIdentity("rescaled components exist only for general-scaled")
    base = builtin_surface(inst.params["surface"])
    a = inst.params["a"][m]
    return affine_rescaled(base, a, inst.params["b"][m], inst.params["d"][m], a)


_IDENTITY_BUILDERS = {
    **{f"{name}-decomp": functools.partial(_log_ratio_decomp, name) for name in _LOG_RATIO_FAMILY},
    "kamien-decomp": _kamien_decomp,
    "helicoid-decomp": _helicoid_decomp,
    "general-scaled": _general_scaled,
}

IDENTITY_IDS = tuple(sorted(_IDENTITY_BUILDERS))


def identity_terms(identity_id: str, n: int, params: Optional[dict] = None) -> IdentityInstance:
    """Instantiate an identity from the registry with its default branch policy."""
    if identity_id not in _IDENTITY_BUILDERS:
        raise UnknownIdentity(identity_id)
    if not isinstance(n, int) or n < 1:
        raise ParamDomainError(f"n must be a positive integer, got {n!r}")
    return _IDENTITY_BUILDERS[identity_id](n, dict(params or {}))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

BRANCH_POLICIES = ("principal", "mod-pi", "mod-2pi-i", "multiplicative")

PROBE_MARGIN = 0.05

_TWO_PI = 2 * PI


def branch_error(policy: str, lhs, rhs_sum):
    """Distance between the two sides under the branch policy (arrays or scalars)."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs_sum = np.asarray(rhs_sum, dtype=complex)
    d = lhs - rhs_sum
    if policy == "principal":
        return np.abs(d)[()]
    if policy == "mod-pi":
        k = np.round(d.real / PI)
        return np.abs(d - k * PI)[()]
    if policy == "mod-2pi-i":
        k = np.round(d.imag / _TWO_PI)
        return np.abs(d - k * _TWO_PI * 1j)[()]
    if policy == "multiplicative":
        el = np.exp(lhs)
        es = np.exp(rhs_sum)
        return (np.abs(el - es) / (1.0 + np.abs(el)))[()]
    raise ValueError(f"unknown branch policy {policy!r}")


def _sweep(inst: IdentityInstance, x, y, points, policy: Optional[str], tolerance: float, grid,
           margin: float, extra_params=None) -> VerificationReport:
    """Check the guards, then evaluate every point at once and reduce in order.

    ``x`` and ``y`` broadcast against each other to the points (lattice axes,
    or two 1-d arrays), and ``points`` are their coordinates in row-major
    order; the guards see them as given, the terms in complex arithmetic.
    ``policy`` defaults to the identity's own.
    """
    policy = policy or inst.branch_policy
    if policy not in BRANCH_POLICIES:
        raise ValueError(f"unknown branch policy {policy!r}")
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    ok = inst.lhs.guard(x, y, margin)
    for t in inst.rhs_terms:
        ok = ok & t.guard(x, y, margin)
    bad = np.flatnonzero(~np.broadcast_to(ok, shape))
    if bad.size:
        raise DomainViolation(
            f"{bad.size} probe points violate the {inst.id} singularity margin {margin}",
            [tuple(points[k]) for k in bad[:10]])
    zx, zy = x.astype(complex), y.astype(complex)
    with np.errstate(all="ignore"):
        lhs = np.broadcast_to(inst.lhs.fn(zx, zy), shape).reshape(-1)
        rhs = np.broadcast_to(sum(t.fn(zx, zy) for t in inst.rhs_terms), shape).reshape(-1)
        bad = np.flatnonzero(~(np.isfinite(lhs) & np.isfinite(rhs)))
        if bad.size:
            raise DomainViolation(
                f"{bad.size} probe points give non-finite {inst.id} terms",
                [tuple(points[k]) for k in bad[:10]])
        err = branch_error(policy, lhs, rhs)
    stats = ErrorStats()
    stats.add_many(err, points, lhs, rhs)
    return VerificationReport.of(
        stats, subject=f"identity:{inst.id}",
        parameters={"n": inst.n, **inst.params, **(extra_params or {})},
        grid=grid, policy=policy, tolerance=tolerance)


def verify_identity(inst: IdentityInstance, grid: GridSpec, tolerance: float = 1e-9,
                    policy: Optional[str] = None) -> VerificationReport:
    """Sweep the identity over a real lattice under the branch policy.

    Every lattice point must clear every term's singularity margin, and every
    term must be finite there (DomainViolation otherwise).  The whole lattice
    is evaluated at once on its axes and reduced in row-major order.
    """
    u, v = grid.axes()
    return _sweep(inst, u, v, np.column_stack(grid.lattice()), policy, tolerance, grid,
                  grid.margin)


def verify_identity_at(inst: IdentityInstance, points, tolerance: float = 1e-9,
                       policy: Optional[str] = None) -> VerificationReport:
    """Verify at explicit probe points (real or complex pairs), which must clear
    every term's singularity margin ``PROBE_MARGIN``."""
    points = list(points)
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    return _sweep(inst, x, y, points, policy, tolerance, None, PROBE_MARGIN,
                  {"probes": len(points), "margin": PROBE_MARGIN})


# ---------------------------------------------------------------------------
# Euler-Ramanujan partial sums (independent oracles)
# ---------------------------------------------------------------------------

ER_KINDS = ("arctan-sum", "cos-product", "arctan-bilateral")


def er_series_partial(kind: str, a: float, b: float, terms: int) -> float:
    """Truncated series oracle.

    * ``arctan-sum``:        atan(a/b) + sum_{k=1..K} [atan(a/(b+k*pi)) + atan(a/(b-k*pi))]
    * ``arctan-bilateral``:  sum_{k=-K..K} atan(a/(b+k*pi))
    * ``cos-product``:       log of the K-term product for cos(a)/cos(b) with
                             X = a - b, A = b:
                             sum_{k=1..K} log((1 - X/((k-1/2)pi - A)) * (1 + X/((k-1/2)pi + A)))

    Both arctan forms converge to atan(tanh(a)*cot(b)) with an O(a*b/K) tail.
    """
    if terms < 1:
        raise ValueError("need at least one term")
    if kind in ("arctan-sum", "arctan-bilateral"):
        if _dist_mod_pi(b) < 1e-12:
            raise SingularArgument(f"b = {b} is a multiple of pi")
        if kind == "arctan-sum":
            total = math.atan(a / b)
            for k in range(1, terms + 1):
                total += math.atan(a / (b + k * PI)) + math.atan(a / (b - k * PI))
            return total
        total = 0.0
        for k in range(-terms, terms + 1):
            total += math.atan(a / (b + k * PI))
        return total
    if kind == "cos-product":
        big_a = b
        x = a - b
        if _dist_mod_pi(big_a, PI / 2) < 1e-12:
            raise SingularArgument(f"A = {big_a} is an odd multiple of pi/2")
        total = 0.0
        for k in range(1, terms + 1):
            node = (k - 0.5) * PI
            factor = (1.0 - x / (node - big_a)) * (1.0 + x / (node + big_a))
            if factor <= 0:
                raise SingularArgument(
                    f"product factor nonpositive at k={k} (arguments too large)")
            total += math.log(factor)
        return total
    raise ValueError(f"unknown series kind {kind!r}; expected one of {ER_KINDS}")
