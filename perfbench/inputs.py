"""Seeded inputs for the three benchmark workloads.

``make_spec(workload, seed)`` draws every input from a ``random.Random``
seeded with the workload name and the seed, and returns plain JSON data: grid
windows, identity parameters, probe points and the coefficients of
representation data.  ``build(workload, spec)`` turns
that data into zmcsurf objects through the public API (parsing, identity
instantiation, surface lookup); it is the whole of the set-up that
``setup_s`` measures.

Sizes, ``n`` values and data *families* are fixed so that every seed does the
same amount of work; the seed moves windows, ``beta``/``theta``, coefficients
and probes.  Every range below is chosen to stay clear of the singular set of
its surface and of each identity's guard margin (reasons inline), and every
representation datum is an exp/trig/polynomial family whose antiderivative has
a closed form, so ``oracles.py`` can check outputs without quadrature.

This module imports nothing from zmcsurf or numpy at import time, so the set-up
probe can generate a spec before it starts its clock.
"""

import math
import random

PI = math.pi
WORKLOADS = ("representations", "closed_forms", "mesh_io")

# Lattice sizes (points per side).
REP_N = 5           # WE / TLMS / BC patches and sweeps
INV_N = 5           # Newton-inverted height patch
SPLIT_WEIGHTS = 3   # pieces in the reduced-R split
SPLIT_SAMPLES = 25  # random probes of the split check
THETAS = 3          # associated-family members
IDENT_N = 31        # identity lattices
RESID_EXACT_N = 31  # exact-jet residual lattices
RESID_FD_N = 21     # central-difference residual lattices
PROBES = 50         # complex probes per identity
MESH_N = 101        # mesh_io lattices

EXPR_SURFACE = "expr:log(cos(y)/cos(x))"


def _u(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _grid(u_min, u_max, v_min, v_max, nu, nv=None, margin=0.05):
    return {"u_min": u_min, "u_max": u_max, "v_min": v_min, "v_max": v_max,
            "nu": nu, "nv": nv or nu, "margin": margin}


def _box(rng, lo, hi, min_width, n):
    """A sub-box of [lo, hi]^2 with each side at least ``min_width`` long."""
    sides = []
    for _ in range(2):
        a = _u(rng, lo, hi - min_width)
        b = _u(rng, a + min_width, hi)
        sides += [a, b]
    return _grid(*sides, n)


# ---------------------------------------------------------------------------
# representation data: (family, coefficients) pairs, text made in family_text
# ---------------------------------------------------------------------------
#
#   lin   c0 + c1*v              exp   a*exp(k*v)
#   cos   a*cos(m*v)             sin   a*sin(m*v)
#   cub   c1*v + c2*v^2 + c3*v^3
#
# Coefficients are rounded decimals, so the text the program parses and the
# floats the oracle uses are the same numbers.

def family_text(family, coeffs, var):
    if family == "lin":
        return f"{coeffs[0]!r}+{coeffs[1]!r}*{var}"
    if family == "exp":
        return f"{coeffs[0]!r}*exp({coeffs[1]!r}*{var})"
    if family in ("cos", "sin"):
        return f"{coeffs[0]!r}*{family}({coeffs[1]!r}*{var})"
    if family == "cub":
        c1, c2, c3 = coeffs
        return f"{c1!r}*{var}+{c2!r}*{var}^2+{c3!r}*{var}^3"
    raise ValueError(f"unknown family {family!r}")


def _zeta_window(rng, n):
    # |zeta| <= 1: the 32-node rule then settles at two segments for every
    # family below, so the quadrature work per point does not depend on the seed.
    cu, cv = _u(rng, -0.15, 0.15), _u(rng, -0.15, 0.15)
    h = _u(rng, 0.45, 0.6)
    return _grid(round(cu - h, 4), round(cu + h, 4), round(cv - h, 4), round(cv + h, 4), n)


def _representations(rng):
    # Minimal: Enneper-like, f = c0 + c1 w stays away from 0 for |w| <= 1.
    we_min = {"f": ["lin", [_u(rng, 0.8, 1.2), _u(rng, 0.05, 0.3)]],
              "g": ["lin", [_u(rng, 0.0, 0.2), _u(rng, 0.6, 1.0)]],
              "grid": _zeta_window(rng, REP_N)}
    # Maximal: |g| = |b w| <= 0.7 keeps the induced metric spacelike.
    we_max = {"f": ["exp", [_u(rng, 0.7, 1.3), _u(rng, 0.4, 0.9)]],
              "g": ["lin", [_u(rng, 0.0, 0.1), _u(rng, 0.3, 0.6)]],
              "grid": _zeta_window(rng, REP_N)}
    # Associated family: m|w| < pi/2 keeps f = a cos(m w) nonvanishing.
    assoc = {"f": ["cos", [_u(rng, 0.7, 1.3), _u(rng, 0.5, 1.0)]],
             "g": ["sin", [_u(rng, 0.5, 1.0), _u(rng, 0.5, 1.0)]],
             "thetas": sorted(_u(rng, 0.0, PI / 2) for _ in range(THETAS)),
             "grid": _zeta_window(rng, REP_N)}
    lams = [_u(rng, 0.2, 0.4) for _ in range(SPLIT_WEIGHTS - 1)]  # last >= 0.2
    split = {"r": ["exp", [_u(rng, 0.7, 1.3), _u(rng, 0.4, 0.9)]],
             "weights": lams + [1.0 - sum(lams)],
             "seed": rng.randrange(1, 2 ** 31)}
    # Inversion: near-Enneper data on a small window around the origin, where
    # (x, y) -> zeta is one-to-one and the Jacobian is close to c0 * identity.
    c = _u(rng, -0.05, 0.05), _u(rng, -0.05, 0.05)
    h = _u(rng, 0.25, 0.35)
    inverted = {"f": ["lin", [_u(rng, 0.9, 1.1), _u(rng, 0.0, 0.1)]],
                "g": ["lin", [0.0, _u(rng, 0.7, 1.0)]],
                "seed": [_u(rng, -0.05, 0.05), _u(rng, -0.05, 0.05)],
                "grid": _grid(round(c[0] - h, 4), round(c[0] + h, 4),
                              round(c[1] - h, 4), round(c[1] + h, 4), INV_N)}
    # TLMS: |q|, |r| <= 0.7 keeps q r != 1, so the metric never degenerates.
    tlms = {"f": ["lin", [_u(rng, 0.8, 1.2), _u(rng, 0.0, 0.2)]],
            "q": ["lin", [_u(rng, -0.1, 0.1), _u(rng, 0.4, 0.7)]],
            "g": ["exp", [_u(rng, 0.8, 1.2), _u(rng, 0.4, 0.8)]],
            "r": ["lin", [_u(rng, -0.1, 0.1), _u(rng, 0.4, 0.7)]],
            "grid": _zeta_window(rng, REP_N)}
    # BC: F' = c1 + 2 c2 r + 3 c3 r^2 >= 0.8 - 0.32 - 0.3 > 0 for |r| <= 1.
    bc = {"F": ["cub", [_u(rng, 0.8, 1.2), _u(rng, 0.0, 0.16), _u(rng, 0.0, 0.1)]],
          "G": ["cub", [_u(rng, 0.8, 1.2), _u(rng, 0.0, 0.16), _u(rng, 0.0, 0.1)]],
          "grid": _zeta_window(rng, REP_N)}
    return {"we_minimal": we_min, "we_maximal": we_max, "associated": assoc,
            "split": split, "inverted": inverted, "tlms": tlms, "bc": bc}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _closed_forms(rng):
    spec = {}
    # scherk2 terms are singular only on x, y = pi/2 + k*pi (in grid units), so
    # boxes inside [-1.4, 1.4]^2 clear the 0.05 margin by more than 0.1.
    spec["scherk2_decomp"] = [{"n": n, "grid": _box(rng, -1.4, 1.4, 1.0, IDENT_N)}
                              for n in (2, 3, 4, 5)]
    # Every helicoid-decomp term is singular only on x in pi*Z.
    spec["helicoid_decomp"] = []
    for n in (2, 3):
        spec["helicoid_decomp"].append({"n": n, "grid": _grid(
            _u(rng, 0.15, 0.8), _u(rng, 2.3, 2.95), _u(rng, -2.5, -1.0), _u(rng, 1.0, 2.5),
            IDENT_N)})
    # Kamien terms are singular only on sin(beta) * y in pi*Z.
    spec["kamien_decomp"] = []
    for n in (2, 3):
        beta = _u(rng, PI / 8, 3 * PI / 8)
        sb = math.sin(beta)
        spec["kamien_decomp"].append({"n": n, "beta": beta, "grid": _grid(
            _u(rng, -2.5, -1.0), _u(rng, 1.0, 2.5),
            round(_u(rng, 0.15, 0.6) / sb, 4), round((PI - _u(rng, 0.15, 0.6)) / sb, 4),
            IDENT_N - 6)})
    c1 = _u(rng, 0.8, 2.5)
    c2 = -_u(rng, 0.3, 0.6)  # 1/c1 + 1/c2 <= 1.25 - 1.67 < 0: C_n stays away from 0
    spec["general_scaled"] = {
        "a": [_u(rng, 0.6, 1.5), _u(rng, 0.6, 1.5)],
        "b": [_u(rng, -0.3, 0.3), _u(rng, -0.3, 0.3)],
        "d": [_u(rng, -0.3, 0.3), _u(rng, -0.3, 0.3)],
        "c": [c1, c2],
        "grid": _box(rng, -1.3, 1.3, 1.0, IDENT_N)}
    # |Im| <= 0.45 keeps every cosh(y/n + i c) and cos(x/n - c) factor at grid
    # distance >= pi/2 - 0.45 from its zeros.
    spec["probes"] = {ident: {n: [[_u(rng, -1, 1), _u(rng, -0.45, 0.45),
                                   _u(rng, -1, 1), _u(rng, -0.45, 0.45)]
                                  for _ in range(PROBES)] for n in ("2", "3")}
                      for ident in ("scherk2max-decomp", "scherkBI-decomp")}
    s2 = math.sin(PI / 4)  # scherk1 (alpha = pi/2) has tan poles at y = k*pi/s2
    windows = {
        "scherk2": (-1.3, 1.3, -1.3, 1.3),
        "scherk1": (-2.0, 2.0, 0.2 / s2, (PI - 0.2) / s2),
        "helicoid": (0.3, 2.5, -2.0, 2.0),
        "scherk2max": (-1.5, 1.5, -1.5, 1.5),
        "scherkBI": (-1.3, 1.3, -1.5, 1.5),
        EXPR_SURFACE: (-1.3, 1.3, -1.3, 1.3),
    }
    spec["residuals"] = []
    for method, n in (("exact", RESID_EXACT_N), ("central-diff", RESID_FD_N)):
        for sid, (a, b, c, d) in windows.items():
            wu, wv = 0.6 * (b - a), 0.6 * (d - c)
            u0 = _u(rng, a, b - wu)
            v0 = _u(rng, c, d - wv)
            spec["residuals"].append({"surface": sid, "method": method, "grid": _grid(
                u0, round(u0 + wu, 4), v0, round(v0 + wv, 4), n)})
    spec["expr_heights"] = {"surface": EXPR_SURFACE,
                            "grid": _box(rng, -1.3, 1.3, 1.0, IDENT_N)}
    # The window straddles at least two band boundaries x = (2k+1)*pi.
    spec["foliation"] = {
        "grid": _grid(_u(rng, -3 * PI, -PI - 0.3), _u(rng, PI + 0.3, 3 * PI),
                      _u(rng, -3.0, -1.0), _u(rng, 1.0, 3.0), 41),
        "t_samples": sorted(_u(rng, -3.0, 3.0) for _ in range(3)),
        "seed": rng.randrange(1, 2 ** 31)}
    return spec


# ---------------------------------------------------------------------------
# mesh I/O
# ---------------------------------------------------------------------------

def _mesh_io(rng):
    # Each window crosses its surface's singular set, so some vertices are
    # masked and the faces around them are skipped; scherk2max has none.
    def centred(cx, cy, hx, hy):
        ox, oy = _u(rng, -0.1, 0.1), _u(rng, -0.1, 0.1)
        return _grid(round(cx + ox - hx, 4), round(cx + ox + hx, 4),
                     round(cy + oy - hy, 4), round(cy + oy + hy, 4), MESH_N)

    s2 = math.sin(PI / 4)
    patches = [
        {"surface": "scherk2", "grid": centred(0.0, 0.0, 2.2, 2.2)},       # x, y = +-pi/2
        {"surface": "scherk1", "grid": centred(0.0, PI / s2, 2.0, 1.5)},   # y = pi/s2
        {"surface": "helicoid", "grid": centred(0.0, 0.0, 1.5, 1.5)},      # x = 0
        {"surface": "scherk2max", "grid": centred(0.0, 0.0, 1.5, 1.5)},
        {"surface": "scherkBI", "grid": centred(0.0, 0.0, 2.0, 1.5)},      # x = +-pi/2
    ]
    for t in sorted(_u(rng, -2.0, 2.0) for _ in range(2)):                 # (2*pi*k, 0)
        patches.append({"surface": "leaf", "t": t,
                        "grid": centred(2 * PI, 0.0, PI, 2.0)})
    return {"patches": patches}


def make_spec(workload, seed):
    """Every input of ``workload`` for ``seed``, as JSON data."""
    makers = {"representations": _representations, "closed_forms": _closed_forms,
              "mesh_io": _mesh_io}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return makers[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# building program objects from a spec
# ---------------------------------------------------------------------------

def build(workload, spec):
    """Program objects for ``spec``; the only place the benchmark parses or
    instantiates zmcsurf inputs."""
    from zmcsurf import catalog, foliation, reps
    from zmcsurf.meshio import GridSpec

    def grid(g):
        return GridSpec(g["u_min"], g["u_max"], g["v_min"], g["v_max"],
                        g["nu"], g["nv"], g["margin"])

    def text(pair, var):
        return family_text(pair[0], pair[1], var)

    if workload == "representations":
        s = spec
        out = {
            "we_minimal": reps.WEData.from_text(text(s["we_minimal"]["f"], "w"),
                                                text(s["we_minimal"]["g"], "w")),
            "we_maximal": reps.WEData.from_text(text(s["we_maximal"]["f"], "w"),
                                                text(s["we_maximal"]["g"], "w"),
                                                mode="maximal"),
            "associated": reps.WEData.from_text(text(s["associated"]["f"], "w"),
                                                text(s["associated"]["g"], "w")),
            "split": reps.WEData.reduced(text(s["split"]["r"], "w")),
            "inverted": reps.WEData.from_text(text(s["inverted"]["f"], "w"),
                                              text(s["inverted"]["g"], "w")),
            "tlms": reps.TLMSData.from_text(text(s["tlms"]["f"], "u"), text(s["tlms"]["g"], "v"),
                                            text(s["tlms"]["q"], "u"), text(s["tlms"]["r"], "v")),
            "bc": reps.BCData.from_text(text(s["bc"]["F"], "r"), text(s["bc"]["G"], "s")),
        }
        for name in ("we_minimal", "we_maximal", "associated", "inverted", "tlms", "bc"):
            out[name + ".grid"] = grid(s[name]["grid"])
        return out

    if workload == "closed_forms":
        s = spec
        out = {"identities": [], "probes": [], "residuals": []}
        for key, ident in (("scherk2_decomp", "scherk2-decomp"),
                           ("helicoid_decomp", "helicoid-decomp"),
                           ("kamien_decomp", "kamien-decomp")):
            for item in s[key]:
                params = {"beta": item["beta"]} if "beta" in item else None
                out["identities"].append(
                    (f"{ident}-n{item['n']}", catalog.identity_terms(ident, item["n"], params),
                     grid(item["grid"]), 1e-9))
        gs = s["general_scaled"]
        out["identities"].append(("general-scaled-scherk2", catalog.identity_terms(
            "general-scaled", 2, {"surface": "scherk2", "a": gs["a"], "b": gs["b"],
                                  "d": gs["d"], "c": gs["c"]}), grid(gs["grid"]), 1e-12))
        for ident, by_n in s["probes"].items():
            for n, rows in by_n.items():
                pts = [(complex(a, b), complex(c, d)) for a, b, c, d in rows]
                out["probes"].append((f"{ident}-n{n}", catalog.identity_terms(ident, int(n)), pts))
        for item in s["residuals"]:
            surf = catalog.builtin_surface(item["surface"])
            eq = catalog.kind_equation(surf.kind) or "minimal"  # expr: scherk2 is minimal
            out["residuals"].append((item["surface"], item["method"], surf, eq,
                                     grid(item["grid"])))
        out["expr_heights"] = (catalog.builtin_surface(s["expr_heights"]["surface"]),
                               grid(s["expr_heights"]["grid"]))
        out["foliation"] = grid(s["foliation"]["grid"])
        return out

    if workload == "mesh_io":
        out = []
        for item in spec["patches"]:
            if item["surface"] == "leaf":
                source = foliation.LeafSurface(item["t"])
            else:
                source = catalog.builtin_surface(item["surface"])
            out.append((item, source, grid(item["grid"])))
        return out

    raise ValueError(f"unknown workload {workload!r}")
