"""Closed-form oracles that check program outputs from outside the program.

Nothing here calls zmcsurf.  Representation data are sums of terms
``c * w^p * exp(k*w)``, whose antiderivatives are closed forms, so patch
vertices are checked without quadrature; the inverted height patch is checked
with an independent numpy Newton on the closed-form map; catalog heights,
domain masks and identity sides are the formulas written again in numpy.
"""

import math
from math import factorial

import numpy as np

PI = math.pi
TWO_PI = 2 * PI


# ---------------------------------------------------------------------------
# term sums {(p, k): c}  ->  sum of c * w^p * exp(k w)
# ---------------------------------------------------------------------------

ONE = {(0, 0j): 1 + 0j}


def family_terms(family, coeffs):
    if family == "lin":
        return {(0, 0j): complex(coeffs[0]), (1, 0j): complex(coeffs[1])}
    if family == "exp":
        return {(0, complex(coeffs[1])): complex(coeffs[0])}
    if family == "cos":
        a, m = coeffs
        return {(0, 1j * m): a / 2 + 0j, (0, -1j * m): a / 2 + 0j}
    if family == "sin":
        a, m = coeffs
        return {(0, 1j * m): a / 2j, (0, -1j * m): -a / 2j}
    if family == "cub":
        return {(p, 0j): complex(c) for p, c in enumerate(coeffs, start=1)}
    raise ValueError(f"unknown family {family!r}")


def t_add(a, b, sb=1.0):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0j) + sb * c
    return out


def t_scale(a, s):
    return {key: s * c for key, c in a.items()}


def t_mul(a, b):
    out = {}
    for (p1, k1), c1 in a.items():
        for (p2, k2), c2 in b.items():
            key = (p1 + p2, k1 + k2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def t_deriv(a):
    out = {}
    for (p, k), c in a.items():
        if k != 0:
            out[(p, k)] = out.get((p, k), 0j) + k * c
        if p > 0:
            out[(p - 1, k)] = out.get((p - 1, k), 0j) + p * c
    return out


def t_eval(a, w):
    w = np.asarray(w, dtype=complex)
    total = np.zeros_like(w)
    for (p, k), c in a.items():
        total = total + c * w ** p * np.exp(k * w)
    return total


def t_integral(a, w):
    """Integral of the term sum from 0 to w (path independent: entire integrand)."""
    w = np.asarray(w, dtype=complex)
    total = np.zeros_like(w)
    for (p, k), c in a.items():
        if k == 0:
            total = total + c * w ** (p + 1) / (p + 1)
            continue
        # w^p e^{kw}: e^{kw} sum_j (-1)^j p!/(p-j)! w^(p-j) / k^(j+1), minus its value at 0
        poly = sum((-1) ** j * factorial(p) / factorial(p - j) * w ** (p - j) / k ** (j + 1)
                   for j in range(p + 1))
        at0 = (-1) ** p * factorial(p) / k ** (p + 1)
        total = total + c * (np.exp(k * w) * poly - at0)
    return total


def spec_terms(pair):
    return family_terms(pair[0], pair[1])


# ---------------------------------------------------------------------------
# representation oracles
# ---------------------------------------------------------------------------

def lattice(g):
    """(u, v) arrays of a grid dict, row-major like GridSpec.points()."""
    us = np.linspace(g["u_min"], g["u_max"], g["nu"])
    vs = np.linspace(g["v_min"], g["v_max"], g["nv"])
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    return uu.ravel(), vv.ravel()


def we_integrands(f, g, mode):
    g2 = t_mul(g, g)
    if mode == "maximal":
        return (t_mul(t_add(ONE, g2), f), t_scale(t_mul(t_add(ONE, g2, -1), f), 1j),
                t_scale(t_mul(g, f), -2))
    return (t_mul(t_add(ONE, g2, -1), f), t_scale(t_mul(t_add(ONE, g2), f), 1j),
            t_scale(t_mul(g, f), 2))


def we_patch(item, mode="minimal", theta=0.0):
    """Associated-family points cos(theta) Re I + sin(theta) Im I (zeta0 = 0, no offset)."""
    u, v = lattice(item["grid"])
    phis = we_integrands(spec_terms(item["f"]), spec_terms(item["g"]), mode)
    ints = [t_integral(p, u + 1j * v) for p in phis]
    ct, st = math.cos(theta), math.sin(theta)
    return np.stack([ct * i.real + st * i.imag for i in ints], axis=1)


def reduced_height(r_pair, zeta):
    """Height of reduced-R data (g = w) at zeta: Re of the integral of 2 w R."""
    return t_integral(t_scale(t_mul({(1, 0j): 1 + 0j}, spec_terms(r_pair)), 2),
                      np.asarray(zeta)).real


def tlms_patch(item):
    u, v = lattice(item["grid"])

    def parts(f, q, s):
        f, q = spec_terms(f), spec_terms(q)
        q2 = t_mul(q, q)
        return [t_integral(t, s).real
                for t in (t_mul(q, f), t_mul(t_add(ONE, q2, -1), f), t_mul(t_add(ONE, q2), f))]

    qu = parts(item["f"], item["q"], u)
    qv = parts(item["g"], item["r"], v)
    return np.stack([-qu[0] + qv[0], -0.5 * (qu[1] + qv[1]), 0.5 * (qu[2] - qv[2])], axis=1)


def bc_patch(item):
    r, s = lattice(item["grid"])

    def parts(pair, x):
        big = spec_terms(pair)
        dp = t_deriv(big)
        return (t_eval(big, x).real,
                t_integral(t_mul({(2, 0j): 1 + 0j}, dp), x).real,
                t_integral(t_mul({(1, 0j): 1 + 0j}, dp), x).real)

    f, ir0, ir1 = parts(item["F"], r)
    g, is0, is1 = parts(item["G"], s)
    return np.stack([0.5 * (f + g - is0 - ir0), 0.5 * (g - f - ir0 + is0), ir1 + is1], axis=1)


def inverted_patch(item, iters=60):
    """Heights over the lattice by damped Newton on the closed-form map
    zeta -> (Re I1, Re I2); returns (points, converged)."""
    x, y = lattice(item["grid"])
    phis = we_integrands(spec_terms(item["f"]), spec_terms(item["g"]), "minimal")
    c0 = item["f"][1][0]
    z = (x - 1j * y) / c0  # x + iy ~ c0 * conj(zeta) near the origin

    def resid(zz):
        return t_integral(phis[0], zz).real - x, t_integral(phis[1], zz).real - y

    fx, fy = resid(z)
    for _ in range(iters):
        p1, p2 = t_eval(phis[0], z), t_eval(phis[1], z)
        j00, j01, j10, j11 = p1.real, -p1.imag, p2.real, -p2.imag
        det = j00 * j11 - j01 * j10
        step = ((-fx * j11 + fy * j01) + 1j * (-fy * j00 + fx * j10)) / det
        lam = np.ones_like(x)
        for _ in range(20):
            gx, gy = resid(z + lam * step)
            worse = np.hypot(gx, gy) > np.hypot(fx, fy)
            if not worse.any():
                break
            lam = np.where(worse, lam / 2, lam)
        z = z + lam * step
        fx, fy = resid(z)
    converged = np.hypot(fx, fy) <= 1e-12
    heights = t_integral(phis[2], z).real
    return np.stack([x, y, heights], axis=1), converged


# ---------------------------------------------------------------------------
# catalog heights and domains
# ---------------------------------------------------------------------------

def _dist_mod_pi(t, offset=0.0):
    r = np.mod(t - offset, PI)
    return np.minimum(r, PI - r)


def _cos_dist(t):
    return _dist_mod_pi(t, PI / 2)


def scherk1_height(x, y, alpha=PI / 2):
    s1, s2 = math.sin(alpha) / 2, math.sin(alpha / 2)
    return -np.arctan(np.tanh(s1 * x) * np.cos(s2 * y) / np.sin(s2 * y)) / math.cos(alpha / 2)


def catalog_patch(surface, g, t=0.0):
    """Closed-form heights and the validity mask sample_patch should produce."""
    x, y = lattice(g)
    m = g["margin"]
    with np.errstate(divide="ignore", invalid="ignore"):
        if surface == "scherk2":
            ok = (_cos_dist(x) >= m) & (_cos_dist(y) >= m) & (np.cos(y) / np.cos(x) > 0)
            z = np.log(np.cos(y) / np.cos(x))
        elif surface == "scherk1":
            ok = _dist_mod_pi(math.sin(PI / 4) * y) / math.sin(PI / 4) >= max(m, 1e-12)
            z = scherk1_height(x, y)
        elif surface == "helicoid":
            ok = np.abs(x) > max(m, 0.0)
            z = np.arctan(y / x)
        elif surface == "scherk2max":
            ok = np.ones_like(x, dtype=bool)
            z = np.log(np.cosh(y) / np.cosh(x))
        elif surface == "scherkBI":
            ok = (_cos_dist(x) >= m) & (np.cos(x) > 0)
            z = np.log(np.cosh(y) / np.cos(x))
        elif surface == "leaf":
            k = np.round(x / TWO_PI)
            dx = x - TWO_PI * k
            ok = np.hypot(dx, y) > max(m, 1e-12)
            z = np.where(k % 2 == 1, -1.0, 1.0) * np.arctan(y / dx) + t
        else:
            raise ValueError(f"no oracle for surface {surface!r}")
    return np.stack([x, y, np.where(ok, z, 0.0)], axis=1), ok


# ---------------------------------------------------------------------------
# identity sides
# ---------------------------------------------------------------------------

def c_offsets(n):
    return [(2 * m - n + 1) * PI / (2 * n) for m in range(n)]


def identity_sides(ident, n, x, y, params=None):
    """(lhs, rhs_sum) of an identity evaluated in numpy (complex arrays)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        if ident == "scherk2-decomp":
            lhs = np.log(np.cos(y) / np.cos(x))
            rhs = sum(np.log(np.cos(y / n - c) / np.cos(x / n - c)) for c in c_offsets(n))
        elif ident == "scherk2max-decomp":
            lhs = np.log(np.cosh(y) / np.cosh(x))
            rhs = sum(np.log(np.cosh(y / n + 1j * c) / np.cosh(x / n + 1j * c))
                      for c in c_offsets(n))
        elif ident == "scherkBI-decomp":
            lhs = np.log(np.cosh(y) / np.cos(x))
            rhs = sum(np.log(np.cosh(y / n + 1j * c) / np.cos(x / n - c)) for c in c_offsets(n))
        elif ident == "helicoid-decomp":
            def tower(a, b):
                return np.arctan(np.tanh(a) * np.cos(b) / np.sin(b))
            lhs = tower(y, x)
            rhs = tower(y / n, x / n)
            for m in range(1, n):
                xm = (x + m * PI) / n
                rhs = (rhs + tower(y / n, xm) - np.arctan((y / n) / xm)
                       - np.arctan((y / n) / (xm - PI))
                       + np.arctan(y / (x + m * PI)) + np.arctan(y / (x - m * PI)))
        elif ident == "kamien-decomp":
            beta = params["beta"]
            sb = math.sin(beta)
            bt = beta if n == 1 else math.asin(sb / n)
            pre = math.cos(bt) / math.cos(beta)
            lhs = scherk1_height(x / math.cos(beta), y, 2 * beta)
            rhs = sum(pre * scherk1_height(x / math.cos(bt), y + m * PI / (n * math.sin(bt)),
                                           2 * bt) for m in range(n))
        elif ident == "general-scaled":
            base = np.log(np.cos(y) / np.cos(x))
            c = params["c"]
            total = sum(1.0 / v for v in c)
            lhs = base
            rhs = sum(base / (cm * total) for cm in c)
        else:
            raise ValueError(f"no oracle for identity {ident!r}")
    return lhs, rhs


def branch_error(policy, lhs, rhs):
    d = lhs - rhs
    if policy == "principal":
        return np.abs(d)
    if policy == "mod-pi":
        return np.abs(d - np.round(d.real / PI) * PI)
    if policy == "mod-2pi-i":
        return np.abs(d - np.round(d.imag / TWO_PI) * TWO_PI * 1j)
    if policy == "multiplicative":
        el, es = np.exp(lhs), np.exp(rhs)
        return np.abs(el - es) / (1.0 + np.abs(el))
    raise ValueError(f"unknown policy {policy!r}")


def foliation_pairs(g):
    """Band-boundary pairs foliation_check must visit: one per boundary
    (2k+1)*pi inside the window, per lattice row."""
    k_lo = math.ceil((g["u_min"] - PI) / TWO_PI)
    k_hi = math.floor((g["u_max"] - PI) / TWO_PI)
    inside = [k for k in range(k_lo, k_hi + 1) if g["u_min"] <= (2 * k + 1) * PI <= g["u_max"]]
    return len(inside) * g["nv"]


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def vertex_errors(points, valid, expected, expected_valid, atol, rtol):
    """(number of bad vertices, max abs error over vertices both sides call valid).

    A vertex is bad when the masks disagree or |program - oracle| exceeds
    atol + rtol * |oracle| in any coordinate.
    """
    points = np.asarray(points, dtype=float)
    both = valid & expected_valid
    diff = np.abs(points[both] - expected[both])
    limit = atol + rtol * np.abs(expected[both])
    bad = (int(np.count_nonzero((diff > limit).any(axis=1)))
           + int(np.count_nonzero(valid != expected_valid)))
    return bad, float(diff.max()) if diff.size else 0.0


def parse_obj(path):
    """(vertex array, face count, largest face index) of an OBJ file."""
    verts, faces, top = [], 0, 0
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts[0] == "v":
                verts.append([float(t) for t in parts[1:4]])
            elif parts[0] == "f":
                faces += 1
                top = max(top, *(int(t) for t in parts[1:]))
    return np.array(verts).reshape(-1, 3), faces, top


def expected_faces(valid, nu, nv):
    v = np.asarray(valid).reshape(nu, nv)
    return int(np.count_nonzero(v[:-1, :-1] & v[1:, :-1] & v[1:, 1:] & v[:-1, 1:]))
