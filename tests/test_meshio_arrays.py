"""Array-at-a-time mesh I/O against the per-line reference implementations.

The reference writers, reader and sampling loop below are the line-by-line
versions the package's array code replaced; they stay here as the oracle for
the byte contract (identical OBJ/CSV bytes, identical ``read_csv`` values
including the sign of zero) and for the masking rules of ``sample_patch``.
"""

import math
import random
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zmcsurf import catalog, meshio
from zmcsurf.errors import DomainViolation, EmptyGrid, NoConvergence, SingularPath
from zmcsurf.expr import EvalDomainError
from zmcsurf.foliation import LeafSurface
from zmcsurf.meshio import (
    GridSpec,
    SurfacePatch,
    _fmt17,
    read_csv,
    sample_patch,
    write_csv,
    write_obj,
)
from zmcsurf.reps import (
    BCSampler,
    TLMSSampler,
    WEData,
    WESampler,
    _assemble_bc,
    _assemble_tlms,
    _family_coords,
    integrate_segment,
)

# ---------------------------------------------------------------------------
# reference implementations, one line or one point at a time
# ---------------------------------------------------------------------------


def _fmt(value):
    return format(float(value), ".17g")


def reference_obj(patch):
    lines = []
    vertex_number = {}
    for k in range(patch.nu * patch.nv):
        if patch.valid[k]:
            vertex_number[k] = len(vertex_number) + 1
            x, y, z = patch.points[k]
            lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")
    for i in range(patch.nu - 1):
        for j in range(patch.nv - 1):
            corners = (i * patch.nv + j, (i + 1) * patch.nv + j,
                       (i + 1) * patch.nv + j + 1, i * patch.nv + j + 1)
            if all(patch.valid[c] for c in corners):
                a, b, c, d = (vertex_number[c] for c in corners)
                lines.append(f"f {a} {b} {c} {d}")
    return ("\n".join(lines) + "\n").encode()


def reference_csv(patch):
    lines = ["u_index,v_index,x,y,z,valid"]
    for i in range(patch.nu):
        for j in range(patch.nv):
            k = i * patch.nv + j
            x, y, z = patch.points[k]
            flag = 1 if patch.valid[k] else 0
            lines.append(f"{i},{j},{_fmt(x)},{_fmt(y)},{_fmt(z)},{flag}")
    return ("\n".join(lines) + "\n").encode()


def reference_read_csv(path):
    with open(path) as fh:
        rows = [line.strip().split(",") for line in fh if line.strip()]
    header, body = rows[0], rows[1:]
    if header != ["u_index", "v_index", "x", "y", "z", "valid"]:
        raise ValueError(f"unexpected CSV header in {path}: {header}")
    nu = max(int(r[0]) for r in body) + 1
    nv = max(int(r[1]) for r in body) + 1
    points = np.zeros((nu * nv, 3))
    valid = np.zeros(nu * nv, dtype=bool)
    for r in body:
        k = int(r[0]) * nv + int(r[1])
        points[k] = (float(r[2]), float(r[3]), float(r[4]))
        valid[k] = r[5] == "1"
    return SurfacePatch(nu, nv, points, valid)


_POINT_ERRORS = (SingularPath, NoConvergence, EvalDomainError, DomainViolation)


def reference_point(sampler, u, v):
    """One point the scalar way: one ``integrate_segment`` per integral and the
    assembly formula, or ``height_at`` for a graph lift."""
    data = getattr(sampler, "data", None)
    if isinstance(sampler, WESampler):
        ints = integrate_segment(data.integrand_tape, data.zeta0, complex(u, v))
        return _family_coords(data.offset, ints, math.cos(sampler.theta), math.sin(sampler.theta))
    if isinstance(sampler, TLMSSampler):
        cu, cv = data.curves
        qu = [c.real for c in integrate_segment(cu.tape, cu.base, u)]
        qv = [c.real for c in integrate_segment(cv.tape, cv.base, v)]
        return _assemble_tlms(qu, qv)
    if isinstance(sampler, BCSampler):
        cr, cs = data.curves
        qr = [c.real for c in integrate_segment(cr.tape, 0.0, u)]
        qs = [c.real for c in integrate_segment(cs.tape, 0.0, v)]
        (f_r, f_errors), (g_s, g_errors) = data.F.eval_array([u]), data.G.eval_array([v])
        if f_errors or g_errors:
            raise (f_errors or g_errors)[0]
        return _assemble_bc([*qr, float(f_r[0].real)], [*qs, float(g_s[0].real)])
    return (u, v, sampler.surface.height_at(u, v))


def reference_sample(source, grid):
    """Per-point loop: ``reference_point`` for samplers, ``height_at`` and
    ``domain_ok`` for graph sources."""
    n = grid.nu * grid.nv
    points = np.zeros((n, 3))
    valid = np.zeros(n, dtype=bool)
    for (i, j), (u, v) in grid.points():
        k = i * grid.nv + j
        try:
            if hasattr(source, "point"):
                x, y, z = reference_point(source, u, v)
            else:
                if hasattr(source, "domain_ok") and not source.domain_ok(u, v, grid.margin):
                    continue
                x, y, z = u, v, source.height_at(u, v)
        except _POINT_ERRORS:
            continue
        if all(np.isfinite((x, y, z))):
            points[k] = (x, y, z)
            valid[k] = True
    return SurfacePatch(grid.nu, grid.nv, points, valid)


def _same_patch(a, b):
    # Bit for bit: the sign of zero and nan count.
    return ((a.nu, a.nv) == (b.nu, b.nv)
            and np.array_equal(a.valid, b.valid)
            and a.points.tobytes() == b.points.tobytes())


# ---------------------------------------------------------------------------
# 17-digit formatting
# ---------------------------------------------------------------------------

EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, -1 / 3, 0.1, 1e16,
               1e17, 123456789012345678.0, 9007199254740993.0, math.pi, math.inf, -math.inf,
               math.nan]


def test_percent_formatting_matches_format_on_random_bit_patterns():
    rng = random.Random(20241018)
    for _ in range(20000):
        x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        assert "%.17g" % x == format(x, ".17g")
    for x in EDGE_VALUES:
        assert "%.17g" % x == format(x, ".17g")


def _double(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# Quiet and signalling nans of either sign: distinct bit patterns, one text.
NAN_PAYLOADS = [_double(b) for b in (0x7FF8000000000001, 0xFFF8000000000000,
                                     0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF)]


def test_fmt17_formats_every_element_and_keeps_the_sign_of_zero():
    rng = np.random.default_rng(7)
    values = np.concatenate([np.array(EDGE_VALUES), rng.standard_normal(501),
                             np.repeat(rng.standard_normal(5), 40), np.repeat(NAN_PAYLOADS, 3)])
    rng.shuffle(values)
    values = values.reshape(-1, 3)
    text = _fmt17(values)
    assert text.shape == values.shape
    assert text.reshape(-1).tolist() == [format(x, ".17g") for x in values.reshape(-1)]


# ---------------------------------------------------------------------------
# writers and reader against the references
# ---------------------------------------------------------------------------

def _edge_patch():
    # 3 x 4 lattice: signed zeros, subnormals, the largest finite doubles, 1/3,
    # and two invalid points whose stored coordinates are not zero.
    pts = np.array([
        [0.0, -0.0, 5e-324], [1 / 3, -1 / 3, 2.2250738585072009e-308],
        [1.7976931348623157e308, -1.7976931348623157e308, 0.1], [7.0, 8.0, 9.0],
        [-0.0, 0.0, -5e-324], [0.5, 0.25, 1e-300], [2.0, 3.0, 4.0], [1e16, 1e17, -2.5],
        [0.0, 1.0, 2.0], [-1.0, -2.0, -3.0], [math.pi, math.e, 1 / 7], [4.0, 5.0, 6.0],
    ])
    valid = np.ones(12, dtype=bool)
    valid[[3, 6]] = False
    return SurfacePatch(3, 4, pts, valid)


def _random_patch(rng, nu, nv, invalid_frac):
    pts = rng.standard_normal((nu * nv, 3)) * 10.0 ** rng.integers(-5, 5, (nu * nv, 3))
    pts[:, 0] = np.repeat(np.linspace(-1, 1, nu), nv)       # lattice x repeats along rows
    pts[:, 1] = np.tile(np.linspace(-2, 2, nv), nu)
    valid = rng.random(nu * nv) >= invalid_frac
    valid[rng.integers(nu * nv)] = True
    return SurfacePatch(nu, nv, pts, valid)


def _patches():
    rng = np.random.default_rng(11)
    single = SurfacePatch(2, 3, np.arange(18, dtype=float).reshape(6, 3),
                          [False, False, False, False, True, False])
    # Around the writers' block of 2048 lattice points: 2047, 2048 and 2049
    # points, 2301 faces, and rows of 2100 points, each longer than a block.
    assert meshio._BLOCK == 2048
    return [_edge_patch(), single, _random_patch(rng, 7, 3, 0.0),
            _random_patch(rng, 4, 9, 0.3), _random_patch(rng, 23, 17, 0.1),
            _random_patch(rng, 23, 89, 0.05), _random_patch(rng, 32, 64, 0.0),
            _random_patch(rng, 3, 683, 0.2), _random_patch(rng, 40, 60, 0.05),
            _random_patch(rng, 3, 2100, 0.1)]


@pytest.mark.parametrize("patch", _patches())
def test_writers_match_the_per_line_reference_byte_for_byte(tmp_path, patch):
    write_obj(patch, str(tmp_path / "p.obj"))
    write_csv(patch, str(tmp_path / "p.csv"))
    assert (tmp_path / "p.obj").read_bytes() == reference_obj(patch)
    assert (tmp_path / "p.csv").read_bytes() == reference_csv(patch)


def test_a_patch_written_as_obj_and_csv_is_formatted_once(tmp_path, monkeypatch):
    calls = []
    real = meshio._fmt17
    monkeypatch.setattr(meshio, "_fmt17", lambda values: calls.append(1) or real(values))
    patch = _patches()[3]
    for _ in range(2):
        write_obj(patch, str(tmp_path / "p.obj"))
        write_csv(patch, str(tmp_path / "p.csv"))
    assert len(calls) == 2
    assert (tmp_path / "p.obj").read_bytes() == reference_obj(patch)
    assert (tmp_path / "p.csv").read_bytes() == reference_csv(patch)


def test_a_vertex_changed_between_the_writers_reaches_the_csv(tmp_path):
    patch = _patches()[3]
    write_obj(patch, str(tmp_path / "p.obj"))
    obj = (tmp_path / "p.obj").read_bytes()
    k = int(patch.valid.argmax())
    patch.points[k, 2] = -0.0 if patch.points[k, 2] == 0.0 else 0.0
    write_csv(patch, str(tmp_path / "p.csv"))
    assert (tmp_path / "p.csv").read_bytes() == reference_csv(patch)
    assert obj != reference_obj(patch)
    assert read_csv(str(tmp_path / "p.csv")).points[k, 2] == patch.points[k, 2]


@pytest.mark.parametrize("patch", _patches())
def test_read_csv_matches_the_reference_reader(tmp_path, patch):
    path = str(tmp_path / "p.csv")
    write_csv(patch, path)
    back = read_csv(path)
    assert _same_patch(back, reference_read_csv(path))
    # The stored coordinates of invalid points are read back too.
    assert _same_patch(back, patch)


def _rewrite(path, transform):
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(transform(header, rows)) + "\n")


def test_read_csv_takes_rows_in_any_order_with_blank_lines_and_gaps(tmp_path):
    patch = _edge_patch()
    path = str(tmp_path / "p.csv")
    write_csv(patch, path)
    rng = random.Random(5)

    def shuffle_and_thin(header, rows):
        rows = [r for k, r in enumerate(rows) if k not in (1, 9)]   # two absent rows
        rng.shuffle(rows)
        rows[3] = "  " + rows[3] + " "
        return ["", header, "", *rows[:5], "   ", *rows[5:], ""]

    _rewrite(path, shuffle_and_thin)
    back = read_csv(path)
    assert _same_patch(back, reference_read_csv(path))
    assert not back.valid[[1, 9]].any() and not back.points[[1, 9]].any()
    keep = np.setdiff1d(np.arange(12), [1, 9])
    assert np.array_equal(back.points[keep], patch.points[keep])
    assert np.array_equal(np.signbit(back.points[keep]), np.signbit(patch.points[keep]))
    assert np.array_equal(back.valid[keep], patch.valid[keep])


def test_read_csv_flag_is_true_only_for_one(tmp_path):
    path = tmp_path / "flags.csv"
    path.write_text("u_index,v_index,x,y,z,valid\n"
                    "0,0,1,2,3,1\n0,1,1,2,3,true\n1,0,1,2,3,1.0\n1,1,-0,0,0,0\n")
    back = read_csv(str(path))
    assert back.valid.tolist() == [True, False, False, False]
    assert _same_patch(back, reference_read_csv(str(path)))
    assert np.signbit(back.points[3, 0])


def test_read_csv_rejects_a_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u,v,x,y,z,valid\n0,0,1,2,3,1\n")
    with pytest.raises(ValueError):
        reference_read_csv(str(path))
    with pytest.raises(ValueError):
        read_csv(str(path))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_read_csv_rejects_a_negative_index(tmp_path):
    # Read as a lattice index, -1 would wrap around and overwrite the 1,1 row.
    path = tmp_path / "negative.csv"
    path.write_text("u_index,v_index,x,y,z,valid\n0,0,1,2,3,1\n0,1,1,2,3,1\n"
                    "1,0,1,2,3,1\n1,1,4,5,6,1\n-1,1,7,8,9,1\n")
    with pytest.raises(ValueError, match="row 5"):
        read_csv(str(path))


@pytest.mark.parametrize("body, row", [
    # one row would size a 100001 x 1 lattice
    ("100000,0,1,2,3,1\n", "row 1: '100000,0,1,2,3,1': some u_index below 100000"),
    # v index 1 occurs in no row: the row with v index 2 is named
    ("0,0,1,2,3,1\n1,2,1,2,3,1\n1,0,1,2,3,1\n", "row 2: '1,2,1,2,3,1': some v_index below 2"),
])
def test_read_csv_rejects_an_index_range_with_an_unused_index(tmp_path, body, row):
    path = tmp_path / "sparse.csv"
    path.write_text("u_index,v_index,x,y,z,valid\n" + body)
    with pytest.raises(ValueError) as exc:
        read_csv(str(path))
    assert row in str(exc.value) and "\n" not in str(exc.value)


def test_read_csv_rejects_a_file_without_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("u_index,v_index,x,y,z,valid\n")
    with pytest.raises(ValueError, match="no CSV rows"):
        read_csv(str(path))


def test_read_csv_rejects_ragged_rows_naming_the_row(tmp_path):
    # 5 + 7 fields make 12 cells; read as two 6-field rows they would shift
    # into a 2 x 2 patch whose point (1, 1) is (2, 3, 1).
    path = tmp_path / "ragged.csv"
    path.write_text("u_index,v_index,x,y,z,valid\n0,0,1,2,3\n0,1,1,2,3,1,1\n")
    with pytest.raises(ValueError, match=r"ragged\.csv, row 1: '0,0,1,2,3'"):
        read_csv(str(path))


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("row", ["1_0,0,1,2,3,1", "0,0,1_0,2,3,1", "1.0,0,1,2,3,1",
                                 "-0,0,1,2,3,1", "0,0,1,2,3,1,", "0,0,,2,3,1"])
def test_read_csv_rejects_a_row_that_does_not_parse(tmp_path, row):
    # Python's int() and float() take "1_0", loadtxt does not; an index is a
    # non-negative integer, so "1.0" and "-0" are not indices.  Older numpy
    # reads such an index as a float with a DeprecationWarning, which read_csv
    # makes an error whatever the caller's warning filters are.
    path = tmp_path / "bad.csv"
    path.write_text(f"u_index,v_index,x,y,z,valid\n0,0,1,2,3,1\n\n  {row}\n")
    with pytest.raises(ValueError, match=f"bad\\.csv, row 2: '{re.escape(row)}'"):
        read_csv(str(path))


def test_read_csv_takes_spaces_crlf_and_non_finite_cells_like_the_reference(tmp_path):
    path = tmp_path / "loose.csv"
    path.write_bytes(b"u_index,v_index,x,y,z,valid\r\n"
                     b" 0 , 0 , nan , inf , -inf ,1\r\n"
                     b"\t1,0,  -0 ,+1.5, 1E3 , 1\r\n"
                     b"\r\n"
                     b"0, 1,-NaN,Infinity,-Infinity,1 \r\n"
                     b"1 ,1 ,2.2250738585072009e-308, -5e-324 ,1.7976931348623157e308,0\r\n")
    back = read_csv(str(path))
    assert _same_patch(back, reference_read_csv(str(path)))
    assert back.valid.tolist() == [True, True, False, False]
    assert np.signbit(back.points[2, 0])


_BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(_double)
# Every nan: either sign, any non-zero payload.
_NANS = st.tuples(st.integers(0, 1), st.integers(1, 2 ** 52 - 1)).map(
    lambda sign_payload: _double(sign_payload[0] << 63 | 0x7FF << 52 | sign_payload[1]))


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), data=st.data())
def test_csv_round_trip_keeps_every_bit_pattern(tmp_path_factory, shape, data):
    # "%.17g" writes every nan as "nan", so only the canonical nan can come back.
    values = st.one_of(st.sampled_from(EDGE_VALUES), _BIT_PATTERNS).map(
        lambda x: math.nan if math.isnan(x) else x)
    nu, nv = shape
    points = data.draw(st.lists(values, min_size=3 * nu * nv, max_size=3 * nu * nv))
    valid = data.draw(st.lists(st.booleans(), min_size=nu * nv, max_size=nu * nv))
    patch = SurfacePatch(nu, nv, points, valid)
    path = str(tmp_path_factory.getbasetemp() / "round_trip.csv")
    write_csv(patch, path)
    assert _same_patch(read_csv(path), patch)


_FLAGS = ["1", "0", "1.0", "true"]
_PADS = ["", " ", "  ", "\t"]
# A row's cells made unreadable: five fields, seven fields, a negative index,
# a field that is not a number.
_BREAKS = [lambda cells: cells[:5], lambda cells: cells + ["1"],
           lambda cells: ["-1"] + cells[1:], lambda cells: cells[:3] + ["abc"] + cells[4:]]


@settings(max_examples=200, deadline=None)
@given(shape=st.tuples(st.integers(1, 4), st.integers(1, 4)), data=st.data())
def test_read_csv_gives_the_reference_patch_or_names_a_row(tmp_path_factory, shape, data):
    nu, nv = shape
    values = st.one_of(st.sampled_from(EDGE_VALUES), _BIT_PATTERNS)
    pad = st.sampled_from(_PADS)
    rows = [[str(i), str(j), *(_fmt(data.draw(values)) for _ in range(3)),
             data.draw(st.sampled_from(_FLAGS))] for i in range(nu) for j in range(nv)]
    # Shuffled, with some rows left out.
    order = data.draw(st.permutations(range(nu * nv)))
    rows = [rows[k] for k in order[:data.draw(st.integers(1, nu * nv))]]
    broken = data.draw(st.none() | st.tuples(st.integers(0, len(rows) - 1),
                                            st.sampled_from(_BREAKS)))
    if broken:
        rows[broken[0]] = broken[1](rows[broken[0]])
    # Padded cells and lines, and blank or whitespace-only lines anywhere.
    lines = [data.draw(pad) + ",".join(data.draw(pad) + c + data.draw(pad) for c in cells)
             + data.draw(pad) for cells in rows]
    text = []
    for line in ["u_index,v_index,x,y,z,valid", *lines]:
        text += data.draw(st.lists(pad, max_size=2)) + [line]
    path = str(tmp_path_factory.getbasetemp() / "drawn.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(text) + "\n")

    used = [{int(cells[0]) for cells in rows}, {int(cells[1]) for cells in rows}]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if broken:
            k = broken[0] + 1
            with pytest.raises(ValueError, match=f"^bad CSV row in .*, row {k}: "
                               f"{re.escape(repr(lines[k - 1].strip()))}$"):
                read_csv(path)
        elif any(index != set(range(max(index) + 1)) for index in used):
            # The first axis with a gap is named by its first row with the largest index.
            axis = 0 if used[0] != set(range(max(used[0]) + 1)) else 1
            k = 1 + [int(cells[axis]) for cells in rows].index(max(used[axis]))
            with pytest.raises(ValueError, match=f"^bad CSV lattice in .*, row {k}: "
                               f"{re.escape(repr(lines[k - 1].strip()))}: "):
                read_csv(path)
        else:
            assert _same_patch(read_csv(path), reference_read_csv(path))


@settings(max_examples=40, deadline=None)
@given(lines=st.tuples(st.integers(1, 4),
                      st.one_of(st.integers(5, 120), st.integers(500, meshio._BLOCK + 2))),
       transpose=st.booleans(),
       pool=st.lists(st.one_of(st.sampled_from(EDGE_VALUES), _BIT_PATTERNS, _NANS),
                     min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_writers_match_the_per_line_reference_on_drawn_patches(tmp_path_factory, lines,
                                                                transpose, pool, seed):
    # One short and one long axis, either way round, with indices up to four
    # digits: a transposed or mis-joined "i,j," row prefix changes the bytes.
    # Up to 4 x 2050 points cross the writers' blocks, and a long row is
    # longer than a block.
    # The coordinates repeat a few drawn values, so the dedupe gathers them.
    nu, nv = lines[::-1] if transpose else lines
    rng = np.random.default_rng(seed)
    points = np.array(pool)[rng.integers(len(pool), size=(nu * nv, 3))]
    valid = rng.random(nu * nv) < rng.random()
    valid[rng.integers(nu * nv)] = True
    patch = SurfacePatch(nu, nv, points, valid)
    assert _fmt17(patch.points).tolist() == [[_fmt(x) for x in row] for row in points]
    base = tmp_path_factory.getbasetemp()
    write_obj(patch, str(base / "contract.obj"))
    write_csv(patch, str(base / "contract.csv"))
    assert (base / "contract.obj").read_bytes() == reference_obj(patch)
    assert (base / "contract.csv").read_bytes() == reference_csv(patch)


# ---------------------------------------------------------------------------
# sample_patch against the per-point loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("source, grid", [
    # the window crosses x, y = +-pi/2, where scherk2 leaves its domain
    (catalog.builtin_surface("scherk2"), GridSpec(-2.2, 2.1, -2.0, 2.3, 23, 19)),
    (catalog.builtin_surface("helicoid"), GridSpec(-1.5, 1.5, -1.2, 1.4, 17, 21)),
    (catalog.builtin_surface("scherk1"), GridSpec(-2.0, 2.0, 2.4, 6.2, 19, 23)),
    (catalog.builtin_surface("scherk2max"), GridSpec(-1.5, 1.5, 700.0, 720.0, 11, 13)),
    (catalog.builtin_surface("scherkBI"), GridSpec(-2.0, 2.1, -1.5, 1.5, 21, 13)),
    # the window contains the excluded line (2 pi, 0)
    (LeafSurface(0.7), GridSpec(math.pi, 3 * math.pi, -2.0, 2.0, 21, 15)),
    (WESampler(WEData.from_text("1", "w")), GridSpec(-0.8, 0.8, -0.6, 0.6, 9, 7)),
])
def test_sample_patch_matches_the_per_point_loop(source, grid):
    patch = sample_patch(source, grid)
    want = reference_sample(source, grid)
    assert _same_patch(patch, want)
    assert 0 < patch.valid_count()


_EXTREME_BOUNDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     -2.2250738585072014e-308, 1.7e308, -1.7e308, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))
_GRAPH_SOURCES = [*map(catalog.builtin_surface,
                       ("scherk2", "scherk1", "helicoid", "scherk2max", "scherkBI")),
                  LeafSurface(0.7)]


@settings(max_examples=150, deadline=None)
@given(source=st.sampled_from(_GRAPH_SOURCES),
       u=st.lists(_EXTREME_BOUNDS, min_size=2, max_size=2, unique=True).map(sorted),
       v=st.lists(_EXTREME_BOUNDS, min_size=2, max_size=2, unique=True).map(sorted),
       shape=st.tuples(st.integers(2, 5), st.integers(2, 5)))
def test_extreme_finite_grids_give_a_typed_error_or_a_finite_patch(tmp_path_factory, source,
                                                                   u, v, shape):
    path = str(tmp_path_factory.getbasetemp() / "extreme.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = GridSpec(*u, *v, *shape)
        except ValueError:
            return
        try:
            patch = sample_patch(source, grid)
        except (EmptyGrid, DomainViolation):
            return
        assert np.isfinite(patch.points).all()
        write_csv(patch, path)
        assert _same_patch(read_csv(path), patch)
