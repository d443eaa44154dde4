"""Grid specs, patch sampling, and bit-exact OBJ/CSV export."""

import dataclasses
import os
import pickle
import tracemalloc

import numpy as np
import pytest

from zmcsurf import catalog, meshio
from zmcsurf.errors import EmptyGrid
from zmcsurf.meshio import GridSpec, SurfacePatch, read_csv, sample_patch, write_csv, write_obj


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 0, 0, 1, 5, 5)
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 1, 5)
    with pytest.raises(ValueError):
        GridSpec(0, 1, 0, 1, 5, 5, margin=-0.1)


def test_grid_spec_parse():
    g = GridSpec.parse("-1:1:41,-2:2:31")
    assert (g.u_min, g.u_max, g.nu) == (-1.0, 1.0, 41)
    assert (g.v_min, g.v_max, g.nv) == (-2.0, 2.0, 31)
    assert g.margin == 0.05
    assert GridSpec.parse("0:1:5,0:1:5,0.1").margin == 0.1
    with pytest.raises(ValueError):
        GridSpec.parse("0:1,0:1:5")


@pytest.mark.parametrize("bounds, margin", [
    ((0, np.inf, 0, 1), 0.05),
    ((-np.inf, 1, 0, 1), 0.05),
    ((0, 1, np.nan, 1), 0.05),
    ((-1e308, 1e308, 0, 1), 0.05),  # the width overflows
    ((0, 1, -1e308, 1e308), 0.05),
    ((0, 1, 0, 1), np.nan),
    ((0, 1, 0, 1), np.inf),
])
def test_grid_spec_rejects_non_finite_bounds_widths_and_margin(bounds, margin):
    with pytest.raises(ValueError, match="finite"):
        GridSpec(*bounds, 5, 5, margin)


@pytest.mark.parametrize("text, reason", [
    ("0:1:1,0:1:5", "grid needs nu >= 2 and nv >= 2"),
    ("0.1:1:5,-inf:1:5", "grid bounds, widths and margin must be finite"),
    ("1:0:5,0:1:5", "grid bounds must satisfy u_min < u_max and v_min < v_max"),
    ("0:1,0:1:5", "each axis needs min:max:n"),
    ("0:1:5", "expected umin:umax:nu,vmin:vmax:nv[,margin]"),
    ("0:1:2.5,0:1:5", "invalid literal for int() with base 10: '2.5'"),
])
def test_grid_spec_parse_names_the_reason_on_one_line(text, reason):
    with pytest.raises(ValueError) as info:
        GridSpec.parse(text)
    assert str(info.value) == f"bad grid spec {text!r}: {reason}"


@pytest.mark.parametrize("nu, nv", [(2.5, 3), (3, 3.0), (True, 3), (3, np.True_), ("5", 3), (None, 3)])
def test_grid_spec_rejects_non_integer_sizes(nu, nv):
    with pytest.raises(ValueError, match="must be an integer"):
        GridSpec(0, 1, 0, 1, nu, nv)


def test_grid_spec_takes_numpy_integer_sizes_as_ints():
    g = GridSpec(0, 1, 0, 1, np.int64(5), np.int32(3))
    assert (g.nu, g.nv) == (5, 3) and type(g.nu) is int and type(g.nv) is int
    assert g == GridSpec(0, 1, 0, 1, 5, 3)
    assert g.u_values().shape == (5,)


@pytest.mark.parametrize("text", ["0:inf:5,0:1:5", "0.1:1:5,-inf:1:5", "0:1:5,nan:1:5",
                                  "0:1:5,0:1:5,inf", "-1e308:1e308:3,0:1:3"])
def test_grid_spec_parse_rejects_non_finite_grids_without_a_warning(text):
    with np.errstate(all="raise"), pytest.raises(ValueError, match="bad grid spec"):
        GridSpec.parse(text)


def test_grid_axes_broadcast_to_the_lattice():
    grid = GridSpec(-1, 2, 0.5, 3, 5, 3)
    u, v = grid.axes()
    assert u.shape == (5, 1) and v.shape == (1, 3)
    lu, lv = grid.lattice()
    for axis, flat in ((u, lu), (v, lv)):
        assert np.broadcast_to(axis, (5, 3)).reshape(-1).tobytes() == flat.tobytes()


def test_sample_height_surface():
    patch = sample_patch(catalog.builtin_surface("scherk2"), GridSpec(-1, 1, -1, 1, 3, 3))
    assert patch.valid_count() == 9
    center = patch.points[1 * patch.nv + 1]
    assert tuple(center) == (0.0, 0.0, 0.0)


def test_sampling_masks_points_outside_the_domain():
    # A window crossing x = pi/2 has columns where cos x changes sign.
    patch = sample_patch(catalog.builtin_surface("scherk2"),
                         GridSpec(0.0, 2.0, -0.5, 0.5, 21, 5))
    assert 0 < patch.valid_count() < 21 * 5
    for (i, j), (u, v) in GridSpec(0.0, 2.0, -0.5, 0.5, 21, 5).points():
        expected = catalog.builtin_surface("scherk2").domain_ok(u, v, 0.05)
        assert bool(patch.valid[i * patch.nv + j]) == expected


def test_all_invalid_grid_raises():
    # cos x < 0 throughout this window, so the height is never real.
    with pytest.raises(EmptyGrid):
        sample_patch(catalog.builtin_surface("scherk2"),
                     GridSpec(1.8, 2.0, -0.2, 0.2, 3, 3))


def _patch(points, valid, nu=2, nv=2):
    return SurfacePatch(nu, nv, np.asarray(points, dtype=float),
                        np.asarray(valid, dtype=bool))


def test_obj_counts_for_full_quad(tmp_path):
    patch = _patch([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]], [True] * 4)
    path = tmp_path / "full.obj"
    write_obj(patch, str(path))
    lines = path.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 1


def test_obj_skips_faces_with_invalid_corner(tmp_path):
    patch = _patch([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]],
                   [True, True, True, False])
    path = tmp_path / "partial.obj"
    write_obj(patch, str(path))
    lines = path.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 3
    assert sum(1 for ln in lines if ln.startswith("f ")) == 0


def test_obj_rejects_empty_patch(tmp_path):
    patch = _patch([[0, 0, 0]] * 4, [False] * 4)
    with pytest.raises(EmptyGrid):
        write_obj(patch, str(tmp_path / "empty.obj"))


def test_obj_writes_are_byte_identical(tmp_path):
    patch = sample_patch(catalog.builtin_surface("scherk2"), GridSpec(-1, 1, -1, 1, 7, 7))
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    write_obj(patch, str(p1))
    write_obj(patch, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_schema_and_row_count(tmp_path):
    patch = _patch([[0, 0, 0], [0, 1, 0.5], [1, 0, -0.25], [1, 1, 1 / 3]],
                   [True, True, False, True])
    path = tmp_path / "patch.csv"
    write_csv(patch, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "u_index,v_index,x,y,z,valid"
    assert len(lines) == 5
    assert lines[3].endswith(",0")  # the invalid lattice point
    assert "\r" not in path.read_text()


def test_csv_round_trip_is_exact(tmp_path):
    # 17 significant digits round-trip binary64 exactly, including 1/3.
    patch = sample_patch(catalog.builtin_surface("scherk2"),
                         GridSpec(-1, 1, -1 / 3, 1, 9, 9))
    path = tmp_path / "roundtrip.csv"
    write_csv(patch, str(path))
    back = read_csv(str(path))
    assert np.array_equal(back.points, patch.points)
    assert np.array_equal(back.valid, patch.valid)


def test_a_failed_atomic_write_leaves_no_temp_file_and_the_old_file_intact(tmp_path,
                                                                          monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        meshio.atomic_write(str(path), 123)

    def refuse(src, dst):
        raise OSError("rename refused")

    with pytest.raises(TypeError):
        meshio.atomic_write(str(path), ["new\n", b"part\n"])
    assert os.listdir(tmp_path) == ["out.txt"]

    def parts():
        yield "new\n"
        raise RuntimeError("no second part")

    with pytest.raises(RuntimeError, match="no second part"):
        meshio.atomic_write(str(path), parts())
    assert os.listdir(tmp_path) == ["out.txt"]

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        meshio.atomic_write(str(path), "new\n")
    assert os.listdir(tmp_path) == ["out.txt"]
    assert path.read_text() == "old\n"


def _traced_peak(call):
    """The tracemalloc peak of the memory ``call()`` allocates, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exports_stay_within_a_multiple_of_the_file_they_write(tmp_path):
    # The OBJ export formats the points' text and keeps it for the CSV export,
    # so its peak is a few times its file; the CSV export writes one block of
    # lattice rows at a time, so its peak is below its file's size.
    patch = sample_patch(catalog.builtin_surface("scherk2"),
                         GridSpec(-2.2, 2.2, -2.2, 2.2, 201, 201))
    obj, csv = tmp_path / "p.obj", tmp_path / "p.csv"
    obj_peak = _traced_peak(lambda: write_obj(patch, str(obj)))
    csv_peak = _traced_peak(lambda: write_csv(patch, str(csv)))
    assert obj_peak < 4.5 * obj.stat().st_size
    assert csv_peak < 1.0 * csv.stat().st_size


def test_non_finite_grid_points_are_masked():
    class Grid:
        def sample_grid(self, grid):
            points = np.ones((grid.nu * grid.nv, 3))
            points[0, 2] = np.inf
            return points, np.ones(grid.nu * grid.nv, dtype=bool)

    patch = sample_patch(Grid(), GridSpec(0, 1, 0, 1, 2, 2))
    assert patch.valid.tolist() == [False, True, True, True]
    assert patch.points[0].tolist() == [0.0, 0.0, 0.0]


def test_representation_sampler_grid_is_fully_valid():
    from zmcsurf import reps

    sampler = reps.WESampler(reps.WEData.from_text("1", "w"))
    patch = sample_patch(sampler, GridSpec(-1, 1, -1, 1, 17, 17))
    assert patch.valid_count() == 17 * 17


# ---------------------------------------------------------------------------
# GridSpec coordinates: computed once, read-only, outside the value
# ---------------------------------------------------------------------------

def _meshgrid_lattice(grid):
    """The lattice as ``np.meshgrid`` ravels it: the reference for ``lattice()``."""
    u, v = np.meshgrid(np.linspace(grid.u_min, grid.u_max, grid.nu),
                       np.linspace(grid.v_min, grid.v_max, grid.nv), indexing="ij")
    return u.reshape(-1), v.reshape(-1)


def test_grid_coordinates_are_computed_once_and_read_only():
    grid = GridSpec(-1, 2, 0.5, 3, 5, 3)
    for values in (grid.u_values, grid.v_values):
        first = values()
        assert values() is first
        with pytest.raises(ValueError):
            first[0] = 7.0
    u, v = grid.axes()
    assert np.shares_memory(u, grid.u_values()) and np.shares_memory(v, grid.v_values())
    with pytest.raises(ValueError):
        u[0, 0] = 7.0


@pytest.mark.parametrize("grid", [GridSpec(-1, 2, 0.5, 3, 5, 3), GridSpec(0.1, 0.9, -2, 7, 2, 9),
                                  GridSpec(-0.0, 1.0, -1.0, -0.0, 4, 6)])
def test_lattice_has_the_bits_of_the_meshgrid_ravel(grid):
    got, want = grid.lattice(), _meshgrid_lattice(grid)
    for g, w in zip(got, want):
        assert g.shape == (grid.nu * grid.nv,) and g.tobytes() == w.tobytes()
        assert g.flags.writeable
    # points() yields Python floats with the same bits, in the same order.
    points = list(grid.points())
    assert [ij for ij, _ in points] == [(i, j) for i in range(grid.nu) for j in range(grid.nv)]
    for (_, xy), u, v in zip(points, *got):
        assert list(map(type, xy)) == [float, float]
        assert list(map(repr, xy)) == [repr(float(u)), repr(float(v))]
    # Fresh arrays: writing to one lattice changes neither the next nor the axes.
    got[0][:] = 9.0
    assert grid.lattice()[0].tobytes() == want[0].tobytes()
    assert grid.u_values().tobytes() == np.linspace(grid.u_min, grid.u_max, grid.nu).tobytes()


def test_a_replaced_grid_gets_its_own_coordinates():
    grid = GridSpec(0, 1, 0, 1, 5, 3)
    grid.u_values()
    wider = dataclasses.replace(grid, u_max=2.0, nv=4)
    assert wider.u_values().tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert wider.v_values().shape == (4,)
    assert grid.u_values().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_equality_hash_repr_and_pickle_ignore_the_coordinates():
    fresh, used = GridSpec(0, 1, 0, 1, 5, 3), GridSpec(0, 1, 0, 1, 5, 3)
    used.lattice()
    assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
    assert "_values" not in repr(used)
    back = pickle.loads(pickle.dumps(used))
    assert back == used and hash(back) == hash(used)
    assert "_values" not in vars(back)
    assert back.u_values().tobytes() == used.u_values().tobytes()
    assert not back.u_values().flags.writeable
