"""Grid specs, patch sampling, and bit-exact OBJ/CSV export."""

import numpy as np
import pytest

from zmcsurf import catalog
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


def test_sample_height_surface():
    patch = sample_patch(catalog.builtin_surface("scherk2"), GridSpec(-1, 1, -1, 1, 3, 3))
    assert patch.valid_count() == 9
    center = patch.points[patch.index(1, 1)]
    assert tuple(center) == (0.0, 0.0, 0.0)


def test_sampling_masks_points_outside_the_domain():
    # A window crossing x = pi/2 has columns where cos x changes sign.
    patch = sample_patch(catalog.builtin_surface("scherk2"),
                         GridSpec(0.0, 2.0, -0.5, 0.5, 21, 5))
    assert 0 < patch.valid_count() < 21 * 5
    for (i, j), (u, v) in GridSpec(0.0, 2.0, -0.5, 0.5, 21, 5).points():
        expected = catalog.builtin_surface("scherk2").domain_ok(u, v, 0.05)
        assert bool(patch.valid[patch.index(i, j)]) == expected


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
