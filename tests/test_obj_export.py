"""OBJ export: the mesh faces and file bytes match the per-element reference
loops in helpers, and the mesh size is bounded."""

from unittest import mock

import numpy as np
import pytest

from fold3d import DegenerateInput, IncidenceKind, meshing
from fold3d.envelopes import family_I3, family_I5, family_I6, family_I7
from fold3d.meshing import MAX_MESH_RESOLUTION, export_envelope_obj, write_obj
from helpers import random_payload, reference_grid_faces, reference_write_obj

FAMILY_BUILDERS = {
    IncidenceKind.I3: family_I3,
    IncidenceKind.I5: family_I5,
    IncidenceKind.I6: family_I6,
    IncidenceKind.I7: family_I7,
}


@pytest.mark.parametrize("resolution", [2, 3, 7, 33])
def test_grid_faces_match_reference_order(resolution):
    surface = lambda x, y: (x, y, x * y)  # noqa: E731
    verts, faces = meshing._grid(1.5, resolution, surface)
    assert isinstance(faces, np.ndarray) and faces.shape == (2 * (resolution - 1) ** 2, 3)
    assert [tuple(f) for f in faces.tolist()] == reference_grid_faces(resolution)
    assert len(verts) == resolution * resolution


@pytest.mark.parametrize("kind", list(FAMILY_BUILDERS), ids=lambda k: k.value)
@pytest.mark.parametrize("resolution", [2, 7, 33])
@pytest.mark.parametrize("tangent_count", [0, 3])
def test_export_bytes_match_reference(tmp_path, kind, resolution, tangent_count):
    rng = np.random.default_rng(9000 + 10 * resolution + tangent_count)
    for trial in range(3):
        fam = FAMILY_BUILDERS[kind](*random_payload(rng, kind).objects)
        extent = float(rng.uniform(0.5, 6.0))
        out = tmp_path / f"new-{trial}.obj"
        with mock.patch.object(meshing, "write_obj", wraps=meshing.write_obj) as spy:
            names = export_envelope_obj(out, fam, extent=extent, resolution=resolution,
                                        tangent_count=tangent_count)
        objects = list(spy.call_args.args[1])
        name, verts, _ = objects[0]
        objects[0] = (name, verts, reference_grid_faces(resolution))
        ref = tmp_path / f"ref-{trial}.obj"
        reference_write_obj(ref, objects)
        assert names == [o[0] for o in objects]
        assert len(names) == 1 + tangent_count
        assert out.read_bytes() == ref.read_bytes()


def test_write_obj_bytes_match_reference_on_edge_values(tmp_path):
    rng = np.random.default_rng(77)
    awkward = np.array([
        [-0.0, 0.0, 5e-324],
        [1e300, -1e300, 2.2250738585072014e-308],
        [3.0, -2.0, 1e16],
        [0.1, 1 / 3, 2.0**53 + 2],
        [-7.0, 123456789.0, 1e-5],
    ])
    wide = rng.normal(size=(40, 3)) * 10.0 ** rng.uniform(-300, 300, size=(40, 3))
    objects = [
        ("awkward", awkward, np.array([[0, 1, 2], [2, 3, 4]])),
        ("wide", wide, rng.integers(0, 40, size=(25, 4))),
        ("quad", awkward[:4], [(0, 1, 2, 3)]),
    ]
    new, ref = tmp_path / "new.obj", tmp_path / "ref.obj"
    write_obj(new, objects)
    reference_write_obj(ref, [(n, v, [tuple(f) for f in np.asarray(fs).tolist()])
                              for n, v, fs in objects])
    assert new.read_bytes() == ref.read_bytes()


def test_write_obj_object_without_faces(tmp_path):
    pts = np.array([[0.0, 1.0, 2.0], [-0.5, 3.0, 1e-9]])
    objects = [("pts", pts, []), ("tri", pts[[0, 0, 1]], [(0, 1, 2)]),
               ("none", np.zeros((1, 3)), np.empty((0, 3), dtype=int))]
    new, ref = tmp_path / "new.obj", tmp_path / "ref.obj"
    write_obj(new, objects)
    reference_write_obj(ref, objects)
    assert new.read_bytes() == ref.read_bytes()
    assert new.read_text().startswith("o pts\nv 0 1 2\nv -0.5 3 1.0000000000000001e-09\no tri\n")


@pytest.mark.parametrize("verts, faces", [
    (np.zeros((3, 3)), [0, 1, 2]), (np.zeros((3, 2)), [(0, 1, 2)]), (np.zeros(3), []),
])
def test_write_obj_checks_before_opening(tmp_path, verts, faces):
    out = tmp_path / "kept.obj"
    out.write_text("o kept\n")
    good = ("good", np.zeros((3, 3)), [(0, 1, 2)])
    with pytest.raises(DegenerateInput, match="faces"):
        write_obj(out, [good, ("bad", verts, faces)])
    assert out.read_text() == "o kept\n"


def test_export_resolution_capped(tmp_path):
    fam = family_I6(*random_payload(np.random.default_rng(5), IncidenceKind.I6).objects)
    out = tmp_path / "envelope.obj"
    with pytest.raises(DegenerateInput, match="resolution"):
        export_envelope_obj(out, fam, resolution=MAX_MESH_RESOLUTION + 1)
    assert not out.exists()


# The largest grid whose faces and their text fit the memo's bound (see
# meshing._grid_faces: a face array over half the bound is not memoised).
LARGEST_MEMOISED = 105


def _export_matches_reference(tmp_path, fam, resolution, tangent_count):
    out, ref = tmp_path / "new.obj", tmp_path / "ref.obj"
    with mock.patch.object(meshing, "write_obj", wraps=meshing.write_obj) as spy:
        export_envelope_obj(out, fam, resolution=resolution, tangent_count=tangent_count)
    objects = list(spy.call_args.args[1])
    name, verts, _ = objects[0]
    objects[0] = (name, verts, reference_grid_faces(resolution))
    reference_write_obj(ref, objects)
    return out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("tangent_count", [0, 3])
def test_interleaved_resolutions_match_reference(tmp_path, monkeypatch, tangent_count):
    monkeypatch.setattr(meshing, "_face_memo", {})
    fam = family_I6(*random_payload(np.random.default_rng(26), IncidenceKind.I6).objects)
    above = LARGEST_MEMOISED + 1
    for resolution in (33, 7, 33, 2, 33, above):
        assert _export_matches_reference(tmp_path, fam, resolution, tangent_count)
    assert list(meshing._face_memo) == [7, 2, 33]


def test_memo_holds_grids_up_to_its_bound(monkeypatch):
    monkeypatch.setattr(meshing, "_face_memo", {})
    faces = meshing._grid_faces(LARGEST_MEMOISED)
    assert LARGEST_MEMOISED in meshing._face_memo and not faces.flags.writeable
    meshing._grid_faces(LARGEST_MEMOISED + 1)
    assert LARGEST_MEMOISED + 1 not in meshing._face_memo


def test_memo_stays_within_its_bound_after_large_exports(tmp_path, monkeypatch):
    monkeypatch.setattr(meshing, "_face_memo", {})
    fam = family_I5(*random_payload(np.random.default_rng(27), IncidenceKind.I5).objects)
    # the largest grid is meshed but not written: its OBJ text is about 115 MB
    with mock.patch.object(meshing, "write_obj"):
        for resolution in (*range(2, 120, 3), MAX_MESH_RESOLUTION):
            export_envelope_obj(tmp_path / "e.obj", fam, resolution=resolution)
            assert meshing._memo_bytes() <= meshing._FACE_MEMO_BYTES == 1 << 20
    assert MAX_MESH_RESOLUTION not in meshing._face_memo


def test_memoised_faces_elsewhere_than_first_are_written_by_value(tmp_path):
    # write_obj's memoised text holds offset 1; the same faces further on
    # are numbered from their own offset
    faces = meshing._grid_faces(7)
    rng = np.random.default_rng(28)
    verts = rng.normal(size=(49, 3))
    objects = [("grid", verts, faces), ("again", verts, faces), ("quad", verts[:4], [(0, 1, 2, 3)])]
    new, ref = tmp_path / "new.obj", tmp_path / "ref.obj"
    write_obj(new, objects)
    reference_write_obj(ref, [(n, v, [tuple(f) for f in np.asarray(fs).tolist()])
                              for n, v, fs in objects])
    assert new.read_bytes() == ref.read_bytes()
