"""Triangulated meshes of envelope quadrics and Wavefront OBJ export.

Each envelope is meshed in its family's canonical frame, as the graph of
z over an (x, y) grid where the quadric is linear in z and as the upper
nappe of the I7 cone otherwise, and mapped back to scene coordinates, so
exported vertices satisfy the quadric equation to machine precision.
Tangent fold planes are exported as quads centered at their contact with
the envelope.  Faces are NumPy (m, k) arrays of vertex indices.

A grid's triangles depend only on its resolution, and an export always writes
the envelope first, at OBJ index offset 1.  So the face array and its OBJ text
are built once per resolution and memoised, least recently used out first,
within _FACE_MEMO_BYTES (1 MiB) of arrays and text: a 33 x 33 grid takes
about 78 kB, and a grid above 105 per side, which could not fit, is built and
formatted anew on each export.  The memo lives in one process, so a fresh
``fold3d`` process gains nothing from it, only from the per-call trims.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .envelopes import PlaneFamily
from .errors import DegenerateInput
from .geometry import cross3, perp_unit

# Grid points per side of an exported envelope patch: 1024² ≈ 1M vertices
# and 2M triangles, ≈115 MB of OBJ text at ≈60 B per vertex line.
MAX_MESH_RESOLUTION = 1024
# Tangent fold planes per export: one quad and one OBJ object each.
MAX_TANGENT_PLANES = 1024
_ROWS_PER_WRITE = 128  # rows formatted into one string, so the text in hand stays small
_FACE_MEMO_BYTES = 1 << 20  # bound on the memoised grid face arrays and their text
# resolution -> (read-only faces, their OBJ text at offset 1), oldest first
_face_memo: dict[int, tuple[np.ndarray, str]] = {}


def _grid_faces(resolution: int) -> np.ndarray:
    """Read-only (m, 3) triangles of a resolution x resolution grid: cell (i, j)
    with corner a = i * resolution + j gives the triangles (a, c, b) and
    (b, c, d), where b = a + 1, c = a + resolution, d = c + 1.  Memoised with
    their OBJ text while both fit _FACE_MEMO_BYTES."""
    entry = _face_memo.pop(resolution, None)
    if entry is None:
        a = np.arange(resolution * resolution).reshape(resolution, resolution)[:-1, :-1].ravel()
        b, c = a + 1, a + resolution
        faces = np.stack([a, c, b, b, c, c + 1], axis=1).reshape(-1, 3)
        faces.setflags(write=False)
        # the text is shorter than the array (at most 20 B a line against 24 B
        # while indices have 5 digits), so an array over half the bound
        # cannot fit with its text and is not formatted here
        if 2 * faces.nbytes > _FACE_MEMO_BYTES:
            return faces
        entry = faces, "".join(_row_text("f %d %d %d\n", faces + 1))
        size = faces.nbytes + len(entry[1])
        while _face_memo and _memo_bytes() + size > _FACE_MEMO_BYTES:
            del _face_memo[next(iter(_face_memo))]
    _face_memo[resolution] = entry
    return entry[0]


def _memo_bytes() -> int:
    return sum(faces.nbytes + len(text) for faces, text in _face_memo.values())


def _grid(extent: float, resolution: int, surface) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and (m, 3) triangles (_grid_faces) of the points surface(x, y)
    over a square grid."""
    xs = np.linspace(-extent, extent, resolution)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([np.ravel(c) for c in surface(xx, yy)], axis=1)
    return verts, _grid_faces(resolution)


def _cone_nappe(theta: float):
    """Upper nappe of the I7 cone, graphed over (x, u) in the chart turned by
    theta / 2 about the x axis."""
    ct, c2, s2 = math.cos(theta), math.cos(theta / 2), math.sin(theta / 2)

    def surface(x, u):
        v = np.sqrt(u * u + x * x / ct)
        return x, u * c2 + v * s2, -u * s2 + v * c2

    return surface


def quadric_mesh_canonical(
    fam: PlaneFamily, extent: float = 4.0, resolution: int = 33
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical-frame mesh of the envelope quadric of a plane family: its
    graph over the (x, y) grid where the quadric is linear in z, the upper
    nappe otherwise (the I7 cone).  Raises NoEnvelope for a family with no
    envelope."""
    quadric = fam.envelope()
    z_row = quadric.matrix[2]
    if z_row[:3].any():
        return _grid(extent, resolution, _cone_nappe(fam.shape_angle))

    def graph(x, y):
        flat = np.stack([x.ravel(), y.ravel(), np.zeros(x.size)], axis=1)
        return x, y, -quadric.evaluate_canonical(flat).reshape(x.shape) / (2.0 * z_row[3])

    return _grid(extent, resolution, graph)


def tangent_plane_quad(
    fam: PlaneFamily, values: tuple[float, ...], extent: float = 4.0
) -> np.ndarray:
    """A quad (4 scene-coordinate corners) of one family plane, centered at
    its contact with the envelope."""
    plane = fam.plane(*values)
    center = fam.contact_point(*values).xyz
    n = plane.normal_vec
    u = perp_unit(n)
    v = cross3(n, u)
    h = extent / 2.0
    return np.array(
        [
            center + h * (u + v),
            center + h * (v - u),
            center - h * (u + v),
            center + h * (u - v),
        ]
    )


def _row_text(fmt: str, rows: np.ndarray):
    """The text of fmt % row for every row, _ROWS_PER_WRITE rows a string."""
    for i in range(0, len(rows), _ROWS_PER_WRITE):
        chunk = rows[i:i + _ROWS_PER_WRITE]
        yield fmt * len(chunk) % tuple(chunk.ravel().tolist())


def write_obj(path, objects: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    """Write named (vertices, faces) groups to a Wavefront OBJ file.

    Vertices are (n, 3) floats, written with 17 significant digits so they
    read back exactly.  Faces are (m, k) 0-based local indices, written
    1-based and global across objects; the memoised faces of a grid
    (_grid_faces) at offset 1 are written from their memoised text.  An
    object with no faces is written as its vertices only.  Every object is
    checked before the file is opened: DegenerateInput for vertices that
    are not (n, 3) or faces that are not (m, k), and the file is untouched.
    """
    offset, blocks = 1, []
    for name, verts, faces in objects:
        verts = np.asarray(verts, dtype=float)
        face_text = [t for f, t in _face_memo.values() if f is faces] if offset == 1 else []
        if not face_text:
            faces = np.asarray(faces, dtype=np.int64)
        if (verts.size and verts.shape[1:] != (3,)) or (faces.size and faces.ndim != 2):
            raise DegenerateInput(
                f"object {name} needs (n, 3) vertices and (m, k) faces, not arrays of "
                f"shape {verts.shape} and {np.shape(faces)}"
            )
        if not face_text and faces.size:
            face_text = _row_text("f" + " %d" * faces.shape[1] + "\n", faces + offset)
        blocks.append(((f"o {name}\n",), _row_text("v %.17g %.17g %.17g\n", verts), face_text))
        offset += len(verts)
    with open(path, "w") as fh:
        for block in blocks:
            fh.writelines(itertools.chain(*block))


def export_envelope_obj(
    path,
    fam: PlaneFamily,
    extent: float = 4.0,
    resolution: int = 33,
    tangent_count: int = 0,
) -> list[str]:
    """Write the envelope patch (triangulated) plus optional tangent-plane
    quads; returns the OBJ object names.  Raises DegenerateInput for a
    resolution outside 2..MAX_MESH_RESOLUTION, an extent that is not finite
    and positive, or a tangent_count outside 0..MAX_TANGENT_PLANES."""
    if (not 2 <= resolution <= MAX_MESH_RESOLUTION
            or not (math.isfinite(extent) and extent > 0)
            or not 0 <= tangent_count <= MAX_TANGENT_PLANES):
        raise DegenerateInput(
            f"an envelope export needs resolution in 2..{MAX_MESH_RESOLUTION}, a finite "
            f"extent > 0 and tangent_count in 0..{MAX_TANGENT_PLANES}, not {resolution}, "
            f"{extent} and {tangent_count}"
        )
    verts_c, faces = quadric_mesh_canonical(fam, extent, resolution)
    verts = fam.to_scene.apply_xyz(verts_c)
    objects = [("envelope", verts, faces)]
    if tangent_count > 0:
        n_free = len(fam.free_params)
        span = [np.linspace(p.low / 2.0, p.high / 2.0, tangent_count) for p in fam.free_params]
        for i in range(tangent_count):
            values = tuple(span[j][i] for j in range(n_free))
            quad = tangent_plane_quad(fam, values, extent)
            objects.append((f"fold_plane_{i + 1}", quad, [(0, 1, 2, 3)]))
    write_obj(path, objects)
    return [name for name, _, _ in objects]
