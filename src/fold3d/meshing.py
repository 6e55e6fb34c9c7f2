"""Triangulated meshes of envelope quadrics and Wavefront OBJ export.

Each envelope is meshed in its family's canonical frame, as the graph of
z over an (x, y) grid where the quadric is linear in z and as the upper
nappe of the I7 cone otherwise, and mapped back to scene coordinates, so
exported vertices satisfy the quadric equation to machine precision.
Tangent fold planes are exported as quads centered at their contact with
the envelope.  Faces are NumPy (m, k) arrays of vertex indices.
"""

from __future__ import annotations

import math

import numpy as np

from .envelopes import PlaneFamily
from .errors import DegenerateInput
from .geometry import perp_unit

# Grid points per side of an exported envelope patch: 1024² ≈ 1M vertices
# and 2M triangles, ≈115 MB of OBJ text at ≈60 B per vertex line.
MAX_MESH_RESOLUTION = 1024
# Tangent fold planes per export: one quad and one OBJ object each.
MAX_TANGENT_PLANES = 1024
_ROWS_PER_WRITE = 512  # rows write_obj formats at a time, so its text stays small


def _grid(extent: float, resolution: int, surface) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and (m, 3) triangles of the points surface(x, y) over a square
    grid; cell (i, j) with corner a = i * resolution + j gives the triangles
    (a, c, b) and (b, c, d), where b = a + 1, c = a + resolution, d = c + 1."""
    xs = np.linspace(-extent, extent, resolution)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([np.ravel(c) for c in surface(xx, yy)], axis=1)
    a = np.arange(resolution * resolution).reshape(resolution, resolution)[:-1, :-1].ravel()
    b, c = a + 1, a + resolution
    faces = np.stack([a, c, b, b, c, c + 1], axis=1).reshape(-1, 3)
    return verts, faces


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
    c = fam.envelope().coeffs
    if c[2] or c[4] or c[5]:
        return _grid(extent, resolution, _cone_nappe(fam.shape_angle))

    def graph(x, y):
        rest = c[0] * x * x + c[1] * y * y + c[3] * x * y + c[6] * x + c[7] * y + c[9]
        return x, y, -rest / c[8]

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
    v = np.cross(n, u)
    h = extent / 2.0
    return np.array(
        [
            center + h * (u + v),
            center + h * (v - u),
            center - h * (u + v),
            center + h * (u - v),
        ]
    )


def write_obj(path, objects: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
    """Write named (vertices, faces) groups to a Wavefront OBJ file.

    Vertices are (n, 3) floats, written with 17 significant digits so they
    read back exactly.  Faces are (m, k) 0-based local indices, written
    1-based and global across objects.
    """
    offset = 1
    with open(path, "w") as fh:
        for name, verts, faces in objects:
            faces = np.asarray(faces, dtype=np.int64) + offset
            fh.write(f"o {name}\n")
            for fmt, rows in (("v %.17g %.17g %.17g\n", np.asarray(verts, dtype=float)),
                              ("f" + " %d" * faces.shape[1] + "\n", faces)):
                for i in range(0, len(rows), _ROWS_PER_WRITE):
                    chunk = rows[i:i + _ROWS_PER_WRITE].tolist()
                    fh.write("".join(map(fmt.__mod__, map(tuple, chunk))))
            offset += len(verts)


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
