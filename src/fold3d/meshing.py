"""Triangulated meshes of envelope quadrics and Wavefront OBJ export.

Each envelope is meshed in its family's canonical frame, as the graph of
z over an (x, y) grid where the quadric is linear in z and as the upper
nappe of the I7 cone otherwise, and mapped back to scene coordinates, so
exported vertices satisfy the quadric equation to machine precision.  Tangent fold planes are
exported as quads centered at their contact with the envelope.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .envelopes import PlaneFamily, Quadric
from .errors import DegenerateInput
from .geometry import perp_unit


def _grid(extent: float, resolution: int, surface) -> tuple[np.ndarray, list]:
    """Vertices and triangles of the points surface(x, y) over a square grid."""
    xs = np.linspace(-extent, extent, resolution)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.stack([np.ravel(c) for c in surface(xx, yy)], axis=1)
    faces = []
    for i in range(resolution - 1):
        for j in range(resolution - 1):
            a = i * resolution + j
            b = a + 1
            c = a + resolution
            d = c + 1
            faces.append((a, c, b))
            faces.append((b, c, d))
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
) -> tuple[np.ndarray, list]:
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


def write_obj(path, objects: list[tuple[str, np.ndarray, list]]) -> None:
    """Write named (vertices, faces) groups to a Wavefront OBJ file.

    Faces hold 0-based local indices; OBJ indices are written 1-based and
    global across objects.
    """
    lines = []
    offset = 0
    for name, verts, faces in objects:
        lines.append(f"o {name}")
        for v in verts:
            lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
        for f in faces:
            lines.append("f " + " ".join(str(i + 1 + offset) for i in f))
        offset += len(verts)
    Path(path).write_text("\n".join(lines) + "\n")


def export_envelope_obj(
    path,
    fam: PlaneFamily,
    quadric: Quadric,
    extent: float = 4.0,
    resolution: int = 33,
    tangent_count: int = 0,
) -> list[str]:
    """Write the envelope patch (triangulated) plus optional tangent-plane
    quads; returns the OBJ object names.  Raises DegenerateInput for a
    resolution below 2, an extent that is not finite and positive, or a
    negative tangent_count."""
    if resolution < 2 or not (math.isfinite(extent) and extent > 0) or tangent_count < 0:
        raise DegenerateInput(
            f"an envelope export needs resolution >= 2, a finite extent > 0 and "
            f"tangent_count >= 0, not {resolution}, {extent} and {tangent_count}"
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
