"""Envelopes and contact points derived from the dual loci, against the
closed forms they replaced (``helpers.REFERENCE_ENVELOPES`` and
``REFERENCE_CONTACTS``), on random scene payloads of each tangency row
rescaled over e^-8 .. e^8."""

import math

import numpy as np
import pytest

from fold3d import Constraint, IncidenceKind, family
from helpers import (
    REFERENCE_CONTACTS,
    REFERENCE_ENVELOPES,
    line_parallel_to_plane,
    point_off_line,
    point_off_plane,
    random_payload,
    scaled_constraint,
    skew_lines,
)

PAYLOADS = {
    "I3": lambda rng: Constraint.I3(*skew_lines(rng)),
    "I5": lambda rng: Constraint.I5(*point_off_line(rng)),
    "I6": lambda rng: Constraint.I6(*point_off_plane(rng)),
    "I7": lambda rng: random_payload(rng, IncidenceKind.I7),
    "I7-parallel": lambda rng: Constraint.I7(*line_parallel_to_plane(rng)),
}


@pytest.mark.parametrize("kind", sorted(PAYLOADS))
def test_duality_matches_the_closed_forms(kind):
    rng = np.random.default_rng(3000)
    for _ in range(200):
        fam = family(scaled_constraint(PAYLOADS[kind](rng), math.exp(rng.uniform(-8.0, 8.0))))
        assert fam.incidence_kind == kind
        a, angle = fam.half_gap, fam.shape_angle
        quadric = fam.envelope()
        want = np.array(REFERENCE_ENVELOPES[kind](a, angle), dtype=float)
        want /= np.max(np.abs(want))  # max-normalised, keeping the sign
        assert np.max(np.abs(np.array(quadric.coeffs) - want)) <= 1e-12
        # the mesh chart reads z's quadratic terms: exactly zero but for the cone
        assert quadric.matrix[2, :3].any() == (kind == "I7")
        for _ in range(3):
            values = [rng.uniform(p.low, p.high) for p in fam.parameters]
            x = fam.contact_point_canonical(*values).xyz
            ref = np.array(REFERENCE_CONTACTS[kind](a, angle, *values))
            assert np.linalg.norm(x - ref) <= 1e-9 * max(1.0, np.linalg.norm(ref))
            eq = np.array(fam.equation(*values))
            scale = np.linalg.norm(eq[:3]) * (1.0 + np.linalg.norm(x))
            assert abs(eq[:3] @ x - eq[3]) <= 1e-12 * scale
            assert abs(float(quadric.evaluate_canonical(x)[0])) <= 1e-12 * (1.0 + x @ x)
