"""Polynomial root finding, multistart Newton, and the grid oracle."""

import numpy as np
import pytest

from fold3d import (
    AllRealLine,
    Constraint,
    DegenerateInput,
    Line3,
    Plane3,
    Point3,
    grid_oracle,
    newton_multistart,
    perpendicular_bisector_plane,
    plane_gap,
    real_roots_cubic,
    real_roots_quadratic,
    solve_3I6,
    solve_I1,
    solve_I5_I6,
    solve_I5_I9,
    solve_I6_I8_I11,
)
from fold3d.constraints import _cross, payload_radius
from fold3d.numerics import _least_squares_steps, params_to_planes
from helpers import (
    generic_newton_args,
    generic_specs,
    instance_3i6,
    instance_i5_i6,
    instance_i5_i9,
    instance_i6_i8_i11,
    random_payload,
    random_point,
    reference_newton_multistart,
)


def _check_residuals(coeffs, roots):
    # scale by the largest term magnitude at the root; plain max |coeff|
    # under-scales for roots far from unit size
    deg = len(coeffs) - 1
    for r in roots.roots:
        scale = max(abs(c) * abs(r) ** (deg - i) for i, c in enumerate(coeffs))
        assert abs(np.polyval(coeffs, r)) / scale < 1e-10


class TestQuadratic:
    def test_two_roots(self):
        roots = real_roots_quadratic(1, 0, -4)
        assert roots.roots == (-2.0, 2.0)
        assert roots.multiplicities == (1, 1)

    def test_double_root(self):
        roots = real_roots_quadratic(1, -2, 1)
        assert roots.roots == (1.0,)
        assert roots.multiplicities == (2,)

    def test_no_roots(self):
        assert real_roots_quadratic(1, 0, 1).roots == ()

    def test_degenerate_constant(self):
        with pytest.raises(DegenerateInput):
            real_roots_quadratic(0, 0, 3)

    def test_identically_zero(self):
        with pytest.raises(AllRealLine):
            real_roots_quadratic(0, 0, 0)

    def test_linear_fallback(self):
        roots = real_roots_quadratic(0, 2, -6)
        assert roots.roots == (3.0,)

    def test_cancellation_prone(self):
        # naive formula loses the small root here
        roots = real_roots_quadratic(1, -1e8, 1)
        _check_residuals((1, -1e8, 1), roots)

    def test_tiny_leading_coefficient(self):
        # a small c2 is a real root far out, not a linear equation
        roots = real_roots_quadratic(1e-17, 1.0, -3.0)
        assert roots.roots[0] == pytest.approx(-1e17, rel=1e-12)
        assert roots.roots[1] == pytest.approx(3.0, rel=1e-14)

    def test_counts_invariant_under_scaling(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            c = rng.uniform(-5, 5, 3)
            want = len(real_roots_quadratic(*c).roots)
            for s in (1e-6, 1e6):
                cs = c * s ** (np.arange(3.0) - 2.0)
                assert len(real_roots_quadratic(*cs).roots) == want

    def test_randomized_residuals(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = rng.uniform(-5, 5, 3)
            try:
                roots = real_roots_quadratic(*c)
            except (AllRealLine, DegenerateInput):
                continue
            _check_residuals(c, roots)


class TestCubic:
    def test_three_roots(self):
        roots = real_roots_cubic(1, 0, -1, 0)
        assert np.allclose(roots.roots, [-1, 0, 1])
        assert roots.multiplicities == (1, 1, 1)

    def test_single_root(self):
        roots = real_roots_cubic(1, 0, 0, -8)
        assert np.allclose(roots.roots, [2.0])

    def test_triple_root(self):
        roots = real_roots_cubic(1, -3, 3, -1)
        assert roots.multiplicities == (3,)
        assert roots.roots[0] == pytest.approx(1.0, abs=1e-8)

    def test_double_plus_simple(self):
        # (x - 1)^2 (x + 2)
        roots = real_roots_cubic(1, 0, -3, 2)
        assert sorted(roots.multiplicities) == [1, 2]
        assert np.allclose(sorted(roots.roots), [-2, 1], atol=1e-7)

    def test_quadratic_delegation(self):
        roots = real_roots_cubic(0, 1, 0, -4)
        assert roots.roots == (-2.0, 2.0)

    def test_randomized_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            c = rng.uniform(-5, 5, 4)
            roots = real_roots_cubic(*c)
            assert 1 <= sum(roots.multiplicities) <= 3 or len(roots.roots) <= 3
            _check_residuals(c, roots)

    def test_roots_from_factored_form(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            r = np.sort(rng.uniform(-4, 4, 3))
            if r[1] - r[0] < 1e-3 or r[2] - r[1] < 1e-3:
                continue
            c = np.poly(r)
            roots = real_roots_cubic(*c)
            assert len(roots.roots) == 3
            assert np.allclose(roots.roots, r, atol=1e-8)


    def test_traced_scale_1e4_case(self):
        # the I5+I6 cubic of a scene at scale 1e4: an absolute degree-drop
        # test discarded the leading term and found no real root
        c = (-1.144, -2.417e4, -4.967e8, -4.327e12)
        roots = real_roots_cubic(*c)
        assert len(roots.roots) == 1
        _check_residuals(c, roots)

    def test_counts_invariant_under_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = np.sort(rng.uniform(-4, 4, 3))
            if r[1] - r[0] < 1e-2 or r[2] - r[1] < 1e-2:
                continue
            c = np.poly(r) * rng.uniform(0.5, 2.0)
            for s in (1e-6, 1e-3, 1e3, 1e6):
                # x = s y: the roots in x are s times the roots in y
                cs = c * s ** (np.arange(4.0) - 3.0)
                roots = real_roots_cubic(*cs)
                assert np.allclose(roots.roots, s * r, rtol=1e-8)
                _check_residuals(cs, roots)

    def test_far_root_keeps_near_roots(self):
        # x^2 - 3x + 2 plus a tiny cubic term: a real root near -1e14, and
        # the roots 1 and 2 stay sharp rather than merging into a double root
        for eps in (1e-14, 1e-17, 1e-30):
            roots = real_roots_cubic(eps, 1.0, -3.0, 2.0)
            assert roots.multiplicities == (1, 1, 1)
            assert roots.roots[0] == pytest.approx(-1.0 / eps, rel=1e-12)
            assert np.allclose(roots.roots[1:], [1.0, 2.0], rtol=1e-12)

    def test_widely_spread_roots_keep_relative_accuracy(self):
        for r in ((1e-5, 1.0, 1e5), (-1e-3, 1.0, 1e4), (1e-6, 1e-3, 1e4)):
            roots = real_roots_cubic(*np.poly(r))
            assert np.allclose(roots.roots, r, rtol=1e-13, atol=0.0)

    def test_far_root_with_complex_pair(self):
        # x^2 - 1e-8 x + 1e-16 has no real roots; the large root 1e4 does
        # not turn them into a double root
        c = (1.0, -1e4, 1e-4, -1e-12)
        roots = real_roots_cubic(*c)
        assert len(roots.roots) == 1
        _check_residuals(c, roots)


class TestNewtonMultistart:
    def test_scalar_parabola(self):
        roots = newton_multistart(lambda x: x * x - 4.0, [-3.0, 0.5, 3.0])
        vals = sorted(float(r[0]) for r in roots)
        assert np.allclose(vals, [-2.0, 2.0], atol=1e-9)

    def test_no_roots(self):
        assert newton_multistart(lambda x: x * x + 1.0, [-1.0, 0.0, 1.0]) == []

    def test_deterministic(self):
        def residual(v):
            x, y = v
            return np.array([x * x + y - 3.0, y * y - x - 1.0])

        seeds = [(a, b) for a in (-2.0, 0.0, 2.0) for b in (-2.0, 0.0, 2.0)]
        first = newton_multistart(residual, seeds)
        second = newton_multistart(residual, seeds)
        assert len(first) == len(second)
        for u, v in zip(first, second):
            assert np.array_equal(u, v)

    def test_vectorized_matches_scalar(self):
        def scalar(v):
            x, y = v
            return np.array([x * x + y - 3.0, y * y - x - 1.0])

        def batch(vs):
            x, y = vs[:, 0], vs[:, 1]
            return np.stack([x * x + y - 3.0, y * y - x - 1.0], axis=1)

        seeds = [(a, b) for a in (-2.0, 0.0, 2.0) for b in (-2.0, 0.0, 2.0)]
        rs = newton_multistart(scalar, seeds)
        rv = newton_multistart(batch, seeds, vectorized=True)
        assert len(rs) == len(rv) > 0
        for u, v in zip(rs, rv):
            assert np.allclose(u, v, atol=1e-8)

    def test_recovers_bisector_plane_parameters(self):
        from fold3d.numerics import plane_from_params, stacked_components_fn

        p, q = Point3(0.4, -0.2, 0.1), Point3(-0.5, 0.8, 1.0)
        c = Constraint.I1(p, q)
        fn = stacked_components_fn([c])
        seeds = [
            (th, ph, d)
            for th in np.linspace(0.3, 2.8, 5)
            for ph in np.linspace(0, 5.5, 7)
            for d in np.linspace(-2, 2, 5)
        ]
        roots = newton_multistart(fn, np.array(seeds), vectorized=True)
        assert roots
        want = perpendicular_bisector_plane(p, q)
        planes = {plane_from_params(*r).coeffs() for r in roots}
        assert all(
            plane_gap(plane_from_params(*r), want) < 1e-8 for r in roots
        ), planes


class TestBatchedIteration:
    """The batched line search and normal-equation step against the
    sequential reference they replaced."""

    def test_matches_reference_on_generic_specs(self):
        rng = np.random.default_rng(2024)
        for spec in generic_specs():
            args, kwargs = generic_newton_args([random_payload(rng, k) for k in spec.kinds])
            got = newton_multistart(*args, **kwargs)
            want = reference_newton_multistart(*args, **kwargs)
            assert len(got) == len(want), spec
            for u, v in zip(got, want):
                diff = u - v
                # phi is periodic: a seed that wandered a turn further lands
                # on the same root
                diff[1] = (diff[1] + np.pi) % (2.0 * np.pi) - np.pi
                assert np.max(np.abs(diff)) < 1e-9, spec

    def test_line_search_takes_the_reference_steps(self, monkeypatch):
        # with the reference's pinv step, every seed makes the same trial
        # points and the same choices, so the roots agree bit for bit
        import fold3d.numerics

        monkeypatch.setattr(
            fold3d.numerics,
            "_least_squares_steps",
            lambda jac, r: np.einsum("kdm,km->kd", np.linalg.pinv(jac), r),
        )
        rng = np.random.default_rng(11)
        for spec in generic_specs()[::3]:
            args, kwargs = generic_newton_args([random_payload(rng, k) for k in spec.kinds])
            got = newton_multistart(*args, **kwargs)
            want = reference_newton_multistart(*args, **kwargs)
            assert len(got) == len(want), spec
            assert all(np.array_equal(u, v) for u, v in zip(got, want)), spec

    def test_no_seeds_no_roots(self):
        # a normal scan can leave no seeds; neither search then finds a root
        rng = np.random.default_rng(2025)
        cons = [random_payload(rng, k) for k in generic_specs()[0].kinds]
        (residual, _), kwargs = generic_newton_args(cons)
        seeds = np.empty((0, 3))
        assert newton_multistart(residual, seeds, **kwargs) == []
        assert reference_newton_multistart(residual, seeds, **kwargs) == []

    def test_rank_deficient_jacobian_takes_pinv(self, monkeypatch):
        calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a.shape) or pinv(a))

        def residual(v):
            x, y = v
            return np.array([x + y - 2.0, 2.0 * x + 2.0 * y - 4.0])

        seeds = [(0.0, 0.0), (3.0, 1.0), (-1.0, 5.0)]
        roots = newton_multistart(residual, seeds)
        assert calls
        assert len(roots) == 3
        for r in roots:
            assert abs(r[0] + r[1] - 2.0) < 1e-9
        # the minimum-norm step moves each seed straight onto the line
        for r, (x, y) in zip(roots, sorted(seeds)):
            assert np.allclose(r, (x - (x + y - 2) / 2, y - (x + y - 2) / 2), atol=1e-9)

    def test_steps_match_least_squares(self):
        rng = np.random.default_rng(8)
        jac = rng.normal(size=(50, 7, 3))
        jac[:5, :, 2] = jac[:5, :, 0]  # rank deficient: the pinv rows
        r = rng.normal(size=(50, 7))
        want = np.einsum("kdm,km->kd", np.linalg.pinv(jac), r)
        assert np.allclose(_least_squares_steps(jac, r), want, atol=1e-9)

    def test_non_vectorized_never_gets_an_empty_batch(self):
        calls = []

        def linear(v):
            calls.append(v)
            return 3.0 * v - 1.0

        # every full step lands on the root: no halving batch is needed
        roots = newton_multistart(linear, [-2.0, 0.0, 5.0])
        assert len(roots) == 1 and abs(roots[0][0] - 1.0 / 3.0) < 1e-12
        assert calls

        def finite_at_seeds(v):
            # finite at the seeds only: every Jacobian, so every step, is
            # non-finite and no trial point is evaluated
            return np.array([1.0 if v[0] in (0.0, 1.0) else np.nan])

        assert newton_multistart(finite_at_seeds, [0.0, 1.0]) == []

    def test_batches_no_larger_than_the_jacobian(self):
        sizes = []

        def fn(vs):
            sizes.append(len(vs))
            # Newton's full step on arctan overshoots beyond |x| ~ 1.39, so
            # every seed here needs halvings in its first iterations
            return np.arctan(vs - 0.5)

        rng = np.random.default_rng(9)
        seeds = rng.uniform(3, 8, (40, 3)) * rng.choice([-1.0, 1.0], (40, 3))
        roots = newton_multistart(fn, seeds, vectorized=True)
        want = reference_newton_multistart(fn, seeds, vectorized=True)
        assert len(roots) == len(want) == 1
        assert np.allclose(roots[0], 0.5, atol=1e-9)
        assert max(sizes) <= 2 * 3 * len(seeds)


class TestStallTest:
    """Seeds at a non-zero stationary point of |r|² stop early."""

    def test_positive_minimum_stalls(self):
        calls = []

        def residual(v):
            calls.append(v)
            x = v[0]
            return np.array([x, x * x + 1.0])

        # |r|² = x² + (x² + 1)² has its minimum 1 at x = 0; without the stall
        # test every seed creeps toward it for all 60 iterations (409 calls)
        assert newton_multistart(residual, [-2.0, 0.3, 5.0]) == []
        assert len(calls) <= 30

    def test_no_converging_seed_is_cut(self, monkeypatch):
        # with the reference's pinv step and no clustering (cluster_tol < 0)
        # the roots are every converged seed, bit for bit: the stall test
        # must stop none of the seeds the reference converges
        import fold3d.numerics

        monkeypatch.setattr(
            fold3d.numerics,
            "_least_squares_steps",
            lambda jac, r: np.einsum("kdm,km->kd", np.linalg.pinv(jac), r),
        )
        rng = np.random.default_rng(13)
        for spec in generic_specs()[1::3]:
            args, kwargs = generic_newton_args([random_payload(rng, k) for k in spec.kinds])
            kwargs["cluster_tol"] = -1.0
            got = newton_multistart(*args, **kwargs)
            want = reference_newton_multistart(*args, **kwargs)
            assert len(got) == len(want), spec
            assert all(np.array_equal(u, v) for u, v in zip(got, want)), spec

    def test_no_seeds(self):
        assert newton_multistart(lambda x: x * x - 4.0, []) == []
        assert newton_multistart(lambda v: v, np.empty((0, 3)), vectorized=True) == []


class TestResidualPath:
    """The residual kernels give the bits of the numpy calls they replace."""

    def test_cross_matches_np_cross(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            A = rng.normal(size=(257, 3)) * rng.choice([1e-3, 1.0, 1e3])
            A[:4] = [[0, 0, 1], [0, 0, -1], [0, 0, 1], [0, 0, -1]]
            A[4:8] /= np.linalg.norm(A[4:8], axis=1)[:, None]
            for b in (rng.normal(size=3), np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])):
                assert np.array_equal(_cross(A, b), np.cross(A, b))

    def test_params_to_planes_matches_stack(self):
        rng = np.random.default_rng(32)
        params = rng.uniform([0.0, 0.0, -5.0], [np.pi, 2 * np.pi, 5.0], size=(500, 3))
        params[:2, 0] = [0.0, np.pi]
        th, ph = params[:, 0], params[:, 1]
        want = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
        normals, offsets = params_to_planes(params)
        assert np.array_equal(normals, want)
        assert np.array_equal(offsets, params[:, 2])


class TestGridOracle:
    def test_i1_single_cluster(self):
        p, q = Point3(0.3, -0.5, 0.2), Point3(1.1, 0.4, -0.9)
        res = grid_oracle([Constraint.I1(p, q)], resolution=32)
        assert res.count == 1
        assert plane_gap(res.planes[0], solve_I1(p, q).planes[0]) < 1e-7

    def test_i2_two_clusters(self):
        m = Line3(Point3(0, 0, 0), (1, 0, 0))
        n = Line3(Point3(0, 0, 0), (0, 1, 0))
        res = grid_oracle([Constraint.I2(m, n)], resolution=48)
        assert res.count == 2

    def test_i4_two_clusters(self):
        c = Constraint.I4(Plane3((0, 0, 1), 0.3), Plane3((1, 0, 0), -0.2))
        assert grid_oracle([c], resolution=48).count == 2

    def test_three_solution_instance_resolution_sweep(self):
        # fixed instance whose elimination cubic has three real roots; the
        # cluster count must not decrease as the grid refines
        p = Point3(0, 0, 1)
        m = Line3(Point3(0, 0, -1), (0, 1, 0))
        q = Point3(0.3, -0.4, 0.2)
        pi = Plane3((0.25, 0.55, 0.75), -0.35)
        cons = [Constraint.I5(p, m), Constraint.I6(q, pi)]
        from fold3d import solve_I5_I6

        ded = solve_I5_I6(p, m, q, pi)
        assert ded.count == 3, "fixture must have three fold planes"
        counts = [
            grid_oracle(cons, resolution=r).count for r in (12, 24, 48)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_cluster_planes_have_small_residuals(self):
        rng = np.random.default_rng(3)
        cons = instance_i5_i6(rng)
        res = grid_oracle(cons, resolution=32)
        for plane, r in res.clusters:
            assert r < 1e-6

    def test_under_constrained_rejected(self):
        with pytest.raises(DegenerateInput):
            grid_oracle([Constraint.I8(Point3(0, 0, 0))], resolution=16)


# The acceptance criterion-4 generators plus 3I6, each with its dedicated
# solver taking the constraints' payloads.
WORKED_KINDS = (
    ("I5+I6", instance_i5_i6, lambda cs: solve_I5_I6(*cs[0].objects, *cs[1].objects)),
    (
        "I5+I9",
        lambda r: instance_i5_i9(r, solvable=bool(r.integers(0, 2))),
        lambda cs: solve_I5_I9(*cs[0].objects, *cs[1].objects),
    ),
    (
        "I6+I8+I11",
        instance_i6_i8_i11,
        lambda cs: solve_I6_I8_I11(*cs[0].objects, cs[1].objects[0], cs[2].objects[0]),
    ),
    (
        "3I6",
        instance_3i6,
        lambda cs: solve_3I6(*(c.objects[0] for c in cs), *(c.objects[1] for c in cs)),
    ),
)


class TestOracleAllOffsets:
    def test_far_plane_found(self):
        # the one fold plane of this I5+I6 scene lies 6.2 payload radii out,
        # beyond an offset window of three radii
        p, q = Point3(-1.4, -0.5, -0.2), Point3(-0.7, -0.4, 0.8)
        m = Line3(Point3(0.7, -1.2, -0.3), (0.5, 0.5, -0.7))
        pi = Plane3((0.5, -0.9, -0.1), -0.9)
        cons = [Constraint.I5(p, m), Constraint.I6(q, pi)]
        (far,) = solve_I5_I6(p, m, q, pi).planes
        assert abs(far.offset) > 6.0 * payload_radius(cons)
        res = grid_oracle(cons)
        assert res.count == 1
        assert plane_gap(res.planes[0], far) < 1e-7

    @pytest.mark.parametrize("name, make, solve", WORKED_KINDS, ids=[k[0] for k in WORKED_KINDS])
    def test_counts_match_dedicated_solvers(self, name, make, solve):
        # over all offsets; the few misses are planes far out, where the
        # residual changes fastest with the normal
        rng = np.random.default_rng(4242)
        agreed = 0
        for _ in range(100):
            cons = make(rng)
            ded = solve(cons).planes
            res = grid_oracle(cons)
            agreed += res.count == len(ded)
            for plane in res.planes:
                assert min((plane_gap(plane, q) for q in ded), default=np.inf) < 1e-6
        assert agreed >= 98


class TestLatticeBounds:
    I1 = [Constraint.I1(Point3(0, 0, 0), Point3(0, 0, 2))]

    @pytest.mark.parametrize("options", [
        {"n_offsets": 0},
        {"resolution": 0},
        {"resolution": -5},
        {"resolution": 257},
    ])
    def test_oracle_rejects_bad_lattice(self, options):
        with pytest.raises(DegenerateInput, match="lattice"):
            grid_oracle(self.I1, **options)

    def test_oracle_single_offset(self):
        # n_offsets shapes nothing: with one offset the scan still solves each
        # normal's offset, so the fold plane z = 1 is found
        res = grid_oracle(self.I1, resolution=16, n_offsets=1)
        assert res.count == 1
        assert plane_gap(res.planes[0], Plane3((0, 0, 1), 1.0)) < 1e-7
