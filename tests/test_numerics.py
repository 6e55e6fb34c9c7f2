"""Polynomial root finding, multistart Newton, and the grid oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fold3d import (
    AllRealLine,
    Constraint,
    DegenerateInput,
    Line3,
    Plane3,
    Point3,
    enumerate_operations,
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
    solve_generic,
)
from fold3d.constraints import _cross, payload_radius, stacked_residual
from fold3d.numerics import (
    _cluster,
    _least_squares_steps,
    _polish,
    _scan_lattice,
    normal_scan,
    params_to_planes,
    plane_from_params,
    search,
    stacked_components_fn,
)
from helpers import (
    generic_newton_args,
    generic_specs,
    instance_3i6,
    instance_i5_i6,
    instance_i5_i9,
    instance_i6_i8_i11,
    random_payload,
    random_point,
    reference_cluster,
    reference_newton_multistart,
    reference_normal_scan,
    reference_polish,
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

    def test_all_coefficients_zero(self):
        with pytest.raises(AllRealLine):
            real_roots_cubic(0.0, 0.0, 0.0, 0.0)

    def test_scale_overflow_drops_the_degree(self):
        # c2 / c3 overflows, so the scale is inf: 1e10 (x - 1)(x - 2) is left
        roots = real_roots_cubic(1e-300, 1e10, -3e10, 2e10)
        assert roots.roots == pytest.approx((1.0, 2.0), rel=1e-14)
        assert roots.multiplicities == (1, 1)

    def test_zero_scale_is_a_triple_root_at_zero(self):
        roots = real_roots_cubic(2.0, 0.0, 0.0, 0.0)
        assert roots.roots == (0.0,) and roots.multiplicities == (3,)

    def test_double_root_beyond_the_simple_one(self):
        # (x - 2)^2 (x - 1): the double root is the larger in magnitude
        roots = real_roots_cubic(1.0, -5.0, 8.0, -4.0)
        assert roots.roots == pytest.approx((1.0, 2.0), rel=1e-12)
        assert roots.multiplicities == (1, 2)


class TestScaleBeyondTheFloatRange:
    """σ² of a quadratic or σ³ of a cubic overflows: the real roots, each at
    its own scale, without an OverflowError (Python floats) or an overflow
    warning (NumPy scalars; the suite turns warnings into errors)."""

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_quadratic(self, cast):
        roots = real_roots_quadratic(*map(cast, (1.0, 1e200, 1.0)))
        assert roots.roots == pytest.approx((-1e200, -1e-200), rel=1e-15)
        assert roots.multiplicities == (1, 1)

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_quadratic_scale_below_the_float_range(self, cast):
        # c1/c2 and c0/c2 underflow to 0, so σ is 0: both roots round to 0
        roots = real_roots_quadratic(*map(cast, (1e300, 1e-300, 1e-320)))
        assert roots.roots == (0.0,) and roots.multiplicities == (2,)

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_cubic(self, cast):
        # the other two roots, near -5e-121 +- 1e-60 i, are not real
        roots = real_roots_cubic(*map(cast, (1.0, 1e120, 1.0, 1.0)))
        assert roots.roots == pytest.approx((-1e120,), rel=1e-15)
        assert roots.multiplicities == (1,)

    @pytest.mark.parametrize("coeffs, want, mult", [
        ((1.0, 1e120, -1.0, -1.0), (-1e120, -1e-60, 1e-60), (1, 1, 1)),  # by the quotient
        ((1.0, 0.0, 1e220, 1.0), (-1e-220,), (1,)),  # by the product: a larger complex pair
        ((1.0, 2e120 - 1.0, 1e240 - 2e120, -1e240), (-1e120, 1.0), (2, 1)),  # (x + 1e120)^2 (x - 1)
    ])
    def test_cubic_roots_below_the_scale(self, coeffs, want, mult):
        roots = real_roots_cubic(*coeffs)
        assert roots.roots == pytest.approx(want, rel=1e-12)
        assert roots.multiplicities == mult

    @given(st.tuples(*[st.floats(1e-30, 1e30) | st.floats(-1e30, -1e-30) | st.just(0.0)] * 4))
    @settings(max_examples=300, deadline=None)
    def test_python_floats_and_numpy_scalars_give_the_same_bits(self, coeffs):
        # the I5+I6 cubic passes Python floats, the exact route NumPy scalars
        try:
            got = real_roots_cubic(*coeffs)
        except (AllRealLine, DegenerateInput):
            return
        want = real_roots_cubic(*map(np.float64, coeffs))
        assert got.multiplicities == want.multiplicities
        assert [float(x).hex() for x in got.roots] == [float(x).hex() for x in want.roots]

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_quadratic_without_linear_term_beyond_the_float_range(self, cast):
        # c0/c2 overflows, so σ does, and c1 = 0: x^2 = -c0/c2, with no
        # division by c1 and, with NumPy scalars, no overflow warning
        assert real_roots_quadratic(cast(1e-300), 0.0, cast(1e100)).roots == ()
        roots = real_roots_quadratic(cast(1e-300), 0.0, cast(-1e100))
        assert roots.roots == pytest.approx((-1e200, 1e200), rel=1e-15)
        assert roots.multiplicities == (1, 1)
        assert real_roots_quadratic(cast(-1e-300), 0.0, cast(1e100)).roots == roots.roots
        # roots beyond the float range are none
        assert real_roots_quadratic(cast(1e-320), 0.0, cast(-1e300)).roots == ()

    @pytest.mark.parametrize("cast", [float, np.float64])
    def test_cubic_whose_polish_leaves_the_float_range(self, cast):
        # at the root -1e120 the term c3 x^3 is 1e360: no Newton step there,
        # and no overflow warning
        roots = real_roots_cubic(*map(cast, np.poly([-1e120, 1e100, 3.0]).tolist()))
        assert roots.roots == pytest.approx((-1e120, 3.0, 1e100), rel=1e-12)
        assert roots.multiplicities == (1, 1, 1)


def _same_float(a, b) -> bool:
    return type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


class TestPolish:
    """_polish's scalar Horner loop gives the bits, and the types, of its
    np.polyval form (helpers.reference_polish)."""

    def _check(self, coeffs, x):
        with np.errstate(all="ignore"):  # the reference warns where x is not finite
            want = reference_polish(coeffs, x)
        assert _same_float(_polish(coeffs, x), want), (coeffs, x)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_random_polynomials(self, degree):
        rng = np.random.default_rng(40 + degree)
        for _ in range(3000):
            coeffs = tuple(float(c) for c in rng.normal(size=degree + 1)
                           * 10.0 ** rng.uniform(-6, 6, size=degree + 1))
            roots = np.roots(coeffs)
            xs = [float(r.real) for r in roots] + [float(rng.normal() * 10.0 ** rng.uniform(-3, 3))]
            for x in xs:
                self._check(coeffs, x)
                self._check(coeffs, x * (1.0 + 1e-9))

    def test_numpy_and_int_coefficients(self):
        self._check((np.float64(2.0), np.float64(-3.0), np.float64(0.5)), 1.2)
        self._check((1, 0, -2), 1.4)
        self._check((1, 0, -2), np.float64(1.4))
        self._check((1.0, -6.0, 11.0, -6.0), 2.0)

    @pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan])
    def test_non_finite_x(self, x):
        self._check((1.0, 0.0, -2.0), x)
        self._check((-1.0, 2.0, 0.0, 5.0), x)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
           st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_in_range_polish_keeps_its_bits(self, coeffs, x):
        try:
            with np.errstate(all="raise"):
                reference_polish(coeffs, x)
        except FloatingPointError:  # a term leaves the float range
            return
        self._check(tuple(coeffs), x)

    def test_constant_polynomial(self):
        for x in (0.0, 3.5, np.inf, np.nan):
            self._check((5.0,), x)
            self._check((0.0,), x)


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


class TestBatchMates:
    """A seed's root does not depend on which other seeds share its batches."""

    def test_half_of_the_seeds_give_the_same_roots(self):
        # without clustering (cluster_tol < 0) the roots are every converged
        # seed; each seed of a random half must end on the bits it reaches
        # among all the seeds
        rng = np.random.default_rng(19)
        for spec in generic_specs()[::2]:
            (residual, seeds), kwargs = generic_newton_args(
                [random_payload(rng, k) for k in spec.kinds]
            )
            kwargs["cluster_tol"] = -1.0
            everyone = {root.tobytes() for root in newton_multistart(residual, seeds, **kwargs)}
            half = np.sort(rng.permutation(len(seeds))[: len(seeds) // 2])
            roots = newton_multistart(residual, seeds[half], **kwargs)
            assert all(root.tobytes() in everyone for root in roots), spec


ALL_SPECS = enumerate_operations()[0]


class TestAloneOrInBatch:
    """newton_multistart keeps each seed's path in compact active arrays; a
    seed's root has the same bits whether it runs alone or among others."""

    @given(
        spec=st.sampled_from(ALL_SPECS),
        payload_seed=st.integers(0, 2**32 - 1),
        extra=st.integers(0, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_root_alone_equals_root_in_batch(self, spec, payload_seed, extra):
        rng = np.random.default_rng(payload_seed)
        cons = [random_payload(rng, k) for k in spec.kinds]
        fn = stacked_components_fn(cons)
        # scan seeds, most of which converge, and random ones, most of
        # which stall or run out of iterations
        scan = normal_scan(cons, 6, 12, True)
        far = np.column_stack([
            rng.uniform(0.0, np.pi, extra), rng.uniform(0.0, 2.0 * np.pi, extra),
            rng.uniform(-4.0, 4.0, extra),
        ])
        seeds = rng.permutation(np.vstack([scan, far]))
        kwargs = dict(tol=1e-10, max_iter=40, cluster_tol=-1.0, vectorized=True)
        batch = newton_multistart(fn, seeds, **kwargs)
        alone = [root for sd in seeds for root in newton_multistart(fn, sd[None], **kwargs)]
        alone = [alone[i] for i in np.lexsort(np.reshape(alone, (-1, 3)).T[::-1])]
        assert [r.tobytes() for r in batch] == [r.tobytes() for r in alone]


class TestLineSearchBlocks:
    """A batch residual's line search tries as many step lengths per call as
    the first Jacobian call has rows."""

    def test_one_call_once_ten_lengths_fit(self, monkeypatch):
        import fold3d.numerics

        events = []
        steps = fold3d.numerics._least_squares_steps
        monkeypatch.setattr(
            fold3d.numerics,
            "_least_squares_steps",
            lambda jac, r: events.append(("step", len(jac))) or steps(jac, r),
        )

        def fn(vs):
            # linear within 1 of the root, sign(y) |y|^0.01 beyond: there
            # Newton's step is 100 y, and the first length that improves is
            # 1/64, beyond a block of 2·d = 6 lengths
            events.append(("call", len(vs)))
            y = vs - 0.5
            a = np.abs(y)
            return np.where(a > 1.0, np.sign(y) * a**0.01, y)

        # the 30 near seeds converge in one step; the 3 far ones keep
        # searching, and as 10 · 3 <= 2·d·33 each line search is one call
        rng = np.random.default_rng(23)
        near = 0.5 + rng.uniform(-0.3, 0.3, (30, 3))
        far = rng.uniform(60.0, 150.0, (3, 3)) * rng.choice([-1.0, 1.0], (3, 3))
        seeds = np.vstack([near, far])
        n, d = seeds.shape
        roots = newton_multistart(fn, seeds, vectorized=True)
        trace = events[:]
        want = reference_newton_multistart(fn, seeds, vectorized=True)
        assert len(roots) == len(want) == 1
        assert np.allclose(roots[0], want[0], atol=1e-12)

        # each iteration: its Jacobian call, its step, its line-search calls
        marks = [i for i, (what, _) in enumerate(trace) if what == "step"]
        ends = [i - 1 for i in marks[1:]] + [len(trace)]
        searches = [
            (trace[i][1], [size for _, size in trace[i + 1 : end]]) for i, end in zip(marks, ends)
        ]
        assert all(what == "call" for i, end in zip(marks, ends) for what, _ in trace[i + 1 : end])
        assert max(size for _, size in trace) <= 2 * d * n
        few = [calls for ka, calls in searches if 10 * ka <= 2 * d * n]
        assert all(len(calls) <= 1 for calls in few)
        # a single call tried more than 2·d lengths for some seed
        assert any(calls and calls[0] > 2 * d * len(far) for calls in few)


class TestClusterSweep:
    """numerics._cluster against the greedy loop it replaced, bit for bit."""

    @pytest.mark.parametrize("k", [0, 1, 2, 9, 300])
    def test_matches_the_greedy_loop(self, k):
        rng = np.random.default_rng(1000 + k)
        # a lattice of spacing 0.25 puts many pairs exactly 0.5 apart, and a
        # nudge of 1e-7 others just beyond
        cand = rng.integers(-3, 4, (k, 3)) * 0.25 + rng.choice([0.0, 1e-7], (k, 3))
        for tol in (0.5, 1e-6, 0.0, -1.0):
            got, want = _cluster(cand, tol), reference_cluster(cand, tol)
            assert got.shape == want.shape and got.shape[1:] == (3,)
            assert got.tobytes() == want.tobytes()
        if k == 300:
            gaps = np.linalg.norm(cand[:, None] - cand[None], axis=2)
            assert (gaps == 0.5).any()

    def test_exactly_cluster_tol_apart_is_one_root(self):
        cand = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
        assert _cluster(cand, 0.5).tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]
        assert _cluster(cand, np.nextafter(0.5, 0.0)).tolist() == cand.tolist()


class TestScanLattice:
    """normal_scan's lattice is built once per shape, read-only, in a small
    cache."""

    @pytest.mark.parametrize("n_theta, n_phi", [(14, 28), (15, 26), (12, 25), (7, 9)])
    def test_cached_lattice_gives_the_fresh_seeds(self, monkeypatch, n_theta, n_phi):
        import fold3d.numerics

        rng = np.random.default_rng(n_theta * 100 + n_phi)
        for spec in generic_specs()[::6]:
            cons = [random_payload(rng, k) for k in spec.kinds]
            cached = [normal_scan(cons, n_theta, n_phi, True) for _ in range(2)]
            with monkeypatch.context() as patch:
                patch.setattr(fold3d.numerics, "_scan_lattice", _scan_lattice.__wrapped__)
                fresh = normal_scan(cons, n_theta, n_phi, True)
            assert all(seeds.tobytes() == fresh.tobytes() for seeds in cached), spec

    def test_read_only_and_bounded(self):
        for n_theta, n_phi in [(3, 4), (3, 5), (4, 6), (5, 7), (6, 8), (7, 9), (8, 10)]:
            th, ph, normals, twins, doubled = _scan_lattice(n_theta, n_phi)
            assert th.shape == ph.shape == (n_theta * n_phi,)
            assert (twins is None) == (n_phi % 2 == 1)
            half = normals.shape[0]
            assert np.array_equal(doubled[0], np.concatenate([normals, normals]))
            assert doubled[1].tolist() == [0.0] * half + [1.0] * half
            for a in (th, ph, normals, *doubled) + (() if twins is None else (twins,)):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0
        info = _scan_lattice.cache_info()
        assert info.currsize <= info.maxsize <= 8


class TestSearchVerification:
    """search verifies its roots in one batch, with the bits of
    stacked_residual on each plane."""

    def test_batched_residuals_equal_stacked_residual(self, monkeypatch):
        import fold3d.numerics

        runs = []
        run = fold3d.numerics.newton_multistart
        monkeypatch.setattr(
            fold3d.numerics,
            "newton_multistart",
            lambda residual, seeds, **kwargs: runs.append(run(residual, seeds, **kwargs)) or runs[-1],
        )
        rng = np.random.default_rng(41)
        makes = [make for _, make, _ in WORKED_KINDS] + [
            lambda r, spec=spec: [random_payload(r, k) for k in spec.kinds]
            for spec in generic_specs()[::4]
        ]
        checked = 0
        for make in makes:
            cons = make(rng)
            # refine_tol inf keeps every converged plane
            for plane, res in search(cons, 14, 28, True, np.inf):
                assert plane in {plane_from_params(*root) for root in runs[-1]}
                assert res.hex() == stacked_residual(cons, plane).hex()
                checked += 1
        assert checked >= 20


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


def _cell(seed, n_theta, n_phi):
    theta, phi = seed[0], seed[1]
    return round(theta * n_theta / np.pi - 0.5), round(phi * n_phi / (2.0 * np.pi)) % n_phi


def _twin(cell, n_theta, n_phi):
    i, j = cell
    return n_theta - 1 - i, (j + n_phi // 2) % n_phi


class TestTwinSeeds:
    """With n_phi even, normal_scan seeds each fold plane once: of the twin
    cells (theta, phi, d) and (pi - theta, phi + pi, -d) at most one."""

    INSTANCES = 12

    def _instances(self, seed):
        rng = np.random.default_rng(seed)
        makes = [make for _, make, _ in WORKED_KINDS]
        makes += [
            lambda r, spec=spec: [random_payload(r, k) for k in spec.kinds]
            for spec in generic_specs()[::5]
        ]
        return [makes[i % len(makes)](rng) for i in range(self.INSTANCES)]

    def _check(self, seeds, reference, n_theta, n_phi):
        cells = {_cell(sd, n_theta, n_phi): sd[2] for sd in seeds}
        assert len(cells) == len(seeds)
        assert not any(_twin(c, n_theta, n_phi) in cells for c in cells)
        assert all(c[0] < n_theta // 2 or 2 * c[0] + 1 == n_theta for c in cells)
        for sd in reference:
            c = _cell(sd, n_theta, n_phi)
            if c in cells:
                assert np.isclose(cells[c], sd[2], rtol=1e-9, atol=1e-12)
            else:
                assert _twin(c, n_theta, n_phi) in cells
                assert np.isclose(cells[_twin(c, n_theta, n_phi)], -sd[2], rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("n_theta, n_phi, valley_floors", [(14, 28, True), (48, 48, False)])
    def test_normal_scan(self, n_theta, n_phi, valley_floors):
        seeded = 0
        for cons in self._instances(n_theta):
            seeds = normal_scan(cons, n_theta, n_phi, valley_floors)
            reference = reference_normal_scan(cons, n_theta, n_phi, valley_floors)
            self._check(seeds, reference, n_theta, n_phi)
            seeded += len(seeds)
        assert seeded > 0

    def test_odd_rows_through_search(self, monkeypatch):
        # an odd n_theta puts a row on the equator, which is its own mirror
        import fold3d.numerics

        calls = []
        run = fold3d.numerics.newton_multistart
        monkeypatch.setattr(
            fold3d.numerics,
            "newton_multistart",
            lambda residual, seeds, **kwargs: calls.append(seeds) or run(residual, seeds, **kwargs),
        )
        for cons in self._instances(15):
            search(cons, 15, 26, True, 1e-8)
            (seeds,) = calls
            calls.clear()
            self._check(seeds, reference_normal_scan(cons, 15, 26, True), 15, 26)

    def test_odd_n_phi_keeps_every_cell(self):
        for cons in self._instances(9)[:4]:
            seeds = normal_scan(cons, 12, 25, True)
            reference = reference_normal_scan(cons, 12, 25, True)
            assert np.array_equal(seeds[:, :2], reference[:, :2])
            assert np.allclose(seeds[:, 2], reference[:, 2], rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("name, make, solve", WORKED_KINDS, ids=[k[0] for k in WORKED_KINDS])
    def test_same_planes_as_the_full_sphere_search(self, monkeypatch, name, make, solve):
        import fold3d.numerics

        rng = np.random.default_rng(1919)
        for _ in range(20):
            cons = make(rng)
            got = grid_oracle(cons).planes, solve_generic(cons).planes
            with monkeypatch.context() as patch:
                patch.setattr(fold3d.numerics, "normal_scan", reference_normal_scan)
                want = grid_oracle(cons).planes, solve_generic(cons).planes
            for planes, reference in zip(got, want):
                assert len(planes) == len(reference)
                for plane in planes:
                    assert min(plane_gap(plane, q) for q in reference) < 1e-9
