import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from rvlbm import (
    MomentPolynomial,
    VelocitySet,
    build_moment_matrix,
)
from rvlbm.lattice import default_basis, evaluate_terms, validate_basis
from rvlbm.errors import (
    DimensionMismatch,
    NonLatticeVelocity,
    SingularMatrix,
    ValidationError,
)


def d1q2_vset(lam=1.0):
    return VelocitySet(1, lam, ((1,), (-1,)))


def d1q3_vset():
    return VelocitySet(1, 1.0, ((0,), (1,), (-1,)))


def d1q3_basis():
    return (
        MomentPolynomial.constant(1),
        MomentPolynomial.coordinate(1, 0),
        MomentPolynomial.from_terms(1, {(2,): 1.0}),
    )


class TestMomentPolynomial:
    def test_square_at_three(self):
        p = MomentPolynomial.from_terms(1, {(2,): 1.0})
        assert p.evaluate(np.array([3.0])) == 9.0

    def test_constant_one_anywhere(self):
        p = MomentPolynomial.constant(2)
        assert p.evaluate(np.array([17.0, -4.0])) == 1.0

    def test_cross_term_with_offset(self):
        p = MomentPolynomial.from_terms(2, {(1, 1): 1.0, (0, 0): -2.0})
        assert p.evaluate(np.array([2.0, 5.0])) == 8.0

    def test_vectorized_evaluation(self):
        p = MomentPolynomial.from_terms(1, {(2,): 1.0})
        np.testing.assert_allclose(p.evaluate(np.array([[1.0, 2.0, 3.0]])), [1.0, 4.0, 9.0])

    @pytest.mark.parametrize(
        "x, expected",
        [
            ((2j, 3.0), -4.0 + 6.0j),
            (
                (np.array([[1.0], [2.0]]), np.array([[0.5, -1.0, 3.0]])),
                [[-1.0, -2.5, 1.5], [1.0, -2.0, 6.0]],
            ),
            (
                (1j * np.array([[1.0], [2.0]]), np.array([[2.0, -1.0]])),
                [[-2.5 + 2.0j, -2.5 - 1.0j], [-4.0 + 4.0j, -4.0 - 2.0j]],
            ),
        ],
        ids=["complex_point", "open_grid", "complex_open_grid"],
    )
    def test_complex_and_broadcast_coordinates(self, x, expected):
        # x y - 2 + x^2 / 2, one coordinate per axis, broadcast together
        p = MomentPolynomial.from_terms(2, {(1, 1): 1.0, (0, 0): -2.0, (2, 0): 0.5})
        value = p.evaluate(x)
        assert np.shape(value) == np.shape(expected)
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-15)

    def test_zero_coefficients_dropped(self):
        p = MomentPolynomial.from_terms(1, {(2,): 0.0, (1,): 2.0})
        assert len(p.terms) == 1

    def test_terms_canonically_ordered(self):
        p = MomentPolynomial.from_terms(2, {(0, 2): 1.0, (1, 0): 1.0, (2, 0): 1.0})
        degrees = [sum(e) for e, _ in p.terms]
        assert degrees == sorted(degrees)


def plain_sum(terms, x):
    """evaluate_terms as a plain loop: every sum a fresh total + term."""
    total = 0.0
    for exponents, coef in terms:
        term = coef
        for axis, e in enumerate(exponents):
            if e:
                term = term * x[axis] ** e
        total = total + term
    return total


@st.composite
def terms_and_points(draw):
    """A term tuple and one coordinate per axis: each real or complex, and a Python
    number, a numpy scalar, an open-grid array along its axis or a full grid."""
    dim = draw(st.integers(1, 3))
    grid = tuple(draw(st.integers(1, 4)) for _ in range(dim))
    exponents = st.tuples(*[st.integers(0, 3)] * dim)
    terms = tuple(draw(st.lists(st.tuples(exponents, st.floats(-10, 10)), max_size=6)))
    x = []
    for axis in range(dim):
        kind = draw(st.sampled_from(["python", "numpy", "open", "grid"]))
        if draw(st.booleans()):
            dtype, elements = float, st.floats(-3, 3)
        else:
            dtype, elements = complex, st.complex_numbers(max_magnitude=3)
        shape = {"open": (grid[axis],) + (1,) * (dim - 1 - axis), "grid": grid}.get(kind, ())
        values = draw(hnp.arrays(dtype, shape, elements=elements))
        x.append(dtype(values[()]) if kind == "python" else values[()] if kind == "numpy"
                 else values)
    return terms, x


def bits(value):
    return np.atleast_1d(np.asarray(value)).view(np.uint64)


class TestEvaluateTerms:
    @given(terms_and_points())
    # a real grid sum, then a complex term it cannot hold
    @example(((((1, 0), 1.0), ((0, 1), 2.0)), [np.ones((2, 2)), 1j]))
    # an open-grid sum that a later term widens to the full grid
    @example(((((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), 0.5)),
              [np.arange(2.0).reshape(2, 1) + 1j, np.arange(3.0) + 1j]))
    def test_in_place_sum_rounds_as_plain_sum(self, case):
        terms, x = case
        before = [np.copy(v) for v in x]
        value = evaluate_terms(terms, x)
        expected = plain_sum(terms, x)
        assert type(value) is type(expected)
        assert np.shape(value) == np.shape(expected)
        assert np.asarray(value).dtype == np.asarray(expected).dtype
        np.testing.assert_array_equal(bits(value), bits(expected))
        for v, copy in zip(x, before):  # no input written
            np.testing.assert_array_equal(bits(v), bits(copy))
        if all(np.ndim(v) == 0 for v in x):  # scalar in, scalar out
            assert not isinstance(value, np.ndarray)

    def test_sum_is_never_an_input(self):
        # one term of x alone: the sum is a new array, and adding into it leaves x
        x = [np.array([1.0, 2.0])]
        value = evaluate_terms((((1,), 1.0), ((0,), 3.0)), x)
        assert value is not x[0]
        np.testing.assert_array_equal(x[0], [1.0, 2.0])
        np.testing.assert_array_equal(value, [4.0, 5.0])


class TestVelocitySet:
    def test_q_and_velocities(self):
        vset = d1q3_vset()
        assert vset.q == 3
        np.testing.assert_allclose(vset.velocities[:, 0], [0.0, 1.0, -1.0])

    def test_velocities_built_once_and_read_only(self):
        vset = d1q3_vset()
        assert vset.velocities is vset.velocities
        with pytest.raises(ValueError):
            vset.velocities[0, 0] = 5.0

    def test_lambda_scales_velocities(self):
        vset = d1q2_vset(lam=2.0)
        np.testing.assert_allclose(vset.velocities[:, 0], [2.0, -2.0])

    def test_non_integer_component_rejected(self):
        with pytest.raises(NonLatticeVelocity):
            VelocitySet(1, 1.0, ((0.5,), (-1,)))

    def test_non_lattice_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            VelocitySet(1, 1.0, ((0.5,), (-1,)))

    def test_duplicate_velocities_rejected(self):
        with pytest.raises(ValidationError):
            VelocitySet(1, 1.0, ((1,), (1,)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            VelocitySet(2, 1.0, ((1,), (-1,)))


class TestBuildMomentMatrix:
    def test_d1q2_rest_frame(self):
        m = build_moment_matrix(default_basis(d1q2_vset()), d1q2_vset(), (0.0,))
        np.testing.assert_array_equal(m.m, [[1.0, 1.0], [1.0, -1.0]])

    def test_d1q2_shifted(self):
        m = build_moment_matrix(default_basis(d1q2_vset()), d1q2_vset(), (0.2,))
        np.testing.assert_allclose(m.m, [[1.0, 1.0], [0.8, -1.2]])

    def test_d1q3_rest_frame(self):
        m = build_moment_matrix(d1q3_basis(), d1q3_vset(), (0.0,))
        np.testing.assert_allclose(
            m.m, [[1.0, 1.0, 1.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0]]
        )

    def test_inverse_roundtrip(self):
        m = build_moment_matrix(d1q3_basis(), d1q3_vset(), (0.37,))
        np.testing.assert_allclose(m.m @ m.m_inv, np.eye(3), atol=1e-13)

    def test_singular_basis_rejected(self):
        # two identical rows cannot be inverted
        basis = (
            MomentPolynomial.constant(1),
            MomentPolynomial.coordinate(1, 0),
            MomentPolynomial.coordinate(1, 0),
        )
        with pytest.raises(SingularMatrix):
            build_moment_matrix(basis, d1q3_vset(), (0.0,))

    def test_matrix_is_frozen(self):
        m = build_moment_matrix(d1q3_basis(), d1q3_vset(), (0.0,))
        with pytest.raises(ValueError):
            m.m[0, 0] = 2.0

    @given(st.floats(min_value=-0.5, max_value=0.5))
    def test_row_zero_all_ones_for_any_shift(self, u):
        m = build_moment_matrix(d1q3_basis(), d1q3_vset(), (u,))
        np.testing.assert_array_equal(m.m[0], [1.0, 1.0, 1.0])

    @given(
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_row_zero_all_ones_2d(self, ux, uy):
        vset = VelocitySet(2, 1.0, ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)))
        basis = (
            MomentPolynomial.constant(2),
            MomentPolynomial.coordinate(2, 0),
            MomentPolynomial.coordinate(2, 1),
            MomentPolynomial.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0}),
            MomentPolynomial.from_terms(2, {(2, 0): 1.0, (0, 2): -1.0}),
        )
        m = build_moment_matrix(basis, vset, (ux, uy))
        np.testing.assert_array_equal(m.m[0], np.ones(5))

    def test_stack_matches_single_shift_builds(self):
        vset = VelocitySet(2, 1.0, ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)))
        basis = (
            MomentPolynomial.constant(2),
            MomentPolynomial.coordinate(2, 0),
            MomentPolynomial.coordinate(2, 1),
            MomentPolynomial.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0}),
            MomentPolynomial.from_terms(2, {(2, 0): 1.0, (0, 2): -1.0}),
        )
        shifts = np.array([[0.0, 0.3, -0.2, 0.45], [0.1, -0.25, 0.0, 0.2]])
        stack = build_moment_matrix(basis, vset, shifts)
        assert stack.m.shape == stack.m_inv.shape == (4, 5, 5)
        conds = []
        for c in range(shifts.shape[1]):
            single = build_moment_matrix(basis, vset, shifts[:, c])
            np.testing.assert_array_equal(stack.m[c], single.m)
            np.testing.assert_allclose(stack.m_inv[c], single.m_inv, rtol=1e-14, atol=1e-14)
            conds.append(single.cond_estimate)
        assert stack.cond_estimate == pytest.approx(max(conds), rel=1e-12)

    def test_singular_cell_in_stack_rejected(self):
        # (1, x, x^3) on d1q3 is singular exactly at u = 0
        basis = (
            MomentPolynomial.constant(1),
            MomentPolynomial.coordinate(1, 0),
            MomentPolynomial.from_terms(1, {(3,): 1.0}),
        )
        with pytest.raises(SingularMatrix, match=r"\(0\.0,\)"):
            build_moment_matrix(basis, d1q3_vset(), np.array([[0.3, 0.0, -0.2]]))

    def test_rest_frame_is_classical_matrix(self):
        # entry (k, j) = P_k(v_j) when the shift vanishes
        vset = d1q3_vset()
        basis = d1q3_basis()
        m = build_moment_matrix(basis, vset, (0.0,))
        expected = np.array(
            [[p.evaluate(v) for v in vset.velocities] for p in basis]
        )
        np.testing.assert_array_equal(m.m, expected)


def shift_conjugation(basis, vset, u):
    """R(u) = M(u) M(0)^-1, the moment-space change of frame, from two builds."""
    return build_moment_matrix(basis, vset, u).m @ build_moment_matrix(basis, vset, (0.0,) * vset.dim).m_inv


class TestShiftConjugation:
    def test_zero_shift_is_identity(self):
        r = shift_conjugation(d1q3_basis(), d1q3_vset(), (0.0,))
        np.testing.assert_allclose(r, np.eye(3), atol=1e-14)

    def test_maps_rest_equilibrium_moments(self):
        vset = d1q2_vset()
        basis = default_basis(vset)
        e = np.array([0.6, 0.4])
        r = shift_conjugation(basis, vset, (0.2,))
        m0 = build_moment_matrix(basis, vset, (0.0,))
        mu = build_moment_matrix(basis, vset, (0.2,))
        np.testing.assert_allclose(r @ (m0.m @ e), mu.m @ e, atol=1e-13)

    def test_matches_explicit_inverse(self):
        vset = d1q3_vset()
        basis = d1q3_basis()
        r = shift_conjugation(basis, vset, (0.5,))
        mu = build_moment_matrix(basis, vset, (0.5,)).m
        m0 = build_moment_matrix(basis, vset, (0.0,)).m
        np.testing.assert_allclose(r, mu @ np.linalg.inv(m0), atol=1e-13)


class TestValidateBasis:
    def test_default_basis_passes(self):
        validate_basis(default_basis(d1q3_vset()), 1, 3)

    def test_wrong_count(self):
        with pytest.raises(DimensionMismatch):
            validate_basis(d1q3_basis()[:2], 1, 3)

    def test_first_polynomial_must_be_one(self):
        basis = (MomentPolynomial.coordinate(1, 0),) + d1q3_basis()[1:]
        with pytest.raises(ValidationError):
            validate_basis(basis, 1, 3)

    def test_coordinate_block_required(self):
        basis = (
            MomentPolynomial.constant(1),
            MomentPolynomial.from_terms(1, {(2,): 1.0}),
            MomentPolynomial.from_terms(1, {(3,): 1.0}),
        )
        with pytest.raises(ValidationError):
            validate_basis(basis, 1, 3)


STANDARD_SETS = {
    "d2q5": ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)),
    "d2q9": tuple((a, b) for a in (0, 1, -1) for b in (0, 1, -1)),
    "d3q7": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)),
}


class TestDefaultBasis:
    @pytest.mark.parametrize("name", sorted(STANDARD_SETS))
    def test_nonsingular_for_standard_sets(self, name):
        vectors = STANDARD_SETS[name]
        vset = VelocitySet(len(vectors[0]), 1.0, vectors)
        basis = default_basis(vset)
        validate_basis(basis, vset.dim, vset.q)
        for u in ((0.0,) * vset.dim, (0.15,) * vset.dim):
            assert build_moment_matrix(basis, vset, u).cond_estimate < 1e3

    @pytest.mark.parametrize("vectors", [((1,), (-1,)), ((0,), (1,), (-1,)),
                                         ((0,), (1,), (-1,), (2,), (-2,))])
    def test_one_dimensional_basis_is_the_monomials(self, vectors):
        vset = VelocitySet(1, 1.0, vectors)
        expected = tuple(MomentPolynomial.from_terms(1, {(p,): 1.0}) for p in range(vset.q))
        assert default_basis(vset) == expected

