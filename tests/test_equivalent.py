import math
import warnings

import numpy as np
import pytest
from dataclasses import replace
from itertools import permutations
from hypothesis import event, example, given, settings, strategies as st

from rvlbm import (
    MomentPolynomial,
    SchemeSpec,
    VelocitySet,
    VelocityShift,
    compare_with_prediction,
    conservation_defaults,
    derive_equivalent_equation,
    dhumieres_crosscheck,
    extract_symbol_series,
    geometric_dt_sequence,
    load_config,
    reference_config,
    transition_prediction,
    verify_report,
)
from rvlbm.config import REFERENCE_NAMES, default_k_samples
from rvlbm.equivalent import advection_vector, henon_sigma, momentum_velocity_tensor
from rvlbm.lattice import MomentMatrix, default_basis
import rvlbm.equivalent as equivalent
from rvlbm.errors import (
    DimensionMismatch,
    NonConstantShift,
    OrderUnavailable,
    SingularMatrix,
    ValidationError,
)
from spectral import spectral_apply
from test_dispersion import cancelled_d1q2, cancelled_d1q3, random_schemes, rounding_scale


def d1q2_spec(c=0.5, s1=1.0, u=None, lam=1.0):
    vset = VelocitySet(1, lam, ((1,), (-1,)))
    shift = VelocityShift.zero() if u is None else VelocityShift.constant((u,))
    return SchemeSpec(vset, default_basis(vset), (0.0, s1), ((1 + c / lam) / 2, (1 - c / lam) / 2), shift)


def d1q3_spec(s=(0.0, 1.2, 1.6), e=(0.5, 0.3, 0.2), u=None):
    vset = VelocitySet(1, 1.0, ((0,), (1,), (-1,)))
    basis = (
        MomentPolynomial.constant(1),
        MomentPolynomial.coordinate(1, 0),
        MomentPolynomial.from_terms(1, {(2,): 1.0}),
    )
    shift = VelocityShift.zero() if u is None else VelocityShift.constant((u,))
    return SchemeSpec(vset, basis, s, e, shift)


def d2q5_spec(s=(0.0, 1.3, 1.1, 1.5, 0.9), e=(0.4, 0.2, 0.15, 0.15, 0.1), u=None):
    vset = VelocitySet(2, 1.0, ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)))
    basis = (
        MomentPolynomial.constant(2),
        MomentPolynomial.coordinate(2, 0),
        MomentPolynomial.coordinate(2, 1),
        MomentPolynomial.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0}),
        MomentPolynomial.from_terms(2, {(2, 0): 1.0, (0, 2): -1.0}),
    )
    shift = VelocityShift.zero() if u is None else VelocityShift.constant(u)
    return SchemeSpec(vset, basis, s, e, shift)


def seeded_d1q3(seed):
    rng = np.random.RandomState(seed)
    e = rng.uniform(0.05, 1.0, 3)
    e /= e.sum()
    s = (0.0,) + tuple(rng.uniform(0.7, 1.8, 2))
    return d1q3_spec(s=s, e=tuple(e))


# The operator algebra, kept in the tests as the reference's own: an operator
# Sum_a C_a d^a is the MomentPolynomial Sum_a C_a X^a, and every result is built
# by its checking constructor, so the references share no code with the tensor
# contractions of rvlbm.equivalent.  The references hand back the term tuples,
# the form rvlbm.equivalent reads its operators off as.
def add(dim, ops):
    """Sum of the operators: their terms concatenated, canonicalized once by the
    checking constructor, as a chain of + adds them."""
    return MomentPolynomial(dim, tuple(term for op in ops for term in op.terms))


def scale(s, op):
    return MomentPolynomial(op.dim, tuple((e, c * s) for e, c in op.terms))


def compose(a, b):
    """Composition; exponents add since all coefficients are constant."""
    return MomentPolynomial(a.dim, tuple((tuple(x + y for x, y in zip(ea, eb)), ca * cb)
                                         for ea, ca in a.terms for eb, cb in b.terms))


def gradient(dim, vector):
    """The transport operator vector . grad."""
    return MomentPolynomial(dim, tuple((tuple(int(b == a) for b in range(dim)), float(v))
                                       for a, v in enumerate(vector)))


def coefficient(terms, exps) -> float:
    return dict(terms).get(exps, 0.0)


class TestDifferentialOperator:
    """Operators as term tuples, and the reference algebra above that builds the
    derivation and the slaved moments term by term in the tests."""

    def test_zero_coefficients_dropped(self):
        op = MomentPolynomial.from_terms(1, {(1,): 0.0, (2,): 3.0})
        assert op.terms == (((2,), 3.0),)

    def test_addition_merges(self):
        a = MomentPolynomial.from_terms(1, {(1,): 2.0})
        b = MomentPolynomial.from_terms(1, {(1,): -2.0, (2,): 1.0})
        assert add(1, [a, b]).terms == (((2,), 1.0),)

    def test_composition_adds_exponents(self):
        dx = MomentPolynomial.coordinate(2, 0)
        dy = MomentPolynomial.coordinate(2, 1)
        assert compose(dx, dy).terms == (((1, 1), 1.0),)

    def test_composition_bilinear(self):
        a = MomentPolynomial.from_terms(1, {(1,): 2.0, (2,): 1.0})
        b = MomentPolynomial.from_terms(1, {(1,): 3.0})
        assert coefficient(compose(a, b).terms, (2,)) == 6.0
        assert coefficient(compose(a, b).terms, (3,)) == 3.0

    def test_symbol(self):
        op = MomentPolynomial.from_terms(1, {(2,): 0.5})
        k = np.array([2.0])
        assert op.evaluate(1j * k) == pytest.approx((1j * 2.0) ** 2 * 0.5)

    def test_gradient_dot(self):
        op = gradient(2, (3.0, -1.0))
        assert coefficient(op.terms, (1, 0)) == 3.0
        assert coefficient(op.terms, (0, 1)) == -1.0

    def test_scalar_multiplication(self):
        op = scale(2.5, MomentPolynomial.coordinate(1, 0))
        assert coefficient(op.terms, (1,)) == 2.5

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_read_off_terms_are_canonical(self, name):
        # an operator is read off its tensor without the checking constructor, so
        # it must already be in the constructor's canonical form
        spec = load_config(reference_config(name)).spec
        spec = replace(spec, u_tilde=VelocityShift.constant((0.2 * spec.vset.lam,) * spec.dim))
        ops = derive_equivalent_equation(spec, 3).ops
        ops += tuple(op for parts in transition_prediction(spec, 3).xi for op in parts)
        for op in ops:
            assert MomentPolynomial(spec.dim, op).terms == op


class TestConstructorChecks:
    """Checks stay at the public boundary."""

    @pytest.mark.parametrize("build", [
        lambda: MomentPolynomial(2, (((1,), 1.0),)),
        lambda: MomentPolynomial.from_terms(1, {(1, 0): 1.0}),
    ], ids=["MomentPolynomial", "from_terms"])
    def test_wrong_length_exponents_rejected(self, build):
        with pytest.raises(DimensionMismatch, match="expected"):
            build()

    def test_wrong_length_wavevector_rejected(self):
        equation = derive_equivalent_equation(load_config(reference_config("d1q3")).spec, 3)
        with pytest.raises(DimensionMismatch, match=r"^wavevector shape \(2,\), expected \(1,\)$"):
            equation.symbol_series([0.4, 0.4])

    @pytest.mark.parametrize("build", [
        lambda: MomentPolynomial(0, ()),
        lambda: MomentPolynomial.constant(0),
        lambda: MomentPolynomial.coordinate(0, 0),
    ], ids=["MomentPolynomial", "constant", "coordinate"])
    def test_dimension_below_one_rejected(self, build):
        with pytest.raises(DimensionMismatch, match=">= 1"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: MomentPolynomial(1, (((-1,), 1.0),)),
        lambda: MomentPolynomial.from_terms(2, {(1, -2): 1.0}),
    ], ids=["MomentPolynomial", "from_terms"])
    def test_negative_exponent_rejected(self, build):
        with pytest.raises(ValidationError, match="negative exponent"):
            build()


class TestSpectralApply:
    def test_mixed_operator_on_2d_periodic_grid(self):
        # 0.5 ∂xx - 1.5 ∂xyy + 2 ∂y on a 16 x 12 grid over [0, 2π) x [0, 3π)
        op = MomentPolynomial.from_terms(2, {(2, 0): 0.5, (1, 2): -1.5, (0, 1): 2.0})
        box = (2 * np.pi, 3 * np.pi)
        x = np.arange(16)[:, None] * box[0] / 16
        y = np.arange(12)[None, :] * box[1] / 12
        kx, ky = 2.0, 4.0 / 3.0  # modes (2, 2)
        phase = kx * x + ky * y
        expected = (
            -0.5 * kx**2 * np.cos(phase)
            - 1.5 * kx * ky**2 * np.sin(phase)
            - 2.0 * ky * np.sin(phase)
        )
        out = spectral_apply(op.terms, np.cos(phase), box)
        assert out.shape == (16, 12) and np.isrealobj(out)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)

        wave = np.exp(1j * phase)
        out = spectral_apply(op.terms, wave, box)
        assert np.iscomplexobj(out)
        np.testing.assert_allclose(out, op.evaluate(1j * np.array([kx, ky])) * wave,
                                   rtol=0, atol=1e-10)

    def test_one_dimensional_with_constant_term(self):
        # (0.3 + ∂x - 0.25 ∂xxx) sin(3x) = 0.3 sin(3x) + 9.75 cos(3x)
        op = MomentPolynomial.from_terms(1, {(0,): 0.3, (1,): 1.0, (3,): -0.25})
        x = np.arange(24) * 2 * np.pi / 24
        out = spectral_apply(op.terms, np.sin(3 * x), (2 * np.pi,))
        np.testing.assert_allclose(
            out, 0.3 * np.sin(3 * x) + 9.75 * np.cos(3 * x), rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("op, shape, box", [
        ((((1,), 1.0),), (16, 16), (2 * np.pi,)),  # a 1-D operator on a 2-D field
        ((((1,), 1.0),), (16,), (2 * np.pi, 2 * np.pi)),  # a second box length
        ((((1, 0), 1.0),), (16,), (2 * np.pi,)),  # a 2-D operator on a 1-D field
        ((), (16, 16), (2 * np.pi,)),  # the zero operator still needs matching boxes
    ], ids=["1d_operator_2d_field", "two_box_lengths_1d_field", "2d_operator_1d_field",
            "zero_operator_one_box_length"])
    def test_mismatched_dimensions_rejected(self, op, shape, box):
        with pytest.raises(DimensionMismatch, match="field has"):
            spectral_apply(op, np.ones(shape), box)


class TestHenonSigma:
    def test_values(self):
        sig = henon_sigma((0.0, 2.0, 1.0, 0.5))
        assert sig[1] == 0.0
        assert sig[2] == 0.5
        assert sig[3] == 1.5

    def test_conserved_slot_undefined(self):
        assert henon_sigma((0.0, 1.0)) == (None, 0.5)

    def test_zero_rate_divides(self):
        with pytest.raises(ValidationError, match=r"s\[1\] = 0"):
            henon_sigma((0.0, 0.0))


class TestAdvectionVector:
    def test_d1q2_family(self):
        for c in (0.0, 0.3, 0.6):
            np.testing.assert_allclose(advection_vector(d1q2_spec(c=c)), [c])

    def test_symmetric_equilibrium(self):
        np.testing.assert_allclose(advection_vector(d1q3_spec(e=(0.5, 0.25, 0.25))), [0.0])

    def test_d1q3(self):
        np.testing.assert_allclose(advection_vector(d1q3_spec()), [0.1], atol=1e-15)


class TestConservationDefaults:
    def test_theta_zero_vanishes(self):
        for spec in (d1q2_spec(), d1q3_spec(u=0.3), d2q5_spec()):
            theta = conservation_defaults(spec)
            assert theta.shape == (spec.q, spec.dim)
            assert theta[0].tolist() == [0.0] * spec.dim

    def test_d1q2_momentum_default(self):
        # theta_1 at order 0 is (lambda^2 - c^2) d_x
        spec = d1q2_spec(c=0.5)
        assert conservation_defaults(spec)[1].tolist() == [pytest.approx(1.0 - 0.25)]

    def test_order0_matches_velocity_fluctuation_sum(self):
        spec = d1q3_spec(u=0.2)
        theta = conservation_defaults(spec)
        m = np.array(
            [
                [p.evaluate(np.array([v - 0.2])) for v in (0.0, 1.0, -1.0)]
                for p in spec.basis
            ]
        )
        e = np.array(spec.equilibrium)
        c = advection_vector(spec)[0]
        vel = np.array([0.0, 1.0, -1.0])
        for k in range(3):
            expected = float(np.sum(m[k] * e * (vel - c)))
            assert theta[k, 0] == pytest.approx(expected, abs=1e-14)


class TestDeriveEquivalentEquation:
    def test_d1q2_diffusion_coefficient(self):
        eq = derive_equivalent_equation(d1q2_spec(c=0.5, s1=1.0), 2)
        assert coefficient(eq.ops[1], (2,)) == pytest.approx(0.375, abs=1e-14)

    def test_sigma_zero_kills_first_order(self):
        with pytest.warns(UserWarning):
            spec = d1q3_spec(s=(0.0, 2.0, 2.0))
        eq = derive_equivalent_equation(spec, 3)
        assert eq.ops[1] == ()

    def test_order_one_is_transport_only(self):
        eq = derive_equivalent_equation(d1q2_spec(c=0.3), 1)
        assert len(eq.ops) == 1
        np.testing.assert_allclose(eq.c, [0.3])
        assert eq.D is None and eq.T is None

    def test_advection_tensor(self):
        eq = derive_equivalent_equation(d1q3_spec(), 3)
        np.testing.assert_allclose(eq.c, [0.1], atol=1e-15)

    def test_structure_invariant_references(self):
        for spec in (d1q2_spec(), d1q3_spec(u=0.2), d2q5_spec(u=(0.1, -0.3))):
            eq = derive_equivalent_equation(spec, 3)
            assert eq.structure_violations() == []

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_structure_invariant_seeded(self, seed):
        eq = derive_equivalent_equation(seeded_d1q3(seed), 3)
        assert eq.structure_violations() == []

    def test_mirror_symmetric_scheme_has_no_dispersion(self):
        # x -> -x invariance forbids odd-derivative corrections, so the
        # third-order operator vanishes identically
        spec = d1q3_spec(e=(0.5, 0.25, 0.25))
        eq = derive_equivalent_equation(spec, 3)
        assert eq.ops[2] == ()

    def test_asymmetric_d1q3_dispersion_matches_oracle(self):
        spec = d1q3_spec()
        eq = derive_equivalent_equation(spec, 3)
        assert [exps for exps, _ in eq.ops[2]] == [(3,)]
        k = np.array([1.3])
        series = extract_symbol_series(spec, k, geometric_dt_sequence(0.05 / 1.3, 10))
        assert eq.symbol_series(k)[2] == pytest.approx(series.mu2, rel=1e-5, abs=1e-9)

    def test_unsupported_order(self):
        with pytest.raises(OrderUnavailable):
            derive_equivalent_equation(d1q2_spec(), 4)

    def test_sine_shift_rejected(self):
        # order 1 reads no M(u), so derive_equivalent_equation gates it itself
        spec = replace(d1q3_spec(), u_tilde=VelocityShift.sine((0.1,)))
        for order in (1, 2, 3):
            with pytest.raises(NonConstantShift, match="requires a constant shift"):
                derive_equivalent_equation(spec, order)

    def test_tensors_symmetric(self):
        eq = derive_equivalent_equation(d2q5_spec(u=(0.2, 0.1)), 3)
        np.testing.assert_array_equal(eq.D, eq.D.T)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            np.testing.assert_array_equal(eq.T, np.transpose(eq.T, perm))

    def test_lambda_scaling_of_diffusion(self):
        # with c = 0 the diffusion coefficient is sigma lambda^2
        for lam in (1.0, 2.0):
            eq = derive_equivalent_equation(d1q2_spec(c=0.0, s1=1.0, lam=lam), 2)
            assert coefficient(eq.ops[1], (2,)) == pytest.approx(0.5 * lam**2)


SHIPPED_PRETTY = {
    # a negative term after the first is written "- a", never "+ -a"
    "d2q5": "∂t ρ + 0.05 ∂y ρ + 0.05 ∂x ρ = Δ·(0.10125 ∂yy ρ - 0.0016958 ∂xy ρ"
            " + 0.0935577 ∂xx ρ) + Δ²·(-0.00235227 ∂yyy ρ + 0.00525002 ∂xyy ρ"
            " + 0.00288366 ∂xxy ρ - 0.00181928 ∂xxx ρ)",
    # a negative first term keeps its own sign
    "d1q3": "∂t ρ + 0.1 ∂x ρ = Δ·(0.163333 ∂xx ρ) + Δ²·(-0.002 ∂xxx ρ)",
}


class TestPretty:
    @pytest.mark.parametrize("name", sorted(SHIPPED_PRETTY))
    def test_shipped_config_text(self, name):
        eq = derive_equivalent_equation(load_config(reference_config(name)).spec, 3)
        assert eq.pretty() == SHIPPED_PRETTY[name]


@pytest.fixture
def derivations():
    """Empty the derivation cache; return a count of the derivations run from then on."""
    equivalent._derive.cache_clear()
    return lambda: equivalent._derive.cache_info().misses


class TestDerivationCache:
    def test_verify_report_derives_each_scheme_once(self, derivations):
        # the 3 swept schemes at order 3; the crosscheck's zero-shift scheme is
        # the sweep's u = 0 member, and transition_prediction reads A_1 without
        # deriving an equation.  Small grids keep the refinement study cheap;
        # they derive nothing.
        cfg = load_config(reference_config("d2q5"))
        verify_report(replace(cfg, grids=(16, 32, 64)))
        assert derivations() == 3

    def test_comparison_reuses_its_callers_derivation(self, derivations):
        spec = d2q5_spec(u=(0.1, -0.3))
        derive_equivalent_equation(spec, 3)
        compare_with_prediction(spec, default_k_samples(2))
        assert derivations() == 1

    def test_five_schemes_cycled_are_derived_every_pass(self, derivations):
        # four entries hold nothing over from one pass over five schemes to the next
        specs = [d1q2_spec(c=0.1 * i) for i in range(5)]
        for _ in range(2):
            for spec in specs:
                derive_equivalent_equation(spec, 3)
        assert derivations() == 10

    def test_cached_tensors_are_read_only(self, derivations):
        eq = derive_equivalent_equation(d2q5_spec(), 3)
        for tensor in (eq.c, eq.D, eq.T):
            with pytest.raises(ValueError):
                tensor[0] = 1.0
        assert derive_equivalent_equation(d2q5_spec(), 3) is eq
        assert derivations() == 1


class TestDerivationWork:
    @pytest.mark.parametrize("name, u, built", [
        ("d1q2", 0.0, 3), ("d1q2", 0.2, 3),
        ("d1q3", 0.0, 3), ("d1q3", 0.2, 3),
        ("d2q5", 0.0, 3), ("d2q5", 0.2, 3),
    ])
    def test_polynomials_built_per_third_order_derivation(self, derivations, monkeypatch,
                                                          name, u, built):
        # one term tuple per operator A_0, A_1, A_2, at any shift and in any
        # dimension: each A_l is read off one tensor contraction, and no checked
        # MomentPolynomial is built on the way.  Through the operator algebra, with
        # its transports, partials, conservation defaults and group sums, a
        # derivation built 43, 55 and 121 polynomials
        spec = load_config(reference_config(name)).spec
        lam = spec.vset.lam
        spec = replace(spec, u_tilde=VelocityShift.zero() if u == 0.0
                       else VelocityShift.constant((u * lam,) * spec.dim))
        spec.moment_matrix
        count, polynomials = [], []
        read = equivalent._read_operator
        monkeypatch.setattr(equivalent, "_read_operator",
                            lambda tensor: count.append(1) or read(tensor))
        post_init = MomentPolynomial.__post_init__  # every polynomial is built through it
        monkeypatch.setattr(MomentPolynomial, "__post_init__",
                            lambda self: polynomials.append(1) or post_init(self))
        derive_equivalent_equation(spec, 3)
        assert len(count) == built
        assert polynomials == []


def reference_symmetric_tensor(op, rank, dim):
    """op's coefficients spread uniformly over each multi-index's index permutations."""
    out = np.zeros((dim,) * rank)
    for exps, coef in op.terms:
        axes = [a for a, e in enumerate(exps) for _ in range(e)]
        spread = set(permutations(axes))
        for idx in spread:
            out[idx] = coef / len(spread)
    return out


def transport_sum(dim, weights, transports):
    """Sum_j w_j (A_0 + v_j . grad) over the velocities, skipping exact-zero weights."""
    return add(dim, (scale(w, t) for w, t in zip(weights.tolist(), transports) if w != 0.0))


def reference_theta(spec, a0):
    """theta_k^(0) = Sum_j M_kj(u) E_j (d_t + v_j . grad) with d_t -> a0, one operator
    per moment k, built from M(u), E and v: e_k(u) a0 + Sum_b g_k^b d_b with
    e_k(u) = Sum_j M_kj(u) E_j and g_k^b = Sum_j M_kj(u) E_j v_j^b."""
    d = spec.dim
    m = spec.moment_matrix.m
    ew = np.asarray(spec.equilibrium)
    e = (m @ ew).tolist()
    g = (m @ (ew[:, None] * spec.vset.velocities)).tolist()
    partials = [MomentPolynomial.coordinate(d, b) for b in range(d)]
    return tuple(add(d, [scale(e[k], a0)] + [scale(g[k][b], partials[b]) for b in range(d)])
                 for k in range(spec.q))


def reference_diffusion(spec, theta0, what):
    """A_1 = Sum_b sigma_b d_b theta_b^(0) through the operator algebra, or the
    ValidationError of a non-finite coefficient naming `what`."""
    d, sigma = spec.dim, henon_sigma(spec.s)
    a1 = add(d, (scale(sigma[b], compose(MomentPolynomial.coordinate(d, b - 1), theta0[b]))
                 for b in range(1, d + 1)))
    equivalent._require_finite(spec, what, (coef for _, coef in a1.terms))
    return a1


def reference_derivation(spec, order):
    """The equivalent equation through the operator algebra, term by term:
    (term tuples of the operators, c, D, T), or the ValidationError of a
    non-finite coefficient.

    This is how the derivation was built before it became a tensor contraction;
    it is kept here, uncached, as a reference that shares no contraction code and
    builds every operator through the checking constructor.
    """
    d, q = spec.dim, spec.q
    vel = spec.vset.velocities
    c = advection_vector(spec)
    a0 = gradient(d, -c)
    if order == 1:
        return (a0.terms,), c, None, None
    sigma = henon_sigma(spec.s)
    partials = [MomentPolynomial.coordinate(d, b) for b in range(d)]
    theta0 = reference_theta(spec, a0)
    a1 = reference_diffusion(spec, theta0, f"order-{order} equivalent equation")
    D = reference_symmetric_tensor(a1, 2, d)
    if order == 2:
        return (a0.terms, a1.terms), c, D, None

    delta_corr = add(d, (scale(sigma[b], compose(partials[b - 1], scale(cb, a1)))
                         for b, cb in enumerate(c.tolist(), 1)))
    m_inv = spec.moment_matrix.m_inv
    transports = [add(d, [a0, gradient(d, v)]) for v in vel]
    sigma_terms = []
    for b in range(1, d + 1):
        for l in range(1, q):
            inner = transport_sum(d, vel[:, b - 1] * m_inv[:, l], transports)
            sigma_terms.append(scale(sigma[b] * sigma[l],
                                     compose(compose(partials[b - 1], inner), theta0[l])))
    sigma_group = add(d, sigma_terms)
    second = [[compose(pb, pg) for pg in partials] for pb in partials]
    weighted = [scale(w, t) for w, t in zip(spec.equilibrium, transports)]
    v = vel.tolist()
    twelfth = add(d, (
        scale(v[j][b] * v[j][g] / 12.0, compose(second[b][g], weighted[j]))
        for j in range(q) for b in range(d) for g in range(d) if v[j][b] * v[j][g] != 0.0
    ))
    sixth = add(d, (scale(1.0 / 6.0, compose(compose(partials[b - 1], a0), theta0[b]))
                    for b in range(1, d + 1)))
    a2 = add(d, [delta_corr, add(d, [add(d, [sixth, twelfth]), scale(-1.0, sigma_group)])])
    equivalent._require_finite(spec, "order-3 equivalent equation", (coef for _, coef in a2.terms))
    return (a0.terms, a1.terms, a2.terms), c, D, reference_symmetric_tensor(a2, 3, d)


def inf_sigma_d1q3():
    """All weight on the rest velocity, so theta is exactly 0, and s_2 = 5e-324, so
    sigma_2 = 1/s_2 - 1/2 overflows to inf: sigma_2 scales no term of the operator
    algebra, and inf * 0 must not turn the contraction's zeros into NaN."""
    vset = VelocitySet(1, 1.0, ((0,), (1,), (-1,)))
    return SchemeSpec(vset, default_basis(vset), (0.0, 1.0, 5e-324), (1.0, 0.0, 0.0))


def derived(derive, spec, order):
    """(operators, c, D, T) of derive(spec, order), or the message of its typed
    non-finite error."""
    try:
        result = derive(spec, order)
    except ValidationError as exc:
        assert "non-finite coefficient" in str(exc)
        return str(exc)
    return result if isinstance(result, tuple) else (result.ops, result.c, result.D, result.T)


def assert_matches_reference(spec) -> list[str]:
    """The contraction and the operator algebra reach the same outcome at every order,
    and return it per order.

    Either both raise the same typed error, or c, A_0, A_1 and D are equal bit for
    bit (the same products summed in the same order) and every coefficient of A_2
    and entry of T agree within 1e-14 rounding_scale(spec), the size of the terms
    A_2 is summed from.  The one exception is an operator whose coefficients reach
    1e300: whether a sum of terms at the edge of the float range overflows depends
    on the order of its terms.
    """
    outcomes = []
    for order in (1, 2, 3):
        got = derived(derive_equivalent_equation, spec, order)
        want = derived(reference_derivation, spec, order)
        if isinstance(got, str) or isinstance(want, str):
            finite = [r for r in (got, want) if not isinstance(r, str)]
            assert got == want or max(abs(coef) for op in finite[0][0]
                                      for _, coef in op) >= 1e300, order
            outcomes.append(f"order {order}: typed non-finite error")
            continue
        (ops, c, D, T), (ref_ops, ref_c, ref_D, ref_T) = got, want
        assert c.tobytes() == ref_c.tobytes()
        assert repr(ops[:2]) == repr(ref_ops[:2])
        assert (D is ref_D is None) or D.tobytes() == ref_D.tobytes()
        if order == 3:
            bound = 1e-14 * rounding_scale(spec)
            a2, ref = dict(ops[2]), dict(ref_ops[2])
            for exps in a2.keys() | ref.keys():
                assert abs(a2.get(exps, 0.0) - ref.get(exps, 0.0)) <= bound, exps
            assert np.max(np.abs(T - ref_T)) <= bound
            if not math.isfinite(bound):
                outcomes.append("order 3: finite, infinite rounding bound")
                continue
        outcomes.append(f"order {order}: finite")
    return outcomes


class TestContractionAgainstAlgebra:
    """derive_equivalent_equation's tensor contractions against reference_derivation."""

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_shipped_configs_at_every_swept_shift(self, name):
        cfg = load_config(reference_config(name))
        lam = cfg.spec.vset.lam
        for u in cfg.u_sweep:
            shift = (VelocityShift.zero() if u == 0.0
                     else VelocityShift.constant((u * lam,) * cfg.spec.dim))
            assert_matches_reference(replace(cfg.spec, u_tilde=shift))

    @given(random_schemes())
    @example(cancelled_d1q2())
    @example(cancelled_d1q3())
    @example(inf_sigma_d1q3())
    @settings(max_examples=100, deadline=None)
    def test_random_schemes(self, spec):
        # D1Q2 to D3Q7 with random rates, weights and shift, at that shift and
        # at zero shift; the only filter is cond M(u) <= 1e12
        for shift in (spec.u_tilde, VelocityShift.zero()):
            spec_u = replace(spec, u_tilde=shift)
            try:
                spec_u.moment_matrix
            except SingularMatrix:
                continue
            for outcome in assert_matches_reference(spec_u):
                event(outcome)

    def test_infinite_sigma_scales_no_zero_term(self):
        eq = derive_equivalent_equation(inf_sigma_d1q3(), 3)
        assert eq.ops[1] == eq.ops[2] == ()
        assert not np.any(eq.D) and not np.any(eq.T)

    def test_infinite_sigma_of_a_zero_row_leaves_the_bound_finite(self):
        # sigma_2 = inf scales only the zero row theta_2, so it adds no rounding
        spec = inf_sigma_d1q3()
        assert math.isfinite(rounding_scale(spec))
        assert assert_matches_reference(spec) == [f"order {o}: finite" for o in (1, 2, 3)]


def reference_transition_prediction(spec, order):
    """The slaved-moment predictors xi through the operator algebra, as
    transition_prediction built them before they became contractions: one tuple of
    parts per moment, each a term tuple, or the ValidationError of a non-finite
    coefficient."""
    d, q = spec.dim, spec.q
    what = f"order-{order} transition prediction"
    a0 = MomentPolynomial(d, reference_derivation(spec, 1)[0][0])
    sigma = henon_sigma(spec.s)
    mm = spec.moment_matrix
    e = (mm.m @ np.asarray(spec.equilibrium)).tolist()
    theta = reference_theta(spec, a0)
    if order == 2:
        xi = tuple((theta[k],) for k in range(q))
    else:
        a1 = reference_diffusion(spec, theta, what)
        transports = [add(d, [a0, gradient(d, v)]) for v in spec.vset.velocities]
        xi = []
        for k in range(q):
            psi = add(d, (scale(sigma[l], compose(
                transport_sum(d, mm.m[k] * mm.m_inv[:, l], transports), theta[l]))
                for l in range(1, q)))
            xi.append((theta[k], add(d, [scale(e[k], a1), scale(-1.0, psi)])))
    equivalent._require_finite(spec, what, (
        (0.5 + abs(sigma[k])) * coef for k in range(1, q) for op in xi[k] for _, coef in op.terms))
    return tuple(tuple(op.terms for op in parts) for parts in xi)


def assert_xi_matches_reference(spec) -> list[str]:
    """transition_prediction and the operator algebra reach the same outcome at
    orders 2 and 3, and return it per order.

    Either both raise the same typed error, or the order-0 parts are equal bit
    for bit and every coefficient of an order-1 part agrees within 1e-14
    rounding_scale(spec).
    """
    outcomes = []
    for order in (2, 3):
        got = derived(lambda s, o: transition_prediction(s, o).xi, spec, order)
        want = derived(reference_transition_prediction, spec, order)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want, order
            outcomes.append(f"order {order}: typed non-finite error")
            continue
        assert [repr(parts[0]) for parts in got] == [repr(parts[0]) for parts in want]
        assert [len(parts) for parts in got] == [len(parts) for parts in want] == [order - 1] * spec.q
        if order == 3:
            bound = 1e-14 * rounding_scale(spec)
            for parts, ref in zip(got, want):
                xi1, ref1 = dict(parts[1]), dict(ref[1])
                for exps in xi1.keys() | ref1.keys():
                    assert abs(xi1.get(exps, 0.0) - ref1.get(exps, 0.0)) <= bound, exps
            if not math.isfinite(bound):
                outcomes.append("order 3: finite, infinite rounding bound")
                continue
        outcomes.append(f"order {order}: finite")
    return outcomes


class TestXiAgainstAlgebra:
    """transition_prediction's tensor contractions against reference_transition_prediction."""

    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_shipped_configs_at_every_swept_shift(self, name):
        cfg = load_config(reference_config(name))
        lam = cfg.spec.vset.lam
        for u in cfg.u_sweep:
            shift = (VelocityShift.zero() if u == 0.0
                     else VelocityShift.constant((u * lam,) * cfg.spec.dim))
            assert assert_xi_matches_reference(replace(cfg.spec, u_tilde=shift)) == [
                "order 2: finite", "order 3: finite"]

    @given(random_schemes())
    @example(cancelled_d1q2())
    @example(cancelled_d1q3())
    @example(inf_sigma_d1q3())
    @settings(max_examples=100, deadline=None)
    def test_random_schemes(self, spec):
        # D1Q2 to D3Q7 with random rates, weights and shift, at that shift and
        # at zero shift; the only filter is cond M(u) <= 1e12
        for shift in (spec.u_tilde, VelocityShift.zero()):
            spec_u = replace(spec, u_tilde=shift)
            try:
                spec_u.moment_matrix
            except SingularMatrix:
                continue
            for outcome in assert_xi_matches_reference(spec_u):
                event(outcome)


class TestMomentMatrixBuilds:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Empty the derivation cache; return a record of every M(u) built from then on,
        whichever module calls build_moment_matrix."""
        equivalent._derive.cache_clear()
        calls = []
        init = MomentMatrix.__post_init__
        monkeypatch.setattr(MomentMatrix, "__post_init__",
                            lambda self: calls.append(1) or init(self))
        return calls

    def test_shifted_derivation_builds_one_moment_matrix(self, builds):
        # the Delta-term correction reads c, not a second M(0) and its inverse
        derive_equivalent_equation(d2q5_spec(u=(0.2, 0.2)), 3)
        assert len(builds) == 1

    def test_crosscheck_builds_one_moment_matrix(self, builds):
        # the derivation and the momentum-velocity tensor share the spec's M(0)
        dhumieres_crosscheck(d1q3_spec())
        assert len(builds) == 1


class TestShiftInvariance:
    @pytest.mark.parametrize("maker", [d1q2_spec, d1q3_spec])
    def test_low_order_tensors_fixed(self, maker):
        eqs = [
            derive_equivalent_equation(maker(u=u if u else None), 3)
            for u in (0.0, 0.1, -0.3, 0.7)
        ]
        for eq in eqs[1:]:
            np.testing.assert_allclose(eq.c, eqs[0].c, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(eq.D, eqs[0].D, rtol=1e-10, atol=1e-12)

    def test_third_order_moves(self):
        a = derive_equivalent_equation(d1q3_spec(), 3)
        b = derive_equivalent_equation(d1q3_spec(u=0.5), 3)
        assert abs(coefficient(a.ops[2], (3,)) - coefficient(b.ops[2], (3,))) > 1e-6


class TestMomentumVelocityTensor:
    def test_d1q3_unit_row(self):
        lam = momentum_velocity_tensor(d1q3_spec())
        np.testing.assert_allclose(lam[0, 0], [0.0, 0.0, 1.0], atol=1e-14)

    def test_d1q2_mass_row(self):
        lam = momentum_velocity_tensor(d1q2_spec())
        np.testing.assert_allclose(lam[0, 0], [1.0, 0.0], atol=1e-14)

    def test_d2q5_explicit_inverse(self):
        spec = d2q5_spec()
        lam = momentum_velocity_tensor(spec)
        np.testing.assert_allclose(lam[0, 0], [0.0, 0.0, 0.0, 0.5, 0.5], atol=1e-13)
        vel = spec.vset.velocities
        m = np.array([[p.evaluate(v) for v in vel] for p in spec.basis])
        expected = np.einsum("jb,jg,jl->bgl", vel, vel, np.linalg.inv(m))
        np.testing.assert_allclose(lam, expected, atol=1e-13)


class TestDhumieresCrosscheck:
    def test_d1q2_family(self):
        for c in (0.0, 0.3, 0.6):
            report = dhumieres_crosscheck(d1q2_spec(c=c, s1=1.5))
            assert report["pass"]
            assert report["relative_difference"] <= 1e-10

    def test_sigma_free_groups_agree(self):
        with pytest.warns(UserWarning):
            spec = d1q3_spec(s=(0.0, 2.0, 2.0))
        assert dhumieres_crosscheck(spec)["pass"]

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_seeded_d1q3(self, seed):
        assert dhumieres_crosscheck(seeded_d1q3(seed))["pass"]

    def test_requires_zero_shift(self):
        with pytest.raises(ValidationError):
            dhumieres_crosscheck(d1q3_spec(u=0.2))

    def test_regrouped_side_ignores_the_derivations_first_order_operator(self, monkeypatch):
        # only A_2 comes from the derivation: doubling its A_1 moves neither the
        # regrouped side nor the report
        spec = d2q5_spec()
        clean = dhumieres_crosscheck(spec)
        derive = equivalent._derive

        def doubled_a1(spec, order):
            eq = derive(spec, order)
            if order < 2:
                return eq
            a1 = scale(2.0, MomentPolynomial(spec.dim, eq.ops[1])).terms
            return replace(eq, ops=(eq.ops[0], a1) + eq.ops[2:], D=2.0 * eq.D)

        monkeypatch.setattr(equivalent, "_derive", doubled_a1)
        assert derive_equivalent_equation(spec, 3).ops[1] != derive(spec, 3).ops[1]
        assert dhumieres_crosscheck(spec) == clean

    def test_failing_report_carries_its_numbers(self):
        # the open criterion-3 counterexample: c rounds to -lam, so the direct A_2
        # is one rounding-level term and the regrouped A_2 is 0.  The verdict comes
        # back as a report, with the numbers it rests on, and is not raised
        report = dhumieres_crosscheck(cancelled_d1q2())
        assert report["pass"] is False
        assert report["relative_difference"] == 1.0
        assert report["max_abs_difference"] == report["scale"] > 0.0
        assert (report["direct_terms"], report["regrouped_terms"]) == (1, 0)
        assert report["tolerance"] == 1e-10

    def test_detects_corruption(self, monkeypatch):
        # push the tolerance to an impossible level: the report must fail
        monkeypatch.setattr(equivalent, "CROSSCHECK_RTOL", 1e-18)
        report = dhumieres_crosscheck(d1q3_spec())
        assert report["pass"] is False
        assert report["tolerance"] == 1e-18


class TestTransitionPrediction:
    def test_order_two_is_order_zero_theta(self):
        spec = d1q3_spec()
        pred2 = transition_prediction(spec, 2)
        pred3 = transition_prediction(spec, 3)
        theta = conservation_defaults(spec)
        for k in range(1, 3):
            assert pred2.xi[k][0] == pred3.xi[k][0] == (((1,), theta[k, 0]),)
            assert len(pred2.xi[k]) == 1

    def test_factors(self):
        spec = d1q3_spec(s=(0.0, 1.0, 2.0))
        pred = transition_prediction(spec, 3)
        assert pred.pre_collision_factor(1) == pytest.approx(-1.0)  # -(1/2 + 1/2)
        assert pred.post_collision_factor(1) == pytest.approx(0.0)
        assert pred.pre_collision_factor(2) == pytest.approx(-0.5)
        assert pred.post_collision_factor(2) == pytest.approx(0.5)

    def test_conserved_moment_has_no_default(self):
        pred = transition_prediction(d1q3_spec(), 3)
        assert pred.xi[0][0] == ()

    def test_unsupported_order(self):
        with pytest.raises(OrderUnavailable):
            transition_prediction(d1q3_spec(), 4)

    @pytest.mark.parametrize("relaxation", [(0.0, 1.2, 1.6), (0.0, 0.0, 1.6)],
                             ids=["rates", "zero-rate"])
    def test_sine_shift_rejected_before_sigma(self, relaxation):
        # a zero rate has no sigma; the shift's rule is checked first
        spec = replace(d1q3_spec(), s=relaxation, u_tilde=VelocityShift.sine((0.1,)))
        with pytest.raises(NonConstantShift, match="requires a constant shift"):
            transition_prediction(spec, 3)


# Each channel that reads sigma_1 = 1/s[1] - 1/2 of the shipped d1q3 scheme with
# relaxation [0, s, 1.5], and whether it raises.  At s = 1e-200 the order-2
# coefficients (one sigma) stay finite and the sigma-sigma products of order 3
# overflow; at s = 5e-324 sigma_1 itself is inf.
NON_FINITE_CHANNELS = {
    "order2": lambda spec: derive_equivalent_equation(spec, 2),
    "order3": lambda spec: derive_equivalent_equation(spec, 3),
    "transition": lambda spec: transition_prediction(spec, 3),
    "crosscheck": lambda spec: dhumieres_crosscheck(replace(spec, u_tilde=VelocityShift.zero())),
}


class TestNonFiniteCoefficients:
    @pytest.mark.parametrize("rate, channel, raises", [
        (1e-200, "order2", False), (1e-200, "order3", True),
        (1e-200, "transition", True), (1e-200, "crosscheck", True),
        (5e-324, "order2", True), (5e-324, "order3", True),
        (5e-324, "transition", True), (5e-324, "crosscheck", True),
    ])
    def test_tiny_rate_on_d1q3(self, rate, channel, raises):
        spec = replace(load_config(reference_config("d1q3")).spec, s=(0.0, rate, 1.5))
        if not raises:
            eq = NON_FINITE_CHANNELS[channel](spec)
            assert all(math.isfinite(coef) for op in eq.ops for _, coef in op)
            return
        with pytest.raises(ValidationError, match=r"has a non-finite coefficient "
                                                  r"\(smallest relaxation rate s\[1\] = "):
            NON_FINITE_CHANNELS[channel](spec)

    @pytest.mark.parametrize("channel", ["order3", "transition"])
    @pytest.mark.parametrize("s, equilibrium, cause", [
        ((0.0, 1e-200, 1.5), (0.5, 0.3, 0.2), "smallest relaxation rate s[1] = 1e-200"),
        # every sigma is below 0.4 here: the overflow is in c and Theta
        ((0.0, 1.2, 1.6), (1e300, -1e300, 1.0), "largest equilibrium weight |E[0]| = 1e+300"),
    ], ids=["rate", "equilibrium"])
    def test_error_names_the_input_that_overflowed(self, channel, s, equilibrium, cause):
        spec = replace(load_config(reference_config("d1q3")).spec, s=s, equilibrium=equilibrium)
        what = {"order3": "order-3 equivalent equation",
                "transition": "order-3 transition prediction"}[channel]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # Theta overflows as it is formed
            with pytest.raises(ValidationError) as err:
                NON_FINITE_CHANNELS[channel](spec)
        assert str(err.value) == f"{what} has a non-finite coefficient ({cause})"

    @pytest.mark.parametrize("order, channel", [(2, "equivalent equation"),
                                                (3, "equivalent equation"),
                                                (2, "transition prediction"),
                                                (3, "transition prediction")])
    def test_overflowing_theta_raises_no_warning(self, order, channel):
        # Theta is formed inside the derivation's np.errstate, so its overflow
        # reaches the caller as the typed error alone
        spec = replace(load_config(reference_config("d1q3")).spec, s=(0.0, 1.2, 1.6),
                       equilibrium=(1e300, -1e300, 1.0))
        derive = (derive_equivalent_equation if channel == "equivalent equation"
                  else transition_prediction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                derive(spec, order)
        assert str(err.value) == (f"order-{order} {channel} has a non-finite coefficient "
                                  "(largest equilibrium weight |E[0]| = 1e+300)")

    @pytest.mark.parametrize("rate", [1e-200, 5e-324])
    def test_transition_error_names_the_prediction(self, rate):
        # A_1 is read inside the prediction, so its overflow is reported as the
        # order-3 transition prediction asked for, not as an order-2 equation
        spec = replace(load_config(reference_config("d1q3")).spec, s=(0.0, rate, 1.5))
        with pytest.raises(ValidationError, match=r"^order-3 transition prediction has a non-finite"):
            transition_prediction(spec, 3)
