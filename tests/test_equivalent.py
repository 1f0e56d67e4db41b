import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from rvlbm import (
    DifferentialOperator,
    MomentMatrix,
    MomentPolynomial,
    SchemeSpec,
    VelocitySet,
    VelocityShift,
    advection_vector,
    compare_with_prediction,
    conservation_defaults,
    default_basis,
    derive_equivalent_equation,
    dhumieres_crosscheck,
    extract_symbol_series,
    geometric_dt_sequence,
    load_config,
    momentum_velocity_tensor,
    reference_config,
    spectral_apply,
    transition_prediction,
    verify_report,
)
from rvlbm.config import default_k_samples
from rvlbm.equivalent import henon_sigma
import rvlbm.equivalent as equivalent
from rvlbm.errors import (
    MismatchBeyondTolerance,
    NonConstantShift,
    OrderUnavailable,
    ValidationError,
)


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


class TestDifferentialOperator:
    def test_zero_coefficients_dropped(self):
        op = DifferentialOperator.from_terms(1, {(1,): 0.0, (2,): 3.0})
        assert op.terms == (((2,), 3.0),)

    def test_addition_merges(self):
        a = DifferentialOperator.from_terms(1, {(1,): 2.0})
        b = DifferentialOperator.from_terms(1, {(1,): -2.0, (2,): 1.0})
        assert (a + b).terms == (((2,), 1.0),)

    def test_composition_adds_exponents(self):
        dx = DifferentialOperator.partial(2, 0)
        dy = DifferentialOperator.partial(2, 1)
        assert (dx @ dy).terms == (((1, 1), 1.0),)

    def test_composition_bilinear(self):
        a = DifferentialOperator.from_terms(1, {(1,): 2.0, (2,): 1.0})
        b = DifferentialOperator.from_terms(1, {(1,): 3.0})
        assert (a @ b).coefficient((2,)) == 6.0
        assert (a @ b).coefficient((3,)) == 3.0

    def test_symbol(self):
        op = DifferentialOperator.from_terms(1, {(2,): 0.5})
        k = np.array([2.0])
        assert op.symbol(k) == pytest.approx((1j * 2.0) ** 2 * 0.5)

    def test_gradient_dot(self):
        op = DifferentialOperator.gradient_dot(2, (3.0, -1.0))
        assert op.coefficient((1, 0)) == 3.0
        assert op.coefficient((0, 1)) == -1.0

    def test_scalar_multiplication(self):
        op = 2.5 * DifferentialOperator.partial(1, 0)
        assert op.coefficient((1,)) == 2.5

    def test_str_names_axes(self):
        op = DifferentialOperator.from_terms(2, {(1, 2): 1.5})
        assert "xyy" in str(op) or "∂xyy" in str(op)


class TestSpectralApply:
    def test_mixed_operator_on_2d_periodic_grid(self):
        # 0.5 ∂xx - 1.5 ∂xyy + 2 ∂y on a 16 x 12 grid over [0, 2π) x [0, 3π)
        op = DifferentialOperator.from_terms(2, {(2, 0): 0.5, (1, 2): -1.5, (0, 1): 2.0})
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
        out = spectral_apply(op, np.cos(phase), box)
        assert out.shape == (16, 12) and np.isrealobj(out)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-10)

        wave = np.exp(1j * phase)
        out = spectral_apply(op, wave, box)
        assert np.iscomplexobj(out)
        np.testing.assert_allclose(out, op.symbol(np.array([kx, ky])) * wave, rtol=0, atol=1e-10)

    def test_one_dimensional_with_constant_term(self):
        # (0.3 + ∂x - 0.25 ∂xxx) sin(3x) = 0.3 sin(3x) + 9.75 cos(3x)
        op = DifferentialOperator.from_terms(1, {(0,): 0.3, (1,): 1.0, (3,): -0.25})
        x = np.arange(24) * 2 * np.pi / 24
        out = spectral_apply(op, np.sin(3 * x), (2 * np.pi,))
        np.testing.assert_allclose(
            out, 0.3 * np.sin(3 * x) + 9.75 * np.cos(3 * x), rtol=0, atol=1e-10
        )


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
    def theta(self, spec):
        c = advection_vector(spec)
        a0 = -DifferentialOperator.gradient_dot(spec.dim, c)
        return conservation_defaults(spec, a0)

    def test_theta_zero_vanishes(self):
        for spec in (d1q2_spec(), d1q3_spec(u=0.3), d2q5_spec()):
            assert self.theta(spec)[0].is_zero()

    def test_d1q2_momentum_default(self):
        # theta_1 at order 0 is (lambda^2 - c^2) d_x
        spec = d1q2_spec(c=0.5)
        op = self.theta(spec)[1]
        assert op.terms == (((1,), pytest.approx(1.0 - 0.25)),)

    def test_order0_matches_velocity_fluctuation_sum(self):
        spec = d1q3_spec(u=0.2)
        theta = self.theta(spec)
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
            assert theta[k].coefficient((1,)) == pytest.approx(expected, abs=1e-14)


class TestDeriveEquivalentEquation:
    def test_d1q2_diffusion_coefficient(self):
        eq = derive_equivalent_equation(d1q2_spec(c=0.5, s1=1.0), 2)
        assert eq.ops[1].coefficient((2,)) == pytest.approx(0.375, abs=1e-14)

    def test_sigma_zero_kills_first_order(self):
        with pytest.warns(UserWarning):
            spec = d1q3_spec(s=(0.0, 2.0, 2.0))
        eq = derive_equivalent_equation(spec, 3)
        assert eq.ops[1].is_zero()

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
        assert eq.ops[2].is_zero()

    def test_asymmetric_d1q3_dispersion_matches_oracle(self):
        spec = d1q3_spec()
        eq = derive_equivalent_equation(spec, 3)
        assert [exps for exps, _ in eq.ops[2].terms] == [(3,)]
        k = np.array([1.3])
        series = extract_symbol_series(spec, k, geometric_dt_sequence(0.05 / 1.3, 10))
        assert eq.ops[2].symbol(k) == pytest.approx(series.mu2, rel=1e-5, abs=1e-9)

    def test_unsupported_order(self):
        with pytest.raises(OrderUnavailable):
            derive_equivalent_equation(d1q2_spec(), 4)

    def test_sine_shift_rejected(self):
        spec = replace(d1q3_spec(), u_tilde=VelocityShift.sine((0.1,)))
        with pytest.raises(NonConstantShift):
            derive_equivalent_equation(spec, 3)

    def test_tensors_symmetric(self):
        eq = derive_equivalent_equation(d2q5_spec(u=(0.2, 0.1)), 3)
        np.testing.assert_array_equal(eq.D, eq.D.T)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            np.testing.assert_array_equal(eq.T, np.transpose(eq.T, perm))

    def test_lambda_scaling_of_diffusion(self):
        # with c = 0 the diffusion coefficient is sigma lambda^2
        for lam in (1.0, 2.0):
            eq = derive_equivalent_equation(d1q2_spec(c=0.0, s1=1.0, lam=lam), 2)
            assert eq.ops[1].coefficient((2,)) == pytest.approx(0.5 * lam**2)


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
        # 3 swept schemes at order 3 and transition_prediction's order 2; the
        # crosscheck's zero-shift scheme is the sweep's u = 0 member.  Small
        # grids keep the refinement study cheap; they derive nothing.
        cfg = load_config(reference_config("d2q5"))
        verify_report(replace(cfg, grids=(16, 32, 64)))
        assert derivations() == 4

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
        ("d1q2", 0.0, 43), ("d1q2", 0.2, 43),
        ("d1q3", 0.0, 55), ("d1q3", 0.2, 55),
        ("d2q5", 0.0, 121), ("d2q5", 0.2, 121),
    ])
    def test_polynomials_built_per_third_order_derivation(self, derivations, monkeypatch,
                                                          name, u, built):
        # each transport operator A_0 + v_j . grad and each partial is built
        # once, theta once at the scheme's shift, and each group is summed in
        # one canonicalization; the Delta-term correction reads c_b, so the
        # count is the same at every shift.  A derivation that rebuilt them per
        # use and added term by term built 90, 120 and 292
        spec = load_config(reference_config(name)).spec
        lam = spec.vset.lam
        spec = replace(spec, u_tilde=VelocityShift.zero() if u == 0.0
                       else VelocityShift.constant((u * lam,) * spec.dim))
        spec.moment_matrix
        count = []
        init = MomentPolynomial.__post_init__
        monkeypatch.setattr(MomentPolynomial, "__post_init__",
                            lambda self: count.append(1) or init(self))
        derive_equivalent_equation(spec, 3)
        assert len(count) == built


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
        assert abs(a.ops[2].coefficient((3,)) - b.ops[2].coefficient((3,))) > 1e-6


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

    def test_detects_corruption(self):
        # push the tolerance to an impossible level: the report must raise
        with pytest.raises(MismatchBeyondTolerance):
            dhumieres_crosscheck(d1q3_spec(), rtol=1e-18)


class TestTransitionPrediction:
    def test_order_two_is_order_zero_theta(self):
        spec = d1q3_spec()
        pred2 = transition_prediction(spec, 2)
        pred3 = transition_prediction(spec, 3)
        for k in range(1, 3):
            diff = pred2.xi[k][0] - pred3.xi[k][0]
            assert diff.max_abs_coefficient() <= 1e-15
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
        assert pred.xi[0][0].is_zero()

    def test_unsupported_order(self):
        with pytest.raises(OrderUnavailable):
            transition_prediction(d1q3_spec(), 4)
