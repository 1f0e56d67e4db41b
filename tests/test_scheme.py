import tracemalloc
import weakref

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from rvlbm import (
    MomentPolynomial,
    SchemeSpec,
    VelocitySet,
    VelocityShift,
    build_moment_matrix,
    collide,
    equilibrium_state,
    fourier_mode_state,
    load_config,
    make_state,
    reference_config,
    run,
    sine_density,
    step,
    stream,
)
from rvlbm.lattice import default_basis
from rvlbm.scheme import density, moment_field
from rvlbm import scheme
from rvlbm.errors import DimensionMismatch, NonConstantShift, SingularMatrix, ValidationError


def d1q2_spec(c=0.5, s1=1.5, u=None):
    vset = VelocitySet(1, 1.0, ((1,), (-1,)))
    shift = VelocityShift.zero() if u is None else VelocityShift.constant((u,))
    return SchemeSpec(vset, default_basis(vset), (0.0, s1), ((1 + c) / 2, (1 - c) / 2), shift)


def d1q3_spec(s=(0.0, 1.2, 1.6), e=(0.5, 0.3, 0.2), u=None):
    vset = VelocitySet(1, 1.0, ((0,), (1,), (-1,)))
    basis = (
        MomentPolynomial.constant(1),
        MomentPolynomial.coordinate(1, 0),
        MomentPolynomial.from_terms(1, {(2,): 1.0}),
    )
    shift = VelocityShift.zero() if u is None else VelocityShift.constant((u,))
    return SchemeSpec(vset, basis, s, e, shift)


def cubic_d1q3_spec(amplitude):
    """d1q3 with basis (1, x, x^3), whose M(u) is singular exactly at u = 0."""
    vset = VelocitySet(1, 1.0, ((0,), (1,), (-1,)))
    basis = (
        MomentPolynomial.constant(1),
        MomentPolynomial.coordinate(1, 0),
        MomentPolynomial.from_terms(1, {(3,): 1.0}),
    )
    return SchemeSpec(vset, basis, (0.0, 1.2, 1.6), (0.5, 0.3, 0.2),
                      VelocityShift.sine((amplitude,)))


class TestSpecValidation:
    def test_conserved_rate_must_vanish(self):
        vset = VelocitySet(1, 1.0, ((1,), (-1,)))
        with pytest.raises(ValidationError, match=r"s\[0\] must be 0"):
            SchemeSpec(vset, default_basis(vset), (0.1, 1.5), (0.75, 0.25))

    def test_equilibrium_must_sum_to_one(self):
        vset = VelocitySet(1, 1.0, ((1,), (-1,)))
        with pytest.raises(ValidationError):
            SchemeSpec(vset, default_basis(vset), (0.0, 1.5), (0.8, 0.4))

    def test_out_of_range_rate_warns(self):
        with pytest.warns(UserWarning, match="outside"):
            d1q2_spec(s1=2.5)

    def test_rate_warning_names_the_caller(self):
        vset = VelocitySet(1, 1.0, ((1,), (-1,)))
        with pytest.warns(UserWarning, match="outside") as record:
            SchemeSpec(vset, default_basis(vset), (0.0, 2.5), (0.75, 0.25))
        assert record[0].filename == __file__

    def test_rate_two_exactly_warns_but_constructs(self):
        # the boundary value sigma = 0 is legal; stability is the user's business
        with pytest.warns(UserWarning, match="outside"):
            spec = d1q2_spec(s1=2.0)
        assert spec.s[1] == 2.0

    def test_wrong_rate_count(self):
        vset = VelocitySet(1, 1.0, ((1,), (-1,)))
        with pytest.raises(DimensionMismatch):
            SchemeSpec(vset, default_basis(vset), (0.0, 1.5, 1.0), (0.75, 0.25))

    def test_shift_dimension_checked(self):
        vset = VelocitySet(1, 1.0, ((1,), (-1,)))
        with pytest.raises(DimensionMismatch):
            SchemeSpec(
                vset,
                default_basis(vset),
                (0.0, 1.5),
                (0.75, 0.25),
                VelocityShift.constant((0.1, 0.2)),
            )

    def test_sine_shift_has_no_constant_vector(self):
        shift = VelocityShift.sine((0.1,))
        with pytest.raises(NonConstantShift):
            shift.constant_vector(1)

    def test_moment_matrix_built_once_per_spec(self):
        spec = d1q3_spec(u=0.1)
        assert spec.moment_matrix is spec.moment_matrix
        expected = build_moment_matrix(spec.basis, spec.vset, (0.1,))
        np.testing.assert_array_equal(spec.moment_matrix.m, expected.m)
        np.testing.assert_array_equal(spec.moment_matrix.m_inv, expected.m_inv)

    def test_relaxation_operator_built_once_per_spec(self, monkeypatch):
        calls = []
        build = scheme._relaxation_operator
        monkeypatch.setattr(scheme, "_relaxation_operator",
                            lambda *args: calls.append(args) or build(*args))
        spec = d1q3_spec(u=0.1)
        state = equilibrium_state(spec, (16,), (1.0,), sine_density((16,), (1.0,), 1.0, 0.1, (1,)))
        for _ in range(3):
            step(state, spec)
        collide(state, spec)
        moment_field(state, spec)
        assert len(calls) == 1
        k = scheme._shift_matrices(spec, (16,), (1.0,)).k
        assert not k.flags.writeable
        np.testing.assert_array_equal(k, build(spec, spec.moment_matrix.m))

    def test_sine_spec_has_no_moment_matrix(self):
        spec = replace(d1q3_spec(), u_tilde=VelocityShift.sine((0.1,)))
        with pytest.raises(NonConstantShift):
            spec.moment_matrix


def one_cell(spec, f):
    """A single-cell state holding the distributions f."""
    f = np.asarray(f, dtype=float).reshape((spec.q,) + (1,) * spec.dim)
    return make_state(spec.vset, (1,) * spec.dim, (1.0,) * spec.dim, f)


def cell_moments(spec, f):
    return moment_field(one_cell(spec, f), spec).reshape(spec.q)


class TestMoments:
    def test_d1q2_product(self):
        np.testing.assert_allclose(cell_moments(d1q2_spec(), [0.6, 0.4]), [1.0, 0.2])

    def test_component_zero_is_density(self):
        f = np.array([0.1, 0.7, 0.2])
        result = cell_moments(d1q3_spec(u=0.3), f)
        assert result[0] == pytest.approx(f.sum(), abs=1e-14)

    def test_d1q3_product(self):
        np.testing.assert_allclose(cell_moments(d1q3_spec(), [0.2, 0.5, 0.3]), [1.0, 0.2, 0.8])

    def test_equilibrium_moments_zero_density(self):
        spec = d1q2_spec(c=0.5)
        state = equilibrium_state(spec, (4,), (1.0,), 0.0)
        np.testing.assert_array_equal(moment_field(state, spec), np.zeros((2, 4)))

    def test_equilibrium_moments_rest_frame(self):
        spec = d1q2_spec(c=0.5)
        state = equilibrium_state(spec, (4,), (1.0,), 1.0)
        np.testing.assert_allclose(moment_field(state, spec), [[1.0] * 4, [0.5] * 4])

    def test_equilibrium_moments_shifted_frame(self):
        spec = d1q2_spec(c=0.5, u=0.2)
        state = equilibrium_state(spec, (4,), (1.0,), 1.0)
        np.testing.assert_allclose(moment_field(state, spec), [[1.0] * 4, [0.3] * 4])

    @given(st.floats(min_value=-0.5, max_value=0.5), st.floats(min_value=0.1, max_value=3.0))
    def test_equilibrium_moments_via_conjugation(self, u, rho):
        # R(u) = M(u) M(0)^-1 carries rest-frame equilibrium moments to the shifted frame
        spec = d1q3_spec(u=u)
        m_u = build_moment_matrix(spec.basis, spec.vset, (u,))
        m_0 = build_moment_matrix(spec.basis, spec.vset, (0.0,))
        r = m_u.m @ m_0.m_inv
        e = np.array(spec.equilibrium)
        direct = moment_field(equilibrium_state(spec, (1,), (1.0,), rho), spec).ravel()
        np.testing.assert_allclose(direct, r @ (m_0.m @ e) * rho, atol=1e-12)


class TestRelax:
    """collide relaxes each moment: m* = m + s (m_eq - m), with m_eq = M(u) E rho."""

    def test_example(self):
        spec = d1q2_spec(c=0.0, s1=1.5)
        out = collide(one_cell(spec, [0.6, 0.4]), spec)
        np.testing.assert_allclose(moment_field(out, spec).ravel(), [1.0, -0.1])

    def test_full_relaxation(self):
        spec = d1q3_spec(s=(0.0, 1.0, 1.0))
        # moments (1.0, 0.4, -0.2); m_eq = (1.0, 0.1, 0.5) for E = (0.5, 0.3, 0.2)
        out = collide(one_cell(spec, [1.2, 0.1, -0.3]), spec)
        np.testing.assert_allclose(moment_field(out, spec).ravel(), [1.0, 0.1, 0.5],
                                   rtol=1e-15, atol=1e-16)

    @given(st.floats(min_value=0.1, max_value=1.9))
    def test_equilibrium_fixed_point(self, s1):
        spec = d1q2_spec(s1=s1)
        state = equilibrium_state(spec, (3,), (1.0,), 1.0)
        np.testing.assert_allclose(collide(state, spec).f, state.f, rtol=0, atol=1e-16)

    def test_conserved_component_untouched(self):
        # far from equilibrium: the moment delta carries no density component
        spec = d1q2_spec(c=0.5, s1=1.3)
        out = collide(one_cell(spec, [2.5, -0.5]), spec)
        assert moment_field(out, spec)[0, 0] == pytest.approx(2.0, rel=1e-15)


def _sine_shift_cells(grid, box, amplitude):
    """Per-cell shift amplitude_a sin(2 pi x_a / L_a) at the nodes x_a = i_a L_a / n_a."""
    for cell in np.ndindex(*grid):
        yield cell, tuple(
            a * np.sin(2.0 * np.pi * (i * length / n) / length)
            for a, i, n, length in zip(amplitude, cell, grid, box)
        )


class TestPostCollision:
    def test_roundtrip(self):
        m = build_moment_matrix(d1q3_spec().basis, d1q3_spec().vset, (0.1,))
        f = np.array([0.3, 0.5, 0.2])
        np.testing.assert_allclose(m.m_inv @ (m.m @ f), f, atol=1e-12)

    def test_d1q2_example(self):
        # m = (1.0, 0.2) relaxes to m* = (1.0, -0.1), which maps back to (0.45, 0.55)
        spec = d1q2_spec(c=0.0, s1=1.5)
        out = collide(one_cell(spec, [0.6, 0.4]), spec)
        np.testing.assert_allclose(out.f.ravel(), [0.45, 0.55])

    def test_zero_maps_to_zero(self):
        spec = d1q2_spec()
        out = collide(one_cell(spec, [0.0, 0.0]), spec)
        np.testing.assert_array_equal(out.f.ravel(), [0.0, 0.0])

    @pytest.mark.parametrize("grid", [(7,), (3, 4)])
    def test_stacked_matrices_match_per_cell_products(self, grid):
        # sine shift: collide and moment_field against a plain loop over cells,
        # one build_moment_matrix per cell at that cell's shift
        if len(grid) == 1:
            vset = VelocitySet(1, 1.0, ((0,), (1,), (-1,)))
            basis = default_basis(vset)
            s, e = (0.0, 1.2, 1.6), (0.5, 0.3, 0.2)
        else:
            vset = VelocitySet(2, 1.0, ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)))
            basis = default_basis(vset)[:3] + (
                MomentPolynomial.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0}),
                MomentPolynomial.from_terms(2, {(2, 0): 1.0, (0, 2): -1.0}),
            )
            s, e = (0.0, 1.3, 1.1, 1.5, 0.9), (0.4, 0.2, 0.15, 0.15, 0.1)
        amplitude = (0.3, -0.2)[: vset.dim]
        spec = SchemeSpec(vset, basis, s, e, VelocityShift.sine(amplitude))
        box = tuple(0.5 * n for n in grid)
        f = np.random.default_rng(5).uniform(0.1, 1.0, size=(vset.q,) + grid)
        state = make_state(vset, grid, box, f.copy())
        moments = moment_field(state, spec)
        collided = collide(state, spec).f
        assert moments.shape == collided.shape == f.shape
        for cell, u in _sine_shift_cells(grid, box, amplitude):
            mm = build_moment_matrix(basis, vset, u)
            at = (slice(None),) + cell
            m = mm.m @ f[at]
            m_star = m + np.array(s) * ((mm.m @ np.array(e)) * f[at].sum() - m)
            np.testing.assert_allclose(moments[at], m, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(collided[at], mm.m_inv @ m_star, rtol=1e-14, atol=1e-15)


class TestStream:
    def test_uniform_unchanged(self):
        spec = d1q2_spec()
        state = equilibrium_state(spec, (16,), (1.0,), 1.0)
        out = stream(state, spec.vset)
        np.testing.assert_array_equal(out.f, state.f)

    def test_single_cell_moves_right(self):
        spec = d1q2_spec()
        f = np.zeros((2, 8))
        f[0, 3] = 1.0
        state = make_state(spec.vset, (8,), (1.0,), f)
        out = stream(state, spec.vset)
        assert out.f[0, 4] == 1.0 and out.f[0, 3] == 0.0

    def test_wraparound(self):
        spec = d1q2_spec()
        f = np.zeros((2, 4))
        f[1, 0] = 1.0  # velocity -1 moves left
        state = make_state(spec.vset, (4,), (1.0,), f)
        out = stream(state, spec.vset)
        assert out.f[1, 3] == 1.0

    def test_n_steps_is_identity(self):
        spec = d1q3_spec()
        rng = np.random.default_rng(3)
        f = rng.uniform(0.1, 1.0, (3, 12))
        state = make_state(spec.vset, (12,), (1.0,), f.copy())
        for _ in range(12):
            state = stream(state, spec.vset)
        np.testing.assert_array_equal(state.f, f)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25)
    def test_mass_exactly_conserved(self, seed):
        spec = d1q3_spec()
        rng = np.random.default_rng(seed)
        f = rng.uniform(0.0, 1.0, (3, 10))
        state = make_state(spec.vset, (10,), (1.0,), f.copy())
        out = stream(state, spec.vset)
        # streaming permutes values, so even the multiset is preserved
        np.testing.assert_array_equal(np.sort(out.f, axis=None), np.sort(f, axis=None))


class TestStep:
    def test_uniform_equilibrium_fixed_point(self):
        for u in (None, 0.2):
            spec = d1q3_spec(u=u)
            state = equilibrium_state(spec, (16,), (1.0,), 2.0)
            out = run(state, spec, 5)
            np.testing.assert_allclose(out.f, state.f, atol=1e-14)

    def test_mass_conserved_over_thousand_steps(self):
        spec = d1q3_spec(u=0.1)
        rho = sine_density((32,), (1.0,), 1.0, 0.3, (1,))
        state = equilibrium_state(spec, (32,), (1.0,), rho)
        total = state.f.sum()
        out = run(state, spec, 1000)
        assert abs(out.f.sum() - total) <= 1e-13 * abs(total)

    def test_grid_speed_mismatch_rejected(self):
        spec = d1q2_spec()
        state = equilibrium_state(spec, (16,), (1.0,), 1.0)
        bad = replace(state, dt=state.dt * 2)
        with pytest.raises(ValidationError):
            step(bad, spec)

    def test_matches_classical_mrt_at_zero_shift(self):
        # independently coded collide-stream, plain loops, same basis
        spec = d1q3_spec()
        n = 16
        rho = sine_density((n,), (1.0,), 1.0, 0.1, (1,))
        state = equilibrium_state(spec, (n,), (1.0,), rho)

        m_mat = build_moment_matrix(spec.basis, spec.vset, (0.0,)).m
        m_inv = np.linalg.inv(m_mat)
        e = np.array(spec.equilibrium)
        s = np.array(spec.s)
        f = state.f.copy()
        for _ in range(20):
            f_star = np.empty_like(f)
            for i in range(n):
                m = m_mat @ f[:, i]
                m_eq = (m_mat @ e) * f[:, i].sum()
                m_star = m + s * (m_eq - m)
                f_star[:, i] = m_inv @ m_star
            f_new = np.empty_like(f)
            for j, (v,) in enumerate(spec.vset.lattice_vectors):
                for i in range(n):
                    f_new[j, i] = f_star[j, (i - v) % n]
            f = f_new

        out = run(state, spec, 20)
        np.testing.assert_allclose(out.f, f, atol=1e-13)

    def test_shifted_frame_equals_rest_frame_at_equal_rates(self):
        # with all rates equal the relaxation matrix commutes with the frame change
        rho = sine_density((24,), (1.0,), 1.0, 0.2, (1,))
        out = {}
        for u in (None, 0.3):
            spec = d1q3_spec(s=(0.0, 1.4, 1.4), u=u)
            state = equilibrium_state(spec, (24,), (1.0,), rho)
            out[u] = run(state, spec, 10).f
        np.testing.assert_allclose(out[0.3], out[None], atol=1e-12)

    def test_sine_shift_runs_and_conserves_mass(self):
        spec = d1q3_spec()
        spec = replace(spec, u_tilde=VelocityShift.sine((0.2,)))
        rho = sine_density((32,), (1.0,), 1.0, 0.1, (1,))
        state = equilibrium_state(spec, (32,), (1.0,), rho)
        total = state.f.sum()
        out = run(state, spec, 50)
        assert abs(out.f.sum() - total) <= 1e-13 * abs(total)

    def test_d2q5_sine_shift_conserves_mass(self):
        # the 2-D per-cell path at the bound of the acceptance criterion, as CI's installed-package check
        spec, state = _sine_case(_d2q5(VelocityShift.sine((0.1, 0.05))), (32, 32))
        total = state.f.sum()
        out = run(state, spec, 200)
        assert abs(out.f.sum() - total) <= 1e-13 * abs(total)

    def test_singular_cell_raises_typed_error(self):
        # the sine shift vanishes at cell 0, where M(u) has two equal rows
        spec = cubic_d1q3_spec(0.2)
        state = equilibrium_state(spec, (16,), (1.0,), 1.0)
        with pytest.raises(SingularMatrix):
            collide(state, spec)

    def test_sine_shift_matches_per_cell_loop(self):
        # independently coded: M(u(x)) from the basis terms at each cell, np.linalg.inv, plain loops
        spec = replace(d1q3_spec(), u_tilde=VelocityShift.sine((0.2,)))
        n = 16
        rho = sine_density((n,), (1.0,), 1.0, 0.1, (1,))
        state = equilibrium_state(spec, (n,), (1.0,), rho)

        def moment_matrix(u):
            return np.array([[sum(coef * (v - u) ** exps[0] for exps, coef in p.terms)
                              for (v,) in spec.vset.velocities] for p in spec.basis])

        cells = [moment_matrix(0.2 * np.sin(2.0 * np.pi * i / n)) for i in range(n)]
        e = np.array(spec.equilibrium)
        s = np.array(spec.s)
        f = state.f.copy()
        for _ in range(20):
            f_star = np.empty_like(f)
            for i, m_mat in enumerate(cells):
                m = m_mat @ f[:, i]
                m_eq = (m_mat @ e) * f[:, i].sum()
                f_star[:, i] = np.linalg.inv(m_mat) @ (m + s * (m_eq - m))
            f_new = np.empty_like(f)
            for j, (v,) in enumerate(spec.vset.lattice_vectors):
                for i in range(n):
                    f_new[j, i] = f_star[j, (i - v) % n]
            f = f_new

        np.testing.assert_allclose(run(state, spec, 20).f, f, rtol=0, atol=1e-13)

    def test_collide_leaves_density_pointwise(self):
        spec = d1q3_spec(u=0.2)
        rho = sine_density((16,), (1.0,), 1.0, 0.2, (1,))
        state = equilibrium_state(spec, (16,), (1.0,), rho)
        out = collide(state, spec)
        np.testing.assert_allclose(density(out.f), density(state.f), atol=1e-14)


def _sine_case(spec, grid):
    box = (1.0,) * len(grid)
    rho = sine_density(grid, box, 1.0, 0.2, (1,) * len(grid))
    return spec, equilibrium_state(spec, grid, box, rho)


def _fourier_case():
    spec = d1q3_spec(u=0.2)
    return spec, fourier_mode_state(spec, (16,), (1.0,), spec.equilibrium, (3,))


RUN_CASES = {
    "d1q2": lambda: _sine_case(d1q2_spec(u=0.1), (16,)),
    "d1q3": lambda: _sine_case(d1q3_spec(u=0.2), (16,)),
    "d1q3_fourier": _fourier_case,
    "d1q3_sine": lambda: _sine_case(replace(d1q3_spec(), u_tilde=VelocityShift.sine((0.2,))), (16,)),
    "d2q5": lambda: _sine_case(load_config(reference_config("d2q5")).spec, (8, 8)),
}


class TestRun:
    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_equals_repeated_collide_and_stream(self, name):
        spec, state = RUN_CASES[name]()
        ref = state
        for _ in range(7):
            ref = stream(collide(ref, spec), spec.vset)
        np.testing.assert_array_equal(run(state, spec, 7).f, ref.f)
        np.testing.assert_array_equal(step(state, spec).f, stream(collide(state, spec), spec.vset).f)

    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_input_state_untouched(self, name):
        spec, state = RUN_CASES[name]()
        before = state.f.copy()
        run(state, spec, 5)
        step(state, spec)
        np.testing.assert_array_equal(state.f, before)

    @pytest.mark.parametrize("name", sorted(RUN_CASES))
    def test_run_returns_an_array_of_its_own(self, name):
        # the collider's own f, not a view into a larger buffer
        spec, state = RUN_CASES[name]()
        f = run(state, spec, 3).f
        assert f.base is None and f.flags.owndata and f.flags.c_contiguous
        assert f.shape == state.f.shape and f.nbytes == state.f.nbytes

    def test_stream_matches_roll_on_wrapping_vectors(self):
        # vectors longer than the grid and with both axes nonzero exercise every block split
        vset = VelocitySet(2, 1.0, ((0, 0), (1, 0), (0, -1), (2, 3), (-5, 4), (4, -6)))
        f = np.random.default_rng(7).uniform(size=(vset.q, 4, 3))
        state = make_state(vset, (4, 3), (4.0, 3.0), f.copy())
        out = stream(state, vset)
        for j, n in enumerate(vset.lattice_vectors):
            np.testing.assert_array_equal(out.f[j], np.roll(f[j], shift=n, axis=(0, 1)))
        np.testing.assert_array_equal(state.f, f)

    def test_run_matches_collide_and_roll_on_wrapping_vectors(self):
        # run streams through views bound to its buffers once; np.roll shares
        # none of that, so a view bound to the wrong buffer shows after step 1
        vset = VelocitySet(2, 1.0, ((0, 0), (1, 0), (0, -1), (2, 3), (-5, 4), (4, -6)))
        rng = np.random.default_rng(11)
        e = rng.uniform(0.5, 1.0, vset.q)
        s = (0.0,) + tuple(rng.uniform(0.8, 1.6, vset.q - 1))
        spec = SchemeSpec(vset, default_basis(vset), s, tuple(e / e.sum()))
        state = make_state(vset, (4, 3), (4.0, 3.0), rng.uniform(size=(vset.q, 4, 3)))
        ref = state.f
        for _ in range(6):
            collided = collide(replace(state, f=ref), spec).f
            ref = np.stack([np.roll(collided[j], shift=n, axis=(0, 1))
                            for j, n in enumerate(vset.lattice_vectors)])
        np.testing.assert_array_equal(run(state, spec, 6).f, ref)

    def test_matrices_built_once_per_run(self, monkeypatch):
        calls = []
        build = scheme._shift_matrices

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(scheme, "_shift_matrices", counting)
        spec, state = RUN_CASES["d1q3"]()
        run(state, spec, 50)
        assert len(calls) == 1

    def test_collide_follows_a_complex_state(self):
        spec, state = _fourier_case()
        collided = collide(state, spec)
        assert collided.f.dtype == np.complex128
        np.testing.assert_array_equal(stream(collided, spec.vset).f, run(state, spec, 1).f)

    @pytest.mark.parametrize("shift", [VelocityShift.constant((0.1, -0.05)),
                                       VelocityShift.sine((0.1, 0.1))], ids=["constant", "sine"])
    def test_step_allocates_less_than_one_state(self, shift):
        spec = replace(load_config(reference_config("d2q5")).spec, u_tilde=shift)
        spec, state = _sine_case(spec, (64, 64))
        steps = scheme._advance(state, spec, 11)
        tracemalloc.start()
        try:
            next(steps)  # builds the matrices, the plan and the scratch
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in steps:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < state.f.nbytes

    def test_sine_operators_hold_few_arrays(self):
        # the build holds M(x), M(x)^-1 as inverted and in the cell-last layout,
        # and K(x): 4.36 (q, q, cells) stacks (6.36 with rest-frame differences);
        # the collider holds f, out and one K f block: 2.26 state arrays (2.51
        # with a block of per-cell products)
        n = 128
        spec, state = _sine_case(_d2q5(VelocityShift.sine((0.1, 0.1))), (n, n))
        scheme._field_matrices.cache_clear()  # so the build below is measured, not a cache hit
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scheme._field_matrices(spec, state.grid_sizes, state.box_lengths)
            build = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            scheme._Collider(spec, state)
            buffers = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert 1 < build / (spec.q * spec.q * n * n * 8) < 5
        assert buffers / state.f.nbytes < 2.4

    @pytest.mark.parametrize("steps", [-3, 2.7, -0.5, float("nan"), "3"])
    def test_bad_step_count_rejected(self, steps):
        spec, state = RUN_CASES["d1q2"]()
        with pytest.raises(ValidationError, match="steps must be a non-negative integer"):
            run(state, spec, steps)

    def test_zero_and_integral_step_counts(self):
        spec, state = RUN_CASES["d1q2"]()
        assert run(state, spec, 0) is state
        np.testing.assert_array_equal(run(state, spec, 3.0).f, run(state, spec, np.int64(3)).f)
        with pytest.raises(ValidationError, match="dx/dt"):
            run(replace(state, dt=state.dt * 2), spec, 0)


COMPLEX_CASES = {
    "d1q3_constant": lambda: (d1q3_spec(u=0.2), (16,)),
    "d2q5_constant": lambda: (replace(load_config(reference_config("d2q5")).spec,
                                      u_tilde=VelocityShift.constant((0.1, -0.05))), (8, 6)),
    "d1q3_sine": lambda: (replace(d1q3_spec(), u_tilde=VelocityShift.sine((0.2,))), (16,)),
}


def _complex_case(name):
    """A scheme and a read-only complex state with random real and imaginary parts."""
    spec, grid = COMPLEX_CASES[name]()
    rng = np.random.default_rng(5)
    f = rng.uniform(0.5, 1.0, (spec.q,) + grid) + 1j * rng.uniform(-0.5, 0.5, (spec.q,) + grid)
    f.setflags(write=False)
    box = tuple(float(n) for n in grid)  # unit spacing on every axis
    return spec, make_state(spec.vset, grid, box, f)


class TestComplexStates:
    """A real collision maps the real and imaginary parts each on their own, which
    is what lets a complex state collide as its float view."""

    @pytest.mark.parametrize("name", sorted(COMPLEX_CASES))
    def test_collide_and_run_act_on_real_and_imaginary_parts(self, name):
        spec, state = _complex_case(name)
        before = state.f.copy()
        real, imag = (replace(state, f=np.ascontiguousarray(part)) for part in (state.f.real, state.f.imag))
        for apply in (lambda s: collide(s, spec), lambda s: run(s, spec, 9)):
            got = apply(state).f
            assert got.dtype == np.complex128
            np.testing.assert_array_equal(got, apply(real).f + 1j * apply(imag).f)
        np.testing.assert_array_equal(state.f, before)

    @pytest.mark.parametrize("name", sorted(COMPLEX_CASES))
    def test_run_reads_a_fortran_ordered_state_once(self, name, monkeypatch):
        spec, state = _complex_case(name)
        fortran = np.asfortranarray(state.f)
        fortran.setflags(write=False)  # a write into the caller's array raises
        assert not fortran.flags.c_contiguous
        ordered = replace(state, f=fortran)
        want = run(state, spec, 9).f  # also fills the lazy matrix caches
        reads = []
        copyto = np.copyto
        monkeypatch.setattr(np, "copyto",
                            lambda dst, src, *args: reads.append(src is fortran) or copyto(dst, src, *args))
        np.testing.assert_array_equal(run(ordered, spec, 9).f, want)
        assert reads == [True]
        np.testing.assert_array_equal(collide(ordered, spec).f, collide(state, spec).f)
        np.testing.assert_array_equal(fortran, state.f)


def _reference_run(spec, state, steps):
    """f + M^-1 (K f) by np.matmul, then np.roll, without the collider or the stream plan.

    A complex state runs as its real and imaginary parts; a sine shift applies
    its per-cell K(x) and M(x)^-1 stacks by the same per-cell einsum.
    """
    if np.iscomplexobj(state.f):
        # filled part by part: real + 1j * imag would turn an imaginary -0.0 into +0.0
        out = np.empty(state.f.shape, complex)
        for part, values in ((out.real, state.f.real), (out.imag, state.f.imag)):
            part[...] = _reference_run(spec, replace(state, f=np.ascontiguousarray(values)), steps)
        return out
    ops = scheme._shift_matrices(spec, state.grid_sizes, state.box_lengths)
    apply = np.matmul if ops.k.ndim == 2 else lambda a, f: np.einsum("kjc,jc->kc", a, f)
    axes = tuple(range(state.dim))
    f = state.f.reshape(spec.q, -1)
    for _ in range(steps):
        collided = (f + apply(ops.m_inv, apply(ops.k, f))).reshape(state.f.shape)
        f = np.stack([np.roll(collided[j], shift=n, axis=axes)
                      for j, n in enumerate(spec.vset.lattice_vectors)]).reshape(spec.q, -1)
    return f.reshape(state.f.shape)


def _d2q5(shift=None):
    spec = load_config(reference_config("d2q5")).spec
    return spec if shift is None else replace(spec, u_tilde=shift)


# (spec, grid, Fourier mode or None for a sine density, steps, product the size rule
# picks, or None for a sine shift, which collides by per-cell einsums and no product)
SIZE_RULE_CASES = {
    "d1q2_64": (lambda: d1q2_spec(u=0.1), (64,), None, 40, np.dot),
    "d1q3_64": (lambda: d1q3_spec(u=0.2), (64,), None, 40, np.dot),
    "d1q3_fourier_64": (lambda: d1q3_spec(u=0.2), (64,), (3,), 40, np.dot),
    "d1q3_sine_64": (lambda: replace(d1q3_spec(), u_tilde=VelocityShift.sine((0.2,))),
                     (64,), None, 40, None),
    "d2q5_16": (lambda: _d2q5(VelocityShift.constant((0.1, -0.05))), (16, 16), None, 10, np.dot),
    "d2q5_32": (lambda: _d2q5(VelocityShift.constant((0.1, -0.05))), (32, 32), None, 10, np.matmul),
    "d2q5_64": (_d2q5, (64, 64), None, 5, np.matmul),
    "d2q5_fourier_32": (_d2q5, (32, 32), (1, 2), 5, np.matmul),
    "d2q5_sine_32": (lambda: _d2q5(VelocityShift.sine((0.1, 0.1))), (32, 32), None, 5, None),
}


class TestSizeRule:
    """np.dot and np.matmul reach the same gemm, so the collision is bit for bit
    the plain matmul arithmetic on both sides of DOT_MAX_ELEMENTS."""

    @pytest.mark.parametrize("name", sorted(SIZE_RULE_CASES))
    def test_run_and_collide_match_a_plain_matmul_loop(self, name, monkeypatch):
        make_spec, grid, mode, steps, product = SIZE_RULE_CASES[name]
        spec = make_spec()
        box = (1.0,) * len(grid)
        if mode is None:
            state = _sine_case(spec, grid)[1]
        else:
            state = fourier_mode_state(spec, grid, box, np.linspace(0.5, 1.0, spec.q), mode)
        with monkeypatch.context() as patch:
            calls = []
            for chosen in (np.dot, np.matmul):
                patch.setattr(np, chosen.__name__,
                              lambda *args, chosen=chosen: calls.append(chosen) or chosen(*args))
            scheme._Collider(spec, state).apply()
        assert calls == ([product, product] if product else [])
        np.testing.assert_array_equal(run(state, spec, steps).f, _reference_run(spec, state, steps))
        collided = stream(collide(state, spec), spec.vset).f
        np.testing.assert_array_equal(collided, _reference_run(spec, state, 1))


ZERO_WEIGHT_SHIFTS = {
    "zero": VelocityShift.zero(),
    "constant": VelocityShift.constant((0.2,)),
    "sine": VelocityShift.sine((0.2,)),
}


class TestSignedZeros:
    """The collision adds f after the product, as the reference does, so populations
    that are exactly 0 keep the reference's bits, the sign of each zero included."""

    @pytest.mark.parametrize("cells", [64, 2048], ids=["dot", "matmul"])
    @pytest.mark.parametrize("shift", sorted(ZERO_WEIGHT_SHIFTS))
    @pytest.mark.parametrize("e", [(0.5, 0.5, 0.0), (1.0, 0.0, 0.0)], ids=["one_zero", "two_zeros"])
    def test_run_matches_the_reference_as_uint64(self, e, shift, cells):
        assert (3 * cells <= scheme.DOT_MAX_ELEMENTS) == (cells == 64)
        grid, box = (cells,), (1.0,)
        for rate in (1.0, 2.0):
            spec = replace(d1q3_spec(s=(0.0, rate, rate), e=e), u_tilde=ZERO_WEIGHT_SHIFTS[shift])
            states = (
                equilibrium_state(spec, grid, box, sine_density(grid, box, 1.0, 0.2, (1,))),
                fourier_mode_state(spec, grid, box, (1.0, -0.0, -0.0), (3,)),
            )
            for state in states:
                assert np.any(state.f == 0)
                got, want = run(state, spec, 20).f, _reference_run(spec, state, 20)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))



def _signed_zero_d1q3(cells):
    """d1q3 with a zero weight on a Fourier state whose zero populations are -0.0."""
    spec = d1q3_spec(s=(0.0, 1.0, 1.0), e=(0.5, 0.5, 0.0))
    return spec, fourier_mode_state(spec, (cells,), (1.0,), (1.0, -0.0, -0.0), (3,))


# states of more than one block of cells: (scheme and state, steps); 129^2 = 16,641
# cells is 4 whole blocks and one of 257, and 5,000 d1q3 cells one whole and one of 904
BLOCK_CASES = {
    "d2q5_129": (lambda: _sine_case(_d2q5(VelocityShift.constant((0.1, -0.05))), (129, 129)), 3),
    "d2q5_fourier_129": (lambda: (_d2q5(), fourier_mode_state(
        _d2q5(), (129, 129), (1.0, 1.0), np.linspace(0.5, 1.0, 5), (1, 2))), 3),
    "d2q5_sine_129": (lambda: _sine_case(_d2q5(VelocityShift.sine((0.1, 0.1))), (129, 129)), 3),
    "d1q3_zero_weight_5000": (lambda: _sine_case(d1q3_spec(e=(0.5, 0.5, 0.0)), (5000,)), 5),
    "d1q3_signed_zeros_5000": (lambda: _signed_zero_d1q3(5000), 5),
    "d1q3_sine_signed_zeros_5000": (lambda: (
        replace(_signed_zero_d1q3(5000)[0], u_tilde=VelocityShift.sine((0.2,))),
        _signed_zero_d1q3(5000)[1]), 5),
}


class TestCollisionBlocks:
    """A state of more than BLOCK_CELLS cells collides block by block, and each
    output element is still the same q-term product: run and collide keep the
    plain matmul arithmetic bit for bit, signed zeros included."""

    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_run_and_collide_match_a_plain_matmul_loop(self, name, monkeypatch):
        make_case, steps = BLOCK_CASES[name]
        spec, state = make_case()
        cells = state.f[0].size
        assert cells > scheme.BLOCK_CELLS
        with monkeypatch.context() as patch:
            calls = []
            for chosen in (np.dot, np.matmul):
                patch.setattr(np, chosen.__name__,
                              lambda *args, chosen=chosen: calls.append(chosen) or chosen(*args))
            scheme._Collider(spec, state).apply()
        # two products per block, the last block shorter; a sine shift's blocks take none
        blocks = -(-cells // scheme.BLOCK_CELLS)
        assert calls == ([np.matmul] * 2 * blocks if spec.u_tilde.is_constant else [])
        got, want = run(state, spec, steps).f, _reference_run(spec, state, steps)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        collided = stream(collide(state, spec), spec.vset).f
        np.testing.assert_array_equal(collided.view(np.uint64), _reference_run(spec, state, 1).view(np.uint64))

    def test_zero_weight_cases_hold_zeros(self):
        for name in ("d1q3_zero_weight_5000", "d1q3_signed_zeros_5000", "d1q3_sine_signed_zeros_5000"):
            assert np.any(BLOCK_CASES[name][0]()[1].f == 0)

    def test_size_rule_cases_are_one_block(self):
        for make_spec, grid, *_ in SIZE_RULE_CASES.values():
            assert np.prod(grid) <= scheme.BLOCK_CELLS


class TestAdvanceReleasesInput:
    def test_an_input_only_the_loop_holds_is_freed_once_copied(self, monkeypatch):
        spec, state = _sine_case(_d2q5(), (16, 16))
        f = state.f.copy()
        alive = weakref.ref(f)
        updates = scheme._advance(replace(state, f=f), spec, 3)
        del f
        assert alive() is not None  # the unstarted loop still holds its argument
        seen = []
        stream_plan = scheme._stream
        monkeypatch.setattr(scheme, "_stream", lambda plan: seen.append(alive()) or stream_plan(plan))
        last = list(updates)[-1]
        assert seen == [None] * 3
        np.testing.assert_array_equal(last, run(state, spec, 3).f)

class TestStateHelpers:
    def test_density_examples(self):
        assert density(np.array([0.3, 0.5, 0.2])) == pytest.approx(1.0)
        assert density(np.zeros(3)) == 0.0

    def test_equilibrium_state_density(self):
        spec = d1q2_spec(c=0.3)
        state = equilibrium_state(spec, (8,), (2.0,), 1.5)
        np.testing.assert_allclose(density(state.f), np.full(8, 1.5))
        # E * rho is a fresh array even for a broadcast scalar rho: no copy is needed
        assert state.f.flags.owndata and state.f.flags.writeable and state.f.flags.c_contiguous

    def test_acoustic_scaling(self):
        spec = d1q2_spec()
        state = equilibrium_state(spec, (10,), (2.0,), 1.0)
        assert state.dx == pytest.approx(0.2)
        assert state.dt == pytest.approx(0.2 / spec.vset.lam)

    def test_fourier_mode_state_shape(self):
        spec = d1q3_spec()
        state = fourier_mode_state(spec, (8,), (1.0,), np.ones(3), (1,))
        assert state.f.shape == (3, 8)
        assert np.iscomplexobj(state.f)

    @pytest.mark.parametrize("grid,box", [((8,), (-1.0,)), ((8,), (0.0,)), ((8, 8), (-1.0, -1.0)),
                                          ((8, 8), (1.0, 0.0)), ((8,), (float("nan"),))],
                             ids=["negative", "zero", "2d_negative", "2d_zero", "nan"])
    def test_non_positive_box_length_rejected(self, grid, box):
        # a negative length gives equal negative spacings; it must not pass as a grid
        spec = load_config(reference_config("d2q5" if len(grid) == 2 else "d1q3")).spec
        with pytest.raises(ValidationError) as info:
            equilibrium_state(spec, grid, box)
        assert str(info.value) == f"box lengths must be positive, got {list(box)}"
        with pytest.raises(ValidationError, match="box lengths must be positive"):
            make_state(spec.vset, grid, box, np.ones((spec.q,) + grid))

    def test_make_state_shape_mismatch(self):
        spec = d1q2_spec()
        with pytest.raises(DimensionMismatch):
            make_state(spec.vset, (8,), (1.0,), np.zeros((3, 8)))


class TestSnapshot:
    def test_files_written(self, tmp_path):
        from rvlbm.experiments import save_snapshot

        spec = d1q2_spec()
        state = equilibrium_state(spec, (4,), (1.0,), 1.0)
        csv_path = tmp_path / "snap.csv"
        meta_path = tmp_path / "snap_meta.json"
        save_snapshot(state, spec, csv_path, meta_path, step_count=7)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + one row per cell
        import json

        meta = json.loads(meta_path.read_text())
        assert meta["step"] == 7
