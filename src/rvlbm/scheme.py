"""Scheme definition and the collide-and-stream update.

One update relaxes every non-conserved moment m = M(u) f toward the
equilibrium moments M(u) E rho, which is f + M(u)^-1 (K f) with the relaxation
operator K = S (M(u) E 1^T - M(u)), and streams each f_j by its integer
lattice vector on the periodic grid.  The density moment is conserved exactly
because s[0] = 0 makes row 0 of K zero.

A sine shift u(x) is the same update with each cell's own operators: the
moments follow the local frame, so a cell collides by M(u(x))^-1 and
K(u(x)) = S (M(u(x)) E 1^T - M(u(x))), built once per grid as per-cell stacks.

K and M(u)^-1 are real, so a complex state, such as a Fourier mode checked
against the amplification matrix, collides as its real and imaginary parts:
one collider per `run` or `collide` call applies the real operators to the
state's float view, and the per-step loop makes one call into it.  Either
shift collides through one block body, K f, M^-1 (K f) and + f, one block of
BLOCK_CELLS cells at a time; only the product differs, picked once: np.dot or
np.matmul for a constant shift's (q, q) operators, which reach the same BLAS
gemm, and a per-cell einsum for a sine shift's stacks, which calls no BLAS.
The simulator keeps this delta form, which conserves mass; only the Fourier
oracle multiplies it out, to I + M(u)^-1 K (SchemeSpec._collision_factor).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonConstantShift, ValidationError
from .lattice import MomentMatrix, MomentPolynomial, VelocitySet, build_moment_matrix, validate_basis

EQUILIBRIUM_SUM_TOL = 1e-12
SPACING_RTOL = 1e-9
# largest real (q, n) operand the collision multiplies through np.dot; above
# it np.matmul runs the same gemm faster (d2q5 breaks even near 32^2 = 5,120)
DOT_MAX_ELEMENTS = 4096
# cells per collision block: a larger state runs both products and the add one
# block of columns at a time, through one block-sized K f buffer (README table)
BLOCK_CELLS = 4096


@dataclass(frozen=True)
class VelocityShift:
    """Velocity shift u of the moment basis: zero, constant, or a sine field.

    The sine preset u_a(x) = value_a * sin(2 pi x_a / L_a) is available to the
    simulator only; the analyzer requires a constant shift, and
    constant_vector is the one place that rule is enforced.  A zero shift
    keeps no value; SchemeSpec checks the dimension of any other.
    """

    mode: str
    value: tuple[float, ...] = ()

    def __post_init__(self):
        if self.mode not in ("zero", "constant", "sine"):
            raise ValidationError(f"unknown shift mode {self.mode!r}")
        value = () if self.mode == "zero" else tuple(float(v) for v in self.value)
        for a, v in enumerate(value):
            if not math.isfinite(v):
                raise ValidationError(f"shift component value[{a}] = {v} is not finite")
        object.__setattr__(self, "value", value)

    @classmethod
    def zero(cls) -> "VelocityShift":
        return cls("zero")

    @classmethod
    def constant(cls, value) -> "VelocityShift":
        return cls("constant", tuple(value))

    @classmethod
    def sine(cls, amplitude) -> "VelocityShift":
        return cls("sine", tuple(amplitude))

    @property
    def is_constant(self) -> bool:
        return self.mode != "sine"

    def constant_vector(self, dim: int) -> tuple[float, ...]:
        """The shift as a (dim,) vector; a sine shift raises NonConstantShift."""
        if self.mode == "sine":
            raise NonConstantShift("the shift is a sine field; the analysis requires a constant shift")
        return self.value if self.mode == "constant" else (0.0,) * dim


@dataclass(frozen=True)
class SchemeSpec:
    """Full definition of a scheme: velocities, basis, rates, equilibrium, shift."""

    vset: VelocitySet
    basis: tuple[MomentPolynomial, ...]
    s: tuple[float, ...]
    equilibrium: tuple[float, ...]
    u_tilde: VelocityShift = VelocityShift.zero()

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "s", tuple(float(v) for v in self.s))
        object.__setattr__(self, "equilibrium", tuple(float(v) for v in self.equilibrium))
        q = self.vset.q
        validate_basis(self.basis, self.vset.dim, q)
        if len(self.s) != q:
            raise DimensionMismatch(f"relaxation vector has length {len(self.s)}, expected {q}")
        if len(self.equilibrium) != q:
            raise DimensionMismatch(
                f"equilibrium vector has length {len(self.equilibrium)}, expected {q}"
            )
        for name, values in (("relaxation rate s", self.s), ("equilibrium weight E", self.equilibrium)):
            for k, v in enumerate(values):
                if not math.isfinite(v):
                    raise ValidationError(f"{name}[{k}] = {v} is not finite")
        if self.s[0] != 0.0:
            raise ValidationError("s[0] must be 0")
        for k, sk in enumerate(self.s[1:], start=1):
            if not 0.0 < sk < 2.0:
                # level 2 is the dataclass-generated __init__; 3 is its caller
                warnings.warn(
                    f"relaxation rate s[{k}] = {sk:g} outside (0, 2)", stacklevel=3
                )
        total = sum(self.equilibrium)
        if abs(total - 1.0) > EQUILIBRIUM_SUM_TOL:
            raise ValidationError(f"equilibrium coefficients sum to {total!r}, expected 1")
        if self.u_tilde.mode != "zero" and len(self.u_tilde.value) != self.vset.dim:
            raise DimensionMismatch(
                f"shift has dimension {len(self.u_tilde.value)}, expected {self.vset.dim}"
            )

    @property
    def dim(self) -> int:
        return self.vset.dim

    @property
    def q(self) -> int:
        return self.vset.q

    @cached_property
    def moment_matrix(self) -> MomentMatrix:
        """M(u) at the constant shift, built on first use and kept with the spec.

        Raises NonConstantShift for a field shift.
        """
        return build_moment_matrix(self.basis, self.vset, self.u_tilde.constant_vector(self.dim))

    @cached_property
    def _constant_collision(self) -> "_Collision":
        """M(u), K and M(u)^-1 at the constant shift, built on first use, read-only."""
        matrix = self.moment_matrix
        k = _relaxation_operator(self, matrix.m)
        k.setflags(write=False)
        return _Collision(matrix.m, k, matrix.m_inv)

    @cached_property
    def _collision_factor(self) -> np.ndarray:
        """One collision at the constant shift as a q x q matrix, I + M(u)^-1 K,
        from the simulator's own operators; built on first use, read-only."""
        ops = self._constant_collision
        c = np.eye(self.q) + ops.m_inv @ ops.k
        c.setflags(write=False)
        return c


@dataclass(frozen=True)
class StateField:
    """Distributions on a periodic grid, stored per velocity: f has shape (q, *grid)."""

    grid_sizes: tuple[int, ...]
    box_lengths: tuple[float, ...]
    dx: float
    dt: float
    f: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.grid_sizes)


def cell_centers(grid_sizes, box_lengths) -> np.ndarray:
    """Node coordinates x_a = i_a * dx_a, shape (dim, *grid_sizes)."""
    axes = [
        np.arange(n) * (length / n) for n, length in zip(grid_sizes, box_lengths)
    ]
    return np.stack(np.meshgrid(*axes, indexing="ij"))


def _grid_spacing(grid_sizes, box_lengths) -> float:
    """The common dx of the grid; box lengths must be positive and dx equal on every axis."""
    if not all(length > 0 for length in box_lengths):
        raise ValidationError(f"box lengths must be positive, got {list(box_lengths)}")
    spacings = [length / n for n, length in zip(grid_sizes, box_lengths)]
    dx = spacings[0]
    for s in spacings[1:]:
        if abs(s - dx) > SPACING_RTOL * dx:
            raise ValidationError(f"grid spacing differs across axes: {spacings}")
    return dx


def make_state(vset: VelocitySet, grid_sizes, box_lengths, f) -> StateField:
    """Wrap distributions into a state; dt follows from dx / lam."""
    grid_sizes = tuple(int(n) for n in grid_sizes)
    box_lengths = tuple(float(v) for v in box_lengths)
    if len(grid_sizes) != vset.dim or len(box_lengths) != vset.dim:
        raise DimensionMismatch("grid and box must have the scheme dimension")
    f = np.asarray(f)
    if f.shape != (vset.q,) + grid_sizes:
        raise DimensionMismatch(
            f"distributions have shape {f.shape}, expected {(vset.q,) + grid_sizes}"
        )
    dx = _grid_spacing(grid_sizes, box_lengths)
    return StateField(grid_sizes, box_lengths, dx, dx / vset.lam, f)


def equilibrium_state(spec: SchemeSpec, grid_sizes, box_lengths, rho=1.0) -> StateField:
    """State initialized at equilibrium, f_j = E_j rho."""
    grid_sizes = tuple(int(n) for n in grid_sizes)
    rho = np.broadcast_to(np.asarray(rho, dtype=float), grid_sizes)
    e = np.asarray(spec.equilibrium)
    f = e.reshape((spec.q,) + (1,) * len(grid_sizes)) * rho
    return make_state(spec.vset, grid_sizes, box_lengths, f)


def sine_density(grid_sizes, box_lengths, base: float, amplitude: float, mode) -> np.ndarray:
    """Plane sine wave rho(x) = base + amplitude * sin(2 pi sum_a m_a x_a / L_a)."""
    x = cell_centers(grid_sizes, box_lengths)
    phase = np.zeros(x.shape[1:])
    for a, (m_a, length) in enumerate(zip(mode, box_lengths)):
        phase += m_a * x[a] / length
    return base + amplitude * np.sin(2.0 * np.pi * phase)


def fourier_mode_state(spec: SchemeSpec, grid_sizes, box_lengths, weights, mode) -> StateField:
    """Complex state f_j(x) = w_j exp(i k.x) for an integer mode vector."""
    grid_sizes = tuple(int(n) for n in grid_sizes)
    x = cell_centers(grid_sizes, box_lengths)
    phase = np.zeros(x.shape[1:])
    for a, (m_a, length) in enumerate(zip(mode, box_lengths)):
        phase += 2.0 * np.pi * m_a * x[a] / length
    wave = np.exp(1j * phase)
    w = np.asarray(weights, dtype=complex)
    f = w.reshape((spec.q,) + (1,) * len(grid_sizes)) * wave
    return make_state(spec.vset, grid_sizes, box_lengths, f)


def density(f) -> float | np.ndarray:
    """Density rho = sum_j f_j; accepts a q-vector or a (q, *grid) array."""
    f = np.asarray(f)
    out = f.sum(axis=0)
    return out if out.ndim else out[()]


class _Collision(NamedTuple):
    """The operators of f -> f + M(u)^-1 (K f), with K = S (M(u) E 1^T - M(u)).

    For a constant shift m, k and m_inv are the (q, q) matrices M(u), K and
    M(u)^-1.  For a field shift they are the per-cell stacks M(x), K(x) and
    M(x)^-1 at u(x), of shape (q, q, cells), so the cell axis is the fastest:
    the per-cell einsum runs 2-3 times faster on that layout than on a
    C-ordered (cells, q, q) stack.  m is read by moment_field only.
    """

    m: np.ndarray
    k: np.ndarray
    m_inv: np.ndarray


def _relaxation_operator(spec: SchemeSpec, m: np.ndarray) -> np.ndarray:
    """K = S (m E 1^T - m) for a (q, q) m or a (q, q, cells) stack.

    K is linear in m, and its row 0 is exactly 0 because s_0 = 0.
    """
    me = np.einsum("kj...,j->k...", m, np.asarray(spec.equilibrium))
    k = np.subtract(me[:, None], m)
    k *= np.asarray(spec.s).reshape((spec.q,) + (1,) * (m.ndim - 1))
    return k


@lru_cache(maxsize=4)
def _field_matrices(spec: SchemeSpec, grid_sizes, box_lengths) -> _Collision:
    """A field shift's M(x), K(x) and M(x)^-1 at every cell, built once per grid.

    Each cell's operators are those of a constant shift at that cell's u(x):
    K(x) is _relaxation_operator of M(x), so its row 0 is exactly 0 as well.
    """
    x = cell_centers(grid_sizes, box_lengths)
    u = np.stack([v * np.sin(2.0 * np.pi * x[a] / box_lengths[a])
                  for a, v in enumerate(spec.u_tilde.value)]).reshape(spec.dim, -1)
    matrix = build_moment_matrix(spec.basis, spec.vset, u)
    m, m_inv = (np.ascontiguousarray(np.moveaxis(a, 0, -1)) for a in (matrix.m, matrix.m_inv))
    ops = _Collision(m, _relaxation_operator(spec, m), m_inv)  # each (q, q, cells)
    for a in ops:
        a.setflags(write=False)
    return ops


def _shift_matrices(spec: SchemeSpec, grid_sizes, box_lengths) -> _Collision:
    """The collision operators for the scheme's shift on this grid."""
    if spec.u_tilde.is_constant:
        return spec._constant_collision
    return _field_matrices(spec, grid_sizes, box_lengths)


class _Collider:
    """The collision f -> f + M(u)^-1 (K f) of one run, built once per `run` or `collide` call.

    It binds the real K and M(u)^-1 of _shift_matrices as they are and three
    C-contiguous buffers: `f` in the state's dtype (promoted to at least
    float64), into which the caller's state.f is copied once here, whatever
    its order; the collided f `out` in that dtype; and a real one for K f of
    at most BLOCK_CELLS cells.  Nothing writes into state.f.

    A real operator maps the real and imaginary parts of a complex state each
    on their own, so a complex f is collided as its float view: (q, 2 cells)
    for the products and (q, cells, 2) for the per-cell einsum, whose "..."
    covers the pair axis.  Neither K nor a per-cell stack is cast or copied
    to complex, and each step pays a real product, not a complex one.

    One block body serves both shifts: product(k, f, kf), product(m_inv, kf,
    out), add(out, f, out), run on each block of BLOCK_CELLS cells (the last
    one shorter) through the one block-sized K f buffer.  The product and each
    block's operators are picked once here.  A constant shift passes the same
    (q, q) K and M(u)^-1 to every block; its product is np.dot for a single
    block whose real (q, n) view has at most DOT_MAX_ELEMENTS elements and
    np.matmul otherwise.  Both call the same dgemm, each output element is
    the same q-term dot product whichever columns share the call, so neither
    the blocks nor the choice changes a bit; np.dot saves about 0.7 us of
    gufunc dispatch per call, and the blocks keep operands in cache.  + f is
    its own add, so a run rounds exactly as a plain np.matmul loop does on
    whichever BLAS kernel runs it.  A sine shift passes each block its slice
    of the K(x) and M(x)^-1 stacks, and its product is a per-cell einsum.

    K f = S (M(u) E rho - M(u) f) has row 0 exactly 0 because s_0 = 0, and
    M(u)^-1 stays its own contraction, so the correction carries no mass
    component: its rounding scales with the distance from equilibrium rather
    than with f, and the collision conserves mass to well below 1e-13 over
    long runs.  Colliding by the oracle's one matrix I + M(u)^-1 K loses
    that and drifts by about 2e-13 over 10^4 d1q3 steps.  Both hold cell by
    cell for a sine shift's K(x) and M(x)^-1.
    """

    def __init__(self, spec: SchemeSpec, state: StateField):
        ops = _shift_matrices(spec, state.grid_sizes, state.box_lengths)
        self.f = np.empty(state.f.shape, np.result_type(state.f, np.float64))
        np.copyto(self.f, state.f)
        self.out = np.empty_like(self.f)
        real = self.f.real.dtype
        per = 1 if real == self.f.dtype else 2  # real columns per cell
        f, out = (a.view(real).reshape(spec.q, -1) for a in (self.f, self.out))
        cells = self.f[0].size
        block = min(cells, BLOCK_CELLS)
        kf = np.empty((spec.q, per * block), real)
        k, m_inv, add = ops.k, ops.m_inv, np.add
        spans = [(c, min(c + block, cells)) for c in range(0, cells, block)]
        if spec.u_tilde.is_constant:
            # a positional out parses faster than out=, a saving a 64-cell step notices;
            # np.dot takes only a C-contiguous out, so only a single block may use it
            product = np.dot if cells == block and out.size <= DOT_MAX_ELEMENTS else np.matmul
            blocks = [(f[:, per * c0:per * c1], kf[:, :per * (c1 - c0)], out[:, per * c0:per * c1], k, m_inv)
                      for c0, c1 in spans]
        else:
            einsum = np.einsum
            shape = (spec.q, -1) + ((per,) if per == 2 else ())
            f, kf, out = (a.reshape(shape) for a in (f, kf, out))
            blocks = [(f[:, c0:c1], kf[:, :c1 - c0], out[:, c0:c1], k[:, :, c0:c1], m_inv[:, :, c0:c1])
                      for c0, c1 in spans]

            def product(a, b, out):
                einsum("kjc,jc...->kc...", a, b, out=out)

        def collide_block(f, kf, out, k, m_inv):
            product(k, f, kf)
            product(m_inv, kf, out)
            add(out, f, out)
        if len(blocks) == 1:
            self.apply = partial(collide_block, *blocks[0])
        else:
            def apply():
                for args in blocks:
                    collide_block(*args)
            self.apply = apply


def collide(state: StateField, spec: SchemeSpec) -> StateField:
    """Relax all moments at every cell; no transport."""
    collider = _Collider(spec, state)
    collider.apply()
    return replace(state, f=collider.out)


def _stream_plan(vset: VelocitySet, out: np.ndarray, f: np.ndarray) -> list[tuple]:
    """View pairs (dst, src) of `out` and `f` whose copies stream f into out periodically.

    Per velocity j these are the block copies np.roll(f[j], n_j) performs: an
    axis whose shift is 0 modulo its size is one block, any other axis splits
    into two.  The views stay bound to the two arrays, so a loop that reuses
    its buffers builds the plan once and streams with _stream alone.
    """
    plan = []
    for j, n in enumerate(vset.lattice_vectors):
        pairs = [((j,), (j,))]
        for shift, size in zip(n, f.shape[1:]):
            k = shift % size
            if k == 0:
                cuts = [(slice(None), slice(None))]
            else:
                cuts = [(slice(k, None), slice(None, size - k)), (slice(None, k), slice(size - k, None))]
            pairs = [(dst + (d,), src + (c,)) for dst, src in pairs for d, c in cuts]
        plan.extend((out[dst], f[src]) for dst, src in pairs)
    return plan


def _stream(plan) -> None:
    """Periodic transport: copy each of the plan's source views into its destination."""
    for dst, src in plan:
        dst[...] = src


def stream(state: StateField, vset: VelocitySet) -> StateField:
    """Periodic transport: each f_j gathers from the cell one lattice vector upwind."""
    out = np.empty_like(state.f)
    _stream(_stream_plan(vset, out, state.f))
    return replace(state, f=out)


def _step_count(state: StateField, spec: SchemeSpec, steps) -> int:
    """`steps` as an int, for a state whose dx/dt is the scheme's lam.

    A negative or non-integral count, or another spacing, raises ValidationError.
    """
    try:
        n = int(steps)
    except (TypeError, ValueError, OverflowError):
        n = -1
    if n < 0 or n != steps:
        raise ValidationError(f"steps must be a non-negative integer, got {steps!r}")
    if abs(state.dx / state.dt - spec.vset.lam) > 1e-9 * spec.vset.lam:
        raise ValidationError(
            f"state spacing dx/dt = {state.dx / state.dt!r} does not match lam = {spec.vset.lam!r}"
        )
    return n


def step(state: StateField, spec: SchemeSpec) -> StateField:
    """One full update: collide, then stream."""
    return run(state, spec, 1)


def run(state: StateField, spec: SchemeSpec, steps: int) -> StateField:
    """Apply `steps` updates and return the final state; the input state is not modified.

    Past the checks run keeps only the input's grid, and _advance lets go of
    the input once the collider has copied it: an input array that the caller
    does not hold is freed before the first update, so a run holds two
    full-grid arrays, not three.
    """
    if _step_count(state, spec, steps) == 0:
        return state
    updates = _advance(state, spec, steps)
    state = replace(state, f=None)
    for f in updates:
        pass
    return replace(state, f=f)


def _advance(state: StateField, spec: SchemeSpec, steps: int):
    """Yield f after each of `steps` updates of `state`: the one collide-and-stream loop.

    The collider copies state.f into its own f once, and the loop drops its
    reference to `state` then; the stream plan's view pairs, built once,
    stream the collided f straight back into it.  So a step is apply() and
    the plan's copies, allocates nothing and builds no view, and every
    yielded array is that same f, overwritten by the next step.
    The step count and dx/dt are checked on the first iteration.
    """
    steps = _step_count(state, spec, steps)
    if steps == 0:
        return
    collider = _Collider(spec, state)
    del state
    apply, f = collider.apply, collider.f
    plan = _stream_plan(spec.vset, f, collider.out)
    for _ in range(steps):
        apply()
        _stream(plan)
        yield f


def moment_field(state: StateField, spec: SchemeSpec) -> np.ndarray:
    """Moments of the current state taken at the scheme's shift, shape (q, *grid)."""
    m = _shift_matrices(spec, state.grid_sizes, state.box_lengths).m
    f = state.f.reshape(spec.q, -1)
    moments = m @ f if m.ndim == 2 else np.einsum("kjc,jc->kc", m, f)
    return moments.reshape(state.f.shape)


def spec_to_dict(spec: SchemeSpec) -> dict:
    """JSON-ready description of a scheme, mirroring the config layout."""
    return {
        "d": spec.dim,
        "q": spec.q,
        "lambda": spec.vset.lam,
        "velocities": [list(n) for n in spec.vset.lattice_vectors],
        "polynomials": [
            [{"exps": list(e), "coef": c} for e, c in p.terms] for p in spec.basis
        ],
        "relaxation": list(spec.s),
        "equilibrium": list(spec.equilibrium),
        "u_tilde": {"mode": spec.u_tilde.mode, "value": list(spec.u_tilde.value)},
    }
