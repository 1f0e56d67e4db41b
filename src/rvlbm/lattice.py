"""Velocity sets, moment polynomials, and shifted moment matrices.

A scheme couples a finite set of lattice velocities v_j with a basis of
multivariate polynomials P_k.  The moment matrix at shift u has entries
M_kj(u) = P_k(v_j - u); the first basis polynomial is the constant 1, so
row 0 is all ones for any shift and the first moment is the density.

A sparse polynomial is a term tuple of (exponents, coef) pairs in graded
lexicographic order.  MomentPolynomial wraps one with its dimension and the
constructor checks; the equivalent equation's operators are bare term tuples,
read with X_b = d_b, and evaluate_terms gives both polynomial values and, at ik,
operator symbols and spectral multipliers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NonLatticeVelocity, SingularMatrix, ValidationError

# 1-norm condition number above which a moment matrix is declared singular.
MAX_CONDITION = 1e12


def _graded_lex_key(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


def _canonical(pairs) -> tuple:
    """Canonical terms of (exponents, coef) pairs: repeats added in first-seen order,
    sorted by _graded_lex_key, exact zeros dropped."""
    acc: dict[tuple[int, ...], float] = {}
    for exps, coef in pairs:
        acc[exps] = acc.get(exps, 0.0) + coef
    order = sorted(acc, key=_graded_lex_key) if len(acc) > 1 else acc  # one term needs no sort
    return tuple((e, acc[e]) for e in order if acc[e] != 0.0)


def evaluate_terms(terms, x):
    """Sum of coef * prod_a x[a]**e_a over the (exponents, coef) terms, at x given
    as one coordinate per axis, real or complex.

    Array coordinates broadcast together; a constant term stays a bare number.
    Once the running sum is an array of the full shape and dtype, each further
    term is added into it in place, which rounds as total + term does; the sum
    is always an array made here, never one of the inputs.
    """
    total = 0.0
    for exponents, coef in terms:
        term = coef
        for axis, e in enumerate(exponents):
            if e:
                term = term * x[axis] ** e
        if type(total) is np.ndarray and _holds_sum(total, term):
            total += term
        else:
            total = total + term
    return total


def _holds_sum(total: np.ndarray, term) -> bool:
    """Whether total + term has total's shape and dtype, so fits in total."""
    shape = np.shape(term)
    return ((shape == total.shape or np.broadcast_shapes(total.shape, shape) == total.shape)
            and np.result_type(total, term) == total.dtype)


@dataclass(frozen=True)
class MomentPolynomial:
    """Sparse multivariate polynomial, a sum of coef * x^exponents terms.

    Terms are stored in graded lexicographic order with exact-zero coefficients
    dropped, so equal polynomials compare equal structurally.  The constructor
    checks the dimension and every exponent tuple.
    """

    dim: int
    terms: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"polynomial dimension must be >= 1, got {self.dim}")
        checked = []
        for exps, coef in self.terms:
            exps = tuple(map(int, exps))
            if len(exps) != self.dim:
                raise DimensionMismatch(
                    f"exponent tuple {exps} has length {len(exps)}, expected {self.dim}"
                )
            if min(exps) < 0:  # not empty: len(exps) == dim >= 1
                raise ValidationError(f"negative exponent in {exps}")
            checked.append((exps, float(coef)))
        object.__setattr__(self, "terms", _canonical(checked))

    @classmethod
    def constant(cls, dim: int) -> "MomentPolynomial":
        return cls(dim, (((0,) * dim, 1.0),))

    @classmethod
    def coordinate(cls, dim: int, axis: int) -> "MomentPolynomial":
        exps = tuple(1 if a == axis else 0 for a in range(dim))
        return cls(dim, ((exps, 1.0),))

    @classmethod
    def from_terms(cls, dim: int, mapping) -> "MomentPolynomial":
        """Build from a {exponents: coef} mapping or (exponents, coef) pairs; repeats add."""
        return cls(dim, tuple(mapping.items() if hasattr(mapping, "items") else mapping))

    def evaluate(self, x):
        """Value at x, given as one coordinate per axis (see evaluate_terms)."""
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has dimension {len(x)}, expected {self.dim}")
        return evaluate_terms(self.terms, x)

    def is_constant_one(self) -> bool:
        return self.terms == (((0,) * self.dim, 1.0),)

    def is_coordinate(self, axis: int) -> bool:
        return self.terms == MomentPolynomial.coordinate(self.dim, axis).terms


def _evaluate_rows(basis, x) -> np.ndarray:
    """Each polynomial of the basis at the (dim, ...) points x, stacked on a new first axis."""
    zero = np.zeros(np.shape(x)[1:])  # gives a constant term the points' shape
    return np.stack([p.evaluate(x) + zero for p in basis])


@dataclass(frozen=True)
class VelocitySet:
    """Lattice velocities v_j = lam * n_j with integer vectors n_j.

    lam is the lattice speed dx/dt; storing integer multiples keeps
    streaming an exact grid shift for any acoustic-scaled time step.
    """

    dim: int
    lam: float
    lattice_vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch(f"dimension must be >= 1, got {self.dim}")
        if not self.lam > 0:
            raise ValidationError(f"lattice speed must be positive, got {self.lam}")
        vecs = []
        for j, n in enumerate(self.lattice_vectors):
            if len(n) != self.dim:
                raise DimensionMismatch(
                    f"velocity {j} has dimension {len(n)}, expected {self.dim}"
                )
            for comp in n:
                if not float(comp).is_integer():
                    raise NonLatticeVelocity(
                        f"velocity {j} = {tuple(n)} is not an integer lattice vector "
                        "(an integer multiple of lam per axis)"
                    )
            vecs.append(tuple(int(c) for c in n))
        if len(set(vecs)) != len(vecs):
            raise ValidationError("velocities must be pairwise distinct")
        if len(vecs) < self.dim + 1:
            raise ValidationError(
                f"need at least dim+1 = {self.dim + 1} velocities, got {len(vecs)}"
            )
        object.__setattr__(self, "lattice_vectors", tuple(vecs))

    @property
    def q(self) -> int:
        return len(self.lattice_vectors)

    @cached_property
    def velocities(self) -> np.ndarray:
        """Physical velocities as a read-only (q, dim) float array, built once."""
        v = self.lam * np.array(self.lattice_vectors, dtype=float)
        v.setflags(write=False)
        return v


@dataclass(frozen=True, eq=False)
class MomentMatrix:
    """Moment matrix M(u) together with its inverse, as immutable arrays.

    For a stack of n shifts, m and m_inv have shape (n, q, q) and
    cond_estimate is the largest 1-norm condition number in the stack.
    """

    m: np.ndarray
    m_inv: np.ndarray
    cond_estimate: float

    def __post_init__(self):
        for arr in (self.m, self.m_inv):
            arr.setflags(write=False)


def validate_basis(basis, dim: int, q: int) -> None:
    """Check the moment-basis convention: P_0 = 1 and P_k = X_k for k = 1..dim."""
    if len(basis) != q:
        raise DimensionMismatch(f"basis has {len(basis)} polynomials, expected q = {q}")
    for k, p in enumerate(basis):
        if p.dim != dim:
            raise DimensionMismatch(f"basis[{k}] has dimension {p.dim}, expected {dim}")
    if not basis[0].is_constant_one():
        raise ValidationError("basis[0] must be the constant polynomial 1")
    for k in range(1, min(dim, q - 1) + 1):
        if not basis[k].is_coordinate(k - 1):
            raise ValidationError(f"basis[{k}] must be the coordinate polynomial X_{k}")


def _one_norm(a: np.ndarray) -> np.ndarray:
    """Largest absolute column sum of each matrix in a (..., q, q) array."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def build_moment_matrix(basis, vset: VelocitySet, u_tilde) -> MomentMatrix:
    """Build M(u) with entries P_k(v_j - u) and invert it.

    u_tilde is one shift of length dim or a (dim, n) stack of shifts; a stack
    gives (n, q, q) arrays.  Raises SingularMatrix when the inversion meets a
    zero pivot or a 1-norm condition number exceeds MAX_CONDITION.
    """
    u = np.asarray(u_tilde, dtype=float)
    if u.ndim not in (1, 2) or u.shape[0] != vset.dim:
        raise DimensionMismatch(
            f"shift has shape {u.shape}, expected ({vset.dim},) or ({vset.dim}, n)"
        )
    validate_basis(basis, vset.dim, vset.q)
    v = vset.velocities.T  # (dim, q)
    if u.ndim == 2:
        v = v[:, :, None]  # broadcast against (dim, 1, n)
    m = _evaluate_rows(basis, v - u[:, None])  # (q, q[, n])
    if u.ndim == 2:
        m = np.moveaxis(m, -1, 0)  # a view: the cell axis stays fastest in memory
    try:
        m_inv = np.linalg.inv(m)
        cond = _one_norm(m) * _one_norm(m_inv)
    except np.linalg.LinAlgError:
        # a zero pivot: point at the shifts whose determinant vanishes
        m_inv, cond = None, np.where(np.linalg.det(m) == 0.0, np.inf, 0.0)
    worst = float(np.max(cond))
    if m_inv is None or not worst <= MAX_CONDITION:
        cell = np.unravel_index(np.argmax(cond), np.shape(cond))
        shift = tuple(u[(slice(None),) + cell].tolist())
        raise SingularMatrix(
            f"moment matrix singular at shift {shift}: "
            f"condition number {worst:.3e} above {MAX_CONDITION:g}"
        )
    return MomentMatrix(m=m, m_inv=m_inv, cond_estimate=worst)


def default_basis(vset: VelocitySet) -> tuple[MomentPolynomial, ...]:
    """Convenience basis: 1, the coordinates, then graded monomials until q.

    A monomial is kept only when its values on the velocity set raise the rank
    of the rows chosen so far, so M(0) of a basis of q polynomials is
    nonsingular whenever the coordinates are independent on the velocity set.
    """
    dim, q = vset.dim, vset.q
    basis = [MomentPolynomial.constant(dim)]
    basis += [MomentPolynomial.coordinate(dim, a) for a in range(dim)]
    v = vset.velocities.T
    rows = list(_evaluate_rows(basis, v))
    # track the rank, not len(rows): dependent coordinates must not stall the walk
    rank = np.linalg.matrix_rank(np.array(rows))
    degree = 2
    while len(basis) < q:
        monos = [
            e
            for e in itertools.product(range(degree + 1), repeat=dim)
            if sum(e) == degree
        ]
        for e in sorted(monos, key=_graded_lex_key):
            if len(basis) == q:
                break
            p = MomentPolynomial(dim, ((tuple(e), 1.0),))
            row = p.evaluate(v)
            if np.linalg.matrix_rank(np.array(rows + [row])) > rank:
                basis.append(p)
                rows.append(row)
                rank += 1
        degree += 1
    return tuple(basis)
