"""Finite-dimensional matrix *-algebras: closure from generators, maximal
projector families, and the constructive tensor-factor theorems.

An algebra is held as an orthonormal basis (Hilbert-Schmidt inner product)
of its linear span, which is closed under products and adjoints.  The two
factorization routines produce a unitary change of basis under which the
algebra becomes M_p ⊗ I_q (one factor) or the pair M_p ⊗ I_q / I_p ⊗ M_q
(two commuting factors).

Whether an algebra is a single factor is decided by counting its minimal
projectors, read off one eigendecomposition of a random element: in
⊕_j M_{m_j} ⊗ I_{r_j} the identity splits into Σ m_j minimal projectors,
those of block j of rank r_j, so the algebra is M_p ⊗ I_q exactly when p
of them share the rank q and its dimension is p².  No center is computed.

All randomized steps draw from a seeded generator and are deterministic
given the seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NontrivialCenter,
    NotCommuting,
    NotGenerating,
    NumericalFailure,
)
from .linalg import (
    dagger,
    hs_norm,
    localization_residual,
    max_norm,
    partial_trace,
    phase_fix,
    validate_shape,
)

# Rank decisions are made on singular values relative to the largest one.
RANK_RATIO = 1e-8
# Eigenvalue clusters of sampled Hermitian elements are split when the gap
# exceeds this fraction of the spectral radius.
CLUSTER_GAP_RATIO = 1e-6
MAX_SAMPLE_RETRIES = 6


@dataclass(frozen=True)
class GeneratedAlgebra:
    """A matrix *-algebra held as an HS-orthonormal basis of its span.

    ``basis`` is a stacked array of shape (dim, n, n).  The span of the
    basis contains the identity and is closed under +, scalar, product and
    adjoint (up to the closure tolerance used when it was built).
    """

    ambient_dim: int
    basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def project_coeffs(self, m: np.ndarray) -> np.ndarray:
        """Coefficients of the HS-orthogonal projection of m onto the span."""
        return self.basis.conj().reshape(self.dimension, -1) @ np.asarray(m).ravel()

    def projection_residual(self, m: np.ndarray) -> float:
        """Max-norm distance of m from the span of the basis."""
        coeffs = self.project_coeffs(m)
        approx = np.tensordot(coeffs, self.basis, axes=(0, 0))
        return max_norm(np.asarray(m) - approx)

    def random_hermitian(self, rng: np.random.Generator) -> np.ndarray:
        """A Gaussian random Hermitian element of the algebra."""
        coeff = rng.standard_normal(self.dimension) + 1j * rng.standard_normal(self.dimension)
        m = np.tensordot(coeff, self.basis, axes=(0, 0))
        return (m + dagger(m)) / 2.0


@dataclass(frozen=True)
class ProjectorFamily:
    """Orthogonal projectors in an algebra summing to the identity, all of
    equal rank, with each compression P_i A P_i one-dimensional.  Projector
    i is V_i V_i† for the i-th block of ``ranks[i]`` orthonormal columns."""

    columns: np.ndarray  # (n, n) unitary, the projector ranges side by side
    ranks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class Factorization:
    """Unitary u of size pq x pq exhibiting a tensor-factor structure."""

    u: np.ndarray
    p: int
    q: int


def _orthonormal_rows(stack: np.ndarray, floor: float) -> np.ndarray:
    """Orthonormal basis (as rows) of the row space of ``stack``, keeping
    singular directions above ``floor``."""
    if stack.shape[0] == 0:
        return stack
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    return vh[s > floor]


def _check_square(mats, n: int) -> list[np.ndarray]:
    out = []
    for m in mats:
        a = np.asarray(m, dtype=np.complex128)
        if a.shape != (n, n):
            raise DimensionMismatch(f"generator of shape {a.shape}, expected ({n}, {n})")
        out.append(a)
    return out


def close(generators, n: int) -> GeneratedAlgebra:
    """Smallest *-algebra containing the generators and the identity.

    Breadth-first span growth: orthonormalize generators, adjoints and I,
    then repeatedly add the orthogonal complement of all pairwise products
    until no singular value above the rank threshold (RANK_RATIO of the
    largest) emerges.
    """
    gens = _check_square(generators, n)
    seed = gens + [dagger(g) for g in gens] + [np.eye(n, dtype=np.complex128)]
    stack = np.stack([m.ravel() for m in seed])
    scale = max(float(np.max(np.abs(np.linalg.svd(stack, compute_uv=False)))), 1.0)
    floor = RANK_RATIO * scale
    basis = _orthonormal_rows(stack, floor)
    fresh = basis  # directions whose products have not been formed yet
    while fresh.shape[0] > 0:
        b = basis.reshape(-1, n, n)
        k = b.shape[0]
        if k >= n * n:
            break
        f = fresh.reshape(-1, n, n)
        # products of older directions among themselves are already in the
        # span from the previous round; only pairs touching a fresh
        # direction can leave it
        prods = np.concatenate([
            np.matmul(b[:, None], f[None]).reshape(-1, n * n),
            np.matmul(f[:, None], b[None]).reshape(-1, n * n),
        ])
        coeffs = basis.conj() @ prods.T
        resid = prods - coeffs.T @ basis
        prod_scale = float(np.max(np.abs(resid))) * n if resid.size else 0.0
        # the residual rows are orthogonal to the current span, so the new
        # directions extend the orthonormal basis directly
        fresh = _orthonormal_rows(resid, max(floor, RANK_RATIO * max(prod_scale, 1.0)))
        if fresh.shape[0] == 0:
            break
        basis = np.vstack([basis, fresh])
    # one final pass curbs drift accumulated across rounds
    basis = _orthonormal_rows(basis, floor)
    return GeneratedAlgebra(n, basis.reshape(-1, n, n))


def span_algebra(elements, n: int) -> GeneratedAlgebra:
    """Algebra whose span is already product/adjoint-closed, orthonormalized
    by one SVD without the closure iteration.  In the decomposer the span is
    the partial traces onto one cell of a *-isomorphic copy of M_d that
    factors across two cells: that cell's tensor factor, an algebra."""
    stack = np.stack([m.ravel() for m in _check_square(elements, n)])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    basis = vh[s > RANK_RATIO * max(float(s[0]), 1.0)]
    return GeneratedAlgebra(n, basis.reshape(-1, n, n))


def _compression_defect(basis: np.ndarray, cols: np.ndarray) -> float:
    """Max over algebra basis b of the distance of V† b V from C.I, for
    orthonormal columns V spanning the range of one projector."""
    comp = dagger(cols) @ basis @ cols
    scalar = np.trace(comp, axis1=1, axis2=2) / cols.shape[1]
    return max_norm(comp - scalar[:, None, None] * np.eye(cols.shape[1]))


def maximal_projector_family(alg: GeneratedAlgebra, seed: int = 0,
                             tol: float = 1e-8) -> ProjectorFamily:
    """Minimal projectors of a factor M_p ⊗ I_q: p projectors of rank q
    summing to I, each compression P_i A P_i one-dimensional.

    The eigenvalue clusters of one seeded random Hermitian element h give
    projectors in the algebra.  When every compression V_i† b V_i is scalar
    within ``tol`` they are minimal; otherwise two eigenvalues of h met by
    accident and a fresh element is drawn.  In ⊕_j M_{m_j} ⊗ I_{r_j} the
    identity splits into Σ m_j minimal projectors, those of block j of rank
    r_j, so the algebra is a factor exactly when all ranks are equal and its
    dimension is the count squared; otherwise ``NontrivialCenter`` is raised.
    """
    n = alg.ambient_dim
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(MAX_SAMPLE_RETRIES):
        vals, vecs = np.linalg.eigh(alg.random_hermitian(rng))
        gap = CLUSTER_GAP_RATIO * max(float(np.max(np.abs(vals))), 1.0)
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(vals) > gap) + 1, [n]])
        worst = max(_compression_defect(alg.basis, vecs[:, lo:hi])
                    for lo, hi in zip(bounds[:-1], bounds[1:]))
        if worst <= tol:
            break
    else:
        raise NumericalFailure(
            f"projector family did not stabilize: compression defect {worst:.2e}")
    ranks = tuple(int(r) for r in np.diff(bounds))
    if len(set(ranks)) != 1 or alg.dimension != len(ranks) ** 2:
        raise NontrivialCenter(
            f"{len(ranks)} minimal projectors of ranks {ranks} in an algebra of "
            f"dimension {alg.dimension}: not a factor")
    return ProjectorFamily(vecs, ranks)


def factor_one(alg: GeneratedAlgebra, seed: int = 0, tol: float = 1e-8) -> Factorization:
    """Unitary W with W b W† of the form M ⊗ I_q for every basis element b.

    Construction: the minimal projector family, whose count p and common
    rank q decide that the algebra is the factor M_p ⊗ I_q -> its range
    columns as the basis-aligning unitary taking each projector to a
    coordinate block -> a generic algebra element whose first block row is
    rescaled blockwise into the block-diagonal unitary that makes all blocks
    scalar.
    """
    fam = maximal_projector_family(alg, seed=seed, tol=tol)
    p_count = fam.count
    q = fam.ranks[0]
    n = alg.ambient_dim
    u_align = dagger(fam.columns)
    rotated = u_align @ alg.basis @ fam.columns

    rng = np.random.default_rng((seed * 0x9E3779B1 + 0x7F4A7C15) % (2**63))
    v_blocks = None
    for _ in range(MAX_SAMPLE_RETRIES):
        coeff = rng.standard_normal(alg.dimension) + 1j * rng.standard_normal(alg.dimension)
        a = np.tensordot(coeff, rotated, axes=(0, 0))
        blocks = [a[0:q, i * q : (i + 1) * q] for i in range(p_count)]
        norms = [hs_norm(b) / np.sqrt(q) for b in blocks]
        if min(norms) > 1e-6 * max(max(norms), 1.0):
            v_blocks = [b / s for b, s in zip(blocks, norms)]
            break
    if v_blocks is None:
        raise NumericalFailure("no connecting element with all first-row blocks nonzero")

    v = np.zeros((n, n), dtype=np.complex128)
    for i, b in enumerate(v_blocks):
        v[i * q : (i + 1) * q, i * q : (i + 1) * q] = b
    w = phase_fix(v @ u_align)

    residual = factorization_residual(alg, w, p_count, q)
    if residual > tol:
        raise NumericalFailure(f"factorization residual {residual:.2e} exceeds {tol:.1e}")
    return Factorization(w, p_count, q)


def factorization_residual(alg: GeneratedAlgebra, w: np.ndarray, p: int, q: int,
                           region=(0,)) -> float:
    """Worst localization residual of the conjugated basis on the stated factor."""
    worst = 0.0
    for b in alg.basis:
        worst = max(worst, localization_residual(w @ b @ dagger(w), (p, q), region))
    return worst


def commutation_defect(a: GeneratedAlgebra, b: GeneratedAlgebra) -> float:
    """Largest max-norm commutator between basis elements of two algebras."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("algebras live in different ambient dimensions")
    ab = np.matmul(a.basis[:, None], b.basis[None])
    ba = np.matmul(b.basis[None], a.basis[:, None])
    return max_norm(ab - ba)


def factor_pair(a: GeneratedAlgebra, b: GeneratedAlgebra, seed: int = 0,
                tol: float = 1e-8) -> Factorization:
    """Unitary W splitting two commuting, jointly generating algebras as
    W a W† ⊆ M_p ⊗ I_q and W b W† ⊆ I_p ⊗ M_q.

    Generation is decided without closing a ∪ b: commuting algebras that
    generate M_n are factors (a central element commutes with all of M_n)
    of dimensions p², q² with pq = n; a factor a ≅ M_p ⊗ I_q, found by
    ``factor_one``'s minimal-projector count, and a commuting b of
    dimension q² fill each other's commutants.  NotCommuting when a basis
    commutator exceeds tol."""
    n = a.ambient_dim
    if b.ambient_dim != n:
        raise DimensionMismatch("algebras live in different ambient dimensions")
    defect = commutation_defect(a, b)
    if defect > tol:
        raise NotCommuting(f"algebras do not commute (defect {defect:.2e})")
    if a.dimension * b.dimension != n * n:
        raise NotGenerating(
            f"algebra dimensions {a.dimension} x {b.dimension} != {n * n}: "
            "commuting algebras that generate M_n have dimensions multiplying to n²")
    try:
        fact = factor_one(a, seed=seed, tol=tol)
    except NontrivialCenter as err:
        raise NotGenerating(
            f"commuting algebras cannot generate M_{n}: the first is not a "
            f"factor ({err})") from None
    # The commutant of M_p ⊗ I_q is I_p ⊗ M_q, so the second algebra lands
    # in the complementary factor automatically; verify rather than align.
    resid_b = factorization_residual(b, fact.u, fact.p, fact.q, region=(1,))
    if resid_b > tol:
        raise NumericalFailure(
            f"second algebra misses the complementary factor (residual {resid_b:.2e})")
    return fact


def restrict(alg: GeneratedAlgebra, dims, keep) -> GeneratedAlgebra:
    """Algebra generated by the partial traces of the basis onto ``keep``."""
    dims = validate_shape(dims, alg.ambient_dim)
    traced = [partial_trace(m, dims, keep) for m in alg.basis]
    nk = traced[0].shape[0]
    return close(traced, nk)
