"""Star-algebra engine checks: closure, the factor criterion, projector
families, and the two tensor-factor theorems with independent verification
oracles."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernel_oracle import embed_on_factors, matrix_units
from qcablocks import linalg as la
from qcablocks.algebra import (
    close,
    commutation_defect,
    factor_one,
    factor_pair,
    factorization_residual,
    maximal_projector_family,
    restrict,
    span_algebra,
)
from qcablocks.errors import (
    DimensionMismatch,
    NontrivialCenter,
    NotCommuting,
    NotGenerating,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_unitary(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_factor_algebra(p, q, rng, n_gens=2):
    """Generators of W (M_p ⊗ I_q) W† for a random unitary W; returns (gens, W)."""
    w = random_unitary(p * q, rng)
    gens = []
    for _ in range(n_gens):
        m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        gens.append(w @ la.kron(m, np.eye(q)) @ la.dagger(w))
    return gens, w


# ---------------------------------------------------------------- closure

def test_close_pauli_x():
    alg = close([X], 2)
    assert alg.dimension == 2


def test_close_raising_operator_gives_full_m2():
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    assert close([e01], 2).dimension == 4


def test_close_identity_only():
    assert close([np.eye(3)], 3).dimension == 1


def test_close_idempotent():
    rng = np.random.default_rng(0)
    gens, _ = conjugated_factor_algebra(2, 2, rng)
    alg = close(gens, 4)
    again = close(list(alg.basis), 4)
    assert again.dimension == alg.dimension == 4


def test_close_basis_is_orthonormal_and_star_closed():
    rng = np.random.default_rng(1)
    gens, _ = conjugated_factor_algebra(2, 3, rng)
    alg = close(gens, 6)
    k = alg.dimension
    gram = alg.basis.conj().reshape(k, -1) @ alg.basis.reshape(k, -1).T
    assert np.allclose(gram, np.eye(k), atol=1e-10)
    assert alg.projection_residual(np.eye(6)) <= 1e-8
    for b in alg.basis[:3]:
        assert alg.projection_residual(la.dagger(b)) <= 1e-8
        assert alg.projection_residual(b @ alg.basis[0]) <= 1e-8


def test_close_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        close([np.eye(2)], 3)


# ------------------------------------------------------- factor criterion
# An algebra ⊕_j M_{m_j} ⊗ I_{r_j} splits I into Σ m_j minimal projectors,
# those of block j of rank r_j: it is a factor exactly when the ranks are
# equal and its dimension is the count squared.

def test_factor_criterion_full_matrix_algebra():
    alg = close([X, Z], 2)
    assert alg.dimension == 4
    fam = maximal_projector_family(alg, seed=0)
    assert fam.ranks == (1, 1)
    assert fam.count ** 2 == alg.dimension


def test_factor_criterion_rejects_diagonal_algebra():
    e00 = np.diag([1.0, 0.0]).astype(complex)
    e11 = np.diag([0.0, 1.0]).astype(complex)
    alg = close([e00, e11], 2)
    assert alg.dimension == 2
    with pytest.raises(NontrivialCenter):
        maximal_projector_family(alg, seed=0)


def test_factor_criterion_factor_algebra():
    gens = [la.kron(X, np.eye(2)), la.kron(Z, np.eye(2))]
    alg = close(gens, 4)
    assert alg.dimension == 4
    fam = maximal_projector_family(alg, seed=0)
    assert fam.ranks == (2, 2)
    assert fam.count ** 2 == alg.dimension


def test_factor_criterion_rejects_direct_sum():
    # block-diag(M_2, M_2) in M_4: four minimal projectors of equal rank 1,
    # but dimension 8 != 4²
    blocks = []
    for m in (X, Z):
        big = np.zeros((4, 4), dtype=complex)
        big[:2, :2] = m
        blocks.append(big)
    for m in (X, Z):
        big = np.zeros((4, 4), dtype=complex)
        big[2:, 2:] = m
        blocks.append(big)
    alg = close(blocks, 4)
    assert alg.dimension == 8
    with pytest.raises(NontrivialCenter, match=r"4 minimal projectors of ranks \(1, 1, 1, 1\)"):
        maximal_projector_family(alg, seed=0)


# --------------------------------------------------- projector families

def family_projectors(fam):
    """The projectors V_i V_i† of a family, from its blocks of columns."""
    blocks = np.split(fam.columns, np.cumsum(fam.ranks)[:-1], axis=1)
    return [v @ la.dagger(v) for v in blocks]


def family_conditions_oracle(fam, alg, tol=1e-7):
    """Brute-force check of the defining conditions: membership, mutual
    orthogonality, completeness, equal ranks, scalar compressions."""
    ps = family_projectors(fam)
    n = alg.ambient_dim
    for p in ps:
        assert alg.projection_residual(p) <= tol
        assert la.max_norm(p @ p - p) <= tol
        assert la.max_norm(p - la.dagger(p)) <= tol
    for i in range(len(ps)):
        for j in range(len(ps)):
            if i != j:
                assert la.max_norm(ps[i] @ ps[j]) <= tol
    assert la.max_norm(sum(ps) - np.eye(n)) <= tol
    assert len(set(fam.ranks)) == 1
    for i, p in enumerate(ps):
        rank = fam.ranks[i]
        for b in alg.basis:
            m = p @ b @ p
            c = np.trace(p @ m) / rank
            assert la.max_norm(m - c * p) <= tol


def test_projector_family_factor_algebra():
    rng = np.random.default_rng(2)
    gens, _ = conjugated_factor_algebra(2, 2, rng)
    alg = close(gens, 4)
    fam = maximal_projector_family(alg, seed=5)
    assert fam.count == 2
    assert fam.ranks == (2, 2)
    family_conditions_oracle(fam, alg)


def test_projector_family_full_m3():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    alg = close([g], 3)
    assert alg.dimension == 9
    fam = maximal_projector_family(alg, seed=1)
    assert fam.count == 3
    assert fam.ranks == (1, 1, 1)
    family_conditions_oracle(fam, alg)


def test_projector_family_scalar_algebra():
    alg = close([np.eye(4)], 4)
    fam = maximal_projector_family(alg, seed=0)
    assert fam.count == 1
    assert fam.ranks == (4,)
    family_conditions_oracle(fam, alg)


def test_projector_family_rejects_nontrivial_center():
    e00 = np.diag([1.0, 0.0]).astype(complex)
    alg = close([e00], 2)
    with pytest.raises(NontrivialCenter):
        maximal_projector_family(alg, seed=0)


def test_projector_family_deterministic():
    rng = np.random.default_rng(4)
    gens, _ = conjugated_factor_algebra(3, 2, rng)
    alg = close(gens, 6)
    fam1 = maximal_projector_family(alg, seed=9)
    fam2 = maximal_projector_family(alg, seed=9)
    assert np.array_equal(fam1.columns, fam2.columns)


# -------------------------------------------------------------- factor_one

def test_factor_one_computational_basis():
    gens = [la.kron(X, np.eye(2)), la.kron(Z, np.eye(2))]
    alg = close(gens, 4)
    fact = factor_one(alg, seed=0)
    assert (fact.p, fact.q) == (2, 2)
    assert factorization_residual(alg, fact.u, 2, 2) <= 1e-8


def test_factor_one_conjugated_instance():
    rng = np.random.default_rng(6)
    gens, _ = conjugated_factor_algebra(2, 3, rng)
    alg = close(gens, 6)
    fact = factor_one(alg, seed=3)
    assert (fact.p, fact.q) == (2, 3)
    for b in alg.basis:
        assert la.localization_residual(fact.u @ b @ la.dagger(fact.u), (2, 3), {0}) <= 1e-8


def test_factor_one_full_matrix_algebra():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    alg = close([g], 3)
    fact = factor_one(alg, seed=0)
    assert (fact.p, fact.q) == (3, 1)


def test_factor_one_rejects_abelian():
    e00 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    alg = close([e00], 3)
    with pytest.raises(NontrivialCenter):
        factor_one(alg, seed=0)


def test_factor_one_roundtrip_sweep():
    # For every (p, q) with pq <= 12, a seeded conjugation is recovered.
    rng = np.random.default_rng(8)
    for p, q in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (6, 2)]:
        gens, _ = conjugated_factor_algebra(p, q, rng)
        alg = close(gens, p * q)
        fact = factor_one(alg, seed=11)
        assert (fact.p, fact.q) == (p, q), f"wrong split for {(p, q)}"
        assert factorization_residual(alg, fact.u, p, q) <= 1e-8


def direct_sum_generators(blocks, rng):
    """Matrix units of ⊕_j M_{m_j} ⊗ I_{r_j} for blocks [(m_j, r_j), ...],
    conjugated by one Haar unitary; returns (generators, n)."""
    n = sum(m * r for m, r in blocks)
    w = random_unitary(n, rng)
    gens, start = [], 0
    for m, r in blocks:
        for _, _, e in matrix_units(m):
            g = np.zeros((n, n), dtype=complex)
            g[start : start + m * r, start : start + m * r] = la.kron(e, np.eye(r))
            gens.append(w @ g @ la.dagger(w))
        start += m * r
    return gens, n


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4)
       .filter(lambda blocks: sum(m * r for m, r in blocks) <= 12),
       st.integers(0, 2**16))
@example([(3, 4)], 0)                      # one factor, n = 12
@example([(2, 2), (2, 2)], 1)              # equal ranks, equal blocks
@example([(2, 2), (1, 2)], 2)              # equal ranks, count 3, dimension 5
@example([(2, 1), (1, 3)], 3)              # unequal ranks
@example([(1, 1)] * 4, 4)                  # all-diagonal algebra
def test_factor_one_decides_factors_of_direct_sums(blocks, seed):
    gens, n = direct_sum_generators(blocks, np.random.default_rng(seed))
    alg = close(gens, n)
    assert alg.dimension == sum(m * m for m, _ in blocks)
    if len(blocks) == 1:
        fact = factor_one(alg, seed=seed)
        assert (fact.p, fact.q) == blocks[0]
        assert factorization_residual(alg, fact.u, fact.p, fact.q) <= 1e-8
    else:
        with pytest.raises(NontrivialCenter):
            factor_one(alg, seed=seed)


def test_factor_one_deterministic():
    rng = np.random.default_rng(9)
    gens, _ = conjugated_factor_algebra(2, 2, rng)
    alg = close(gens, 4)
    f1 = factor_one(alg, seed=21)
    f2 = factor_one(alg, seed=21)
    assert np.array_equal(f1.u, f2.u)


# ------------------------------------------------------------- factor_pair

def test_factor_pair_computational_basis():
    a = close([la.kron(X, np.eye(2)), la.kron(Z, np.eye(2))], 4)
    b = close([la.kron(np.eye(2), X), la.kron(np.eye(2), Z)], 4)
    fact = factor_pair(a, b, seed=0)
    assert (fact.p, fact.q) == (2, 2)
    assert factorization_residual(a, fact.u, 2, 2, region=(0,)) <= 1e-8
    assert factorization_residual(b, fact.u, 2, 2, region=(1,)) <= 1e-8


def test_factor_pair_conjugated():
    rng = np.random.default_rng(10)
    for p, q in [(2, 2), (2, 3), (3, 2)]:
        n = p * q
        w = random_unitary(n, rng)
        a_gens = [w @ la.kron(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)),
                              np.eye(q)) @ la.dagger(w) for _ in range(2)]
        b_gens = [w @ la.kron(np.eye(p),
                              rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))
                  @ la.dagger(w) for _ in range(2)]
        a = close(a_gens, n)
        b = close(b_gens, n)
        fact = factor_pair(a, b, seed=2)
        assert (fact.p, fact.q) == (p, q)
        for m in a.basis:
            assert la.localization_residual(fact.u @ m @ la.dagger(fact.u), (p, q), {0}) <= 1e-8
        for m in b.basis:
            assert la.localization_residual(fact.u @ m @ la.dagger(fact.u), (p, q), {1}) <= 1e-8


def test_factor_pair_rejects_noncommuting():
    a = close([X, Z], 2)
    with pytest.raises(NotCommuting):
        factor_pair(a, a, seed=0)


def test_factor_pair_rejects_dimension_count_mismatch():
    # M_2 ⊗ I and I ⊗ diag commute, but 4 * 2 != 16
    a = close([la.kron(X, np.eye(2)), la.kron(Z, np.eye(2))], 4)
    b = close([la.kron(np.eye(2), Z)], 4)
    assert a.dimension * b.dimension == 8
    with pytest.raises(NotGenerating):
        factor_pair(a, b, seed=0)


def test_factor_pair_rejects_equal_count_non_factor_pair():
    # diag with diag in n = 2: the counts multiply to n², but the commuting
    # pair generates only the diagonal algebra (its center is not scalar)
    diag = close([Z], 2)
    assert diag.dimension ** 2 == 4
    with pytest.raises(NotGenerating):
        factor_pair(diag, diag, seed=0)


# ---------------------------------------------------------------- restrict

def test_restrict_factor_algebra():
    alg = close([la.kron(X, np.eye(2)), la.kron(Z, np.eye(2))], 4)
    res = restrict(alg, (2, 2), {0})
    assert res.dimension == 4  # full M_2


def test_restrict_scalars():
    alg = close([np.eye(4)], 4)
    res = restrict(alg, (2, 2), {1})
    assert res.dimension == 1


def test_restrict_matches_generatorwise_oracle():
    # Oracle: enumerate partial traces of the closure basis, close them.
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    alg = close([cnot], 4)
    res = restrict(alg, (2, 2), {0})
    traced = [la.partial_trace(b, (2, 2), {0}) for b in alg.basis]
    oracle = close(traced, 2)
    assert res.dimension == oracle.dimension
    for b in res.basis:
        assert oracle.projection_residual(b) <= 1e-8


def test_restriction_of_commuting_algebras_commutes():
    # Algebras supported on factors {0,1} and {1,2} that commute have
    # commuting middle restrictions.
    rng = np.random.default_rng(12)
    p, q, r = 2, 2, 2
    dims = (p, q, r)
    w = random_unitary(p * q, rng)
    for trial in range(3):
        m = rng.standard_normal((p * q, p * q)) + 1j * rng.standard_normal((p * q, p * q))
        a_gens = [embed_on_factors(np.diag(rng.standard_normal(p * q)).astype(complex),
                                      dims, {0, 1})]
        b_gens = [embed_on_factors(np.diag(rng.standard_normal(q * r)).astype(complex),
                                      dims, {1, 2})]
        a = close(a_gens, 8)
        b = close(b_gens, 8)
        assert commutation_defect(a, b) <= 1e-9
        a1 = restrict(a, dims, {1})
        b1 = restrict(b, dims, {1})
        assert commutation_defect(a1, b1) <= 1e-8


def test_restriction_of_generating_algebras_generates():
    # If the joint algebra restricts to the full middle algebra, so does the
    # closure of the restricted generators.  Constructed instance: A and B
    # are the full two-factor algebras M_p ⊗ M_q ⊗ I and I ⊗ M_q ⊗ M_r
    # (reached from generic seeded generators), whose joint restriction is
    # all of M_q.
    rng = np.random.default_rng(15)
    p, q, r = 2, 2, 2
    dims = (p, q, r)
    a_gens = [embed_on_factors(
        rng.standard_normal((p * q, p * q)) + 1j * rng.standard_normal((p * q, p * q)),
        dims, {0, 1})]
    b_gens = [embed_on_factors(
        rng.standard_normal((q * r, q * r)) + 1j * rng.standard_normal((q * r, q * r)),
        dims, {1, 2})]
    a = close(a_gens, 8)
    b = close(b_gens, 8)
    assert a.dimension == (p * q) ** 2 and b.dimension == (q * r) ** 2
    a1 = restrict(a, dims, {1})
    b1 = restrict(b, dims, {1})
    joint = close(list(a1.basis) + list(b1.basis), q)
    assert joint.dimension == q * q


def test_span_algebra_matches_close_for_unit_images():
    rng = np.random.default_rng(14)
    w = random_unitary(4, rng)
    images = [w @ e @ la.dagger(w) for _, _, e in matrix_units(4)]
    spanned = span_algebra(images, 4)
    assert spanned.dimension == 16
    closed = close(images, 4)
    assert closed.dimension == 16
