"""Tensor-core checks: Kronecker products, partial traces, and the
localization residual kernels (dense and sparse)."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from qcablocks.errors import DimensionMismatch
from qcablocks import linalg as la
from qcablocks.model import WindowOperator, window_index
from qcablocks.rand import default_alphabet
from qcablocks.verify import (
    _group_ids,
    _one_hot_adjoint,
    _one_hot_conjugation,
    _unit_conjugation,
    fast_localization_residual,
    is_injective,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def test_kron_identity():
    assert np.allclose(la.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_x_on_first_factor():
    m = la.kron(X, np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = expected[2, 0] = expected[3, 1] = 1
    assert np.allclose(m, expected)


def test_kron_matches_index_formula():
    # Oracle: (A ⊗ B)[(i,k),(j,l)] = A[i,j] B[k,l], checked entry by entry.
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = la.kron(a, b)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    assert m[3 * i + k, 3 * j + l] == pytest.approx(a[i, j] * b[k, l])


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi.conj())
    red = la.partial_trace(rho, (2, 2), {0})
    assert np.allclose(red, np.eye(2) / 2)


def test_partial_trace_product_oracle():
    # Tracing the second factor of A ⊗ B gives Tr(B) · A.
    rng = np.random.default_rng(11)
    for p, q in [(2, 3), (3, 2), (4, 2)]:
        a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        b = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        out = la.partial_trace(la.kron(a, b), (p, q), {0})
        assert np.allclose(out, np.trace(b) * a)
        out1 = la.partial_trace(la.kron(a, b), (p, q), {1})
        assert np.allclose(out1, np.trace(a) * b)


def test_partial_trace_identity():
    assert np.allclose(la.partial_trace(np.eye(4), (2, 2), {1}), 2 * np.eye(2))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for keep in [{0}, {1}, {2}, {0, 2}, {0, 1, 2}]:
        out = la.partial_trace(m, (2, 3, 2), keep)
        assert np.trace(out) == pytest.approx(np.trace(m))


def test_partial_trace_middle_factor():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = la.kron(a, b, c)
    out = la.partial_trace(m, (2, 3, 2), {1})
    assert np.allclose(out, np.trace(a) * np.trace(c) * b)


def test_partial_trace_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        la.partial_trace(np.eye(4), (2, 3), {0})


def test_is_localized_product_operator():
    assert la.localization_residual(la.kron(X, np.eye(2)), (2, 2), {0}) <= la.DEFAULT_TOL
    assert la.localization_residual(la.kron(np.eye(2), Z), (2, 2), {1}) <= la.DEFAULT_TOL


def test_is_localized_cnot_is_not():
    assert not la.localization_residual(CNOT, (2, 2), {0}) <= la.DEFAULT_TOL
    assert not la.localization_residual(CNOT, (2, 2), {1}) <= la.DEFAULT_TOL
    assert la.localization_residual(CNOT, (2, 2), {0, 1}) <= la.DEFAULT_TOL


def test_is_localized_full_region_always_true():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    assert la.localization_residual(m, (2, 2, 2), {0, 1, 2}) <= 1e-12


def test_is_localized_agrees_with_commutant_oracle():
    # Oracle: a is of the form M ⊗ I iff it commutes with every I ⊗ E_kl.
    rng = np.random.default_rng(13)
    p, q = 3, 2

    def commutant_test(a):
        for _, _, e in oracle.matrix_units(q):
            emb = la.kron(np.eye(p), e)
            if la.max_norm(a @ emb - emb @ a) > 1e-9:
                return False
        return True

    local = la.kron(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)), np.eye(q))
    assert commutant_test(local) and \
        la.localization_residual(local, (p, q), {0}) <= la.DEFAULT_TOL

    # A Haar-ish conjugation of a local operator is almost surely non-local.
    g = rng.standard_normal((p * q, p * q)) + 1j * rng.standard_normal((p * q, p * q))
    w, _ = np.linalg.qr(g)
    moved = w @ local @ la.dagger(w)
    assert commutant_test(moved) == \
        (la.localization_residual(moved, (p, q), {0}) <= la.DEFAULT_TOL)
    assert not la.localization_residual(moved, (p, q), {0}) <= la.DEFAULT_TOL


def test_localized_operators_on_disjoint_regions_commute():
    rng = np.random.default_rng(17)
    dims = (2, 3, 2)
    a = oracle.embed_on_factors(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), dims, {0})
    b = oracle.embed_on_factors(
        rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), dims, {1, 2})
    assert la.max_norm(a @ b - b @ a) <= 12 * 1e-9


def test_restriction_trace_morphism():
    # For A on factors {0,1} and B on factors {1,2} of a (p,q,r) space:
    # p·r·Tr_02(AB) = Tr_02(A) · Tr_02(B).
    rng = np.random.default_rng(19)
    p, q, r = 2, 3, 2
    dims = (p, q, r)
    a = oracle.embed_on_factors(
        rng.standard_normal((p * q, p * q)) + 1j * rng.standard_normal((p * q, p * q)),
        dims, {0, 1})
    b = oracle.embed_on_factors(
        rng.standard_normal((q * r, q * r)) + 1j * rng.standard_normal((q * r, q * r)),
        dims, {1, 2})
    lhs = p * r * la.partial_trace(a @ b, dims, {1})
    rhs = la.partial_trace(a, dims, {1}) @ la.partial_trace(b, dims, {1})
    assert la.max_norm(lhs - rhs) < 1e-9 * max(1.0, la.max_norm(rhs))


def test_embed_on_factors_positions():
    m = oracle.embed_on_factors(X, (2, 2, 2), {1})
    assert np.allclose(m, la.kron(np.eye(2), X, np.eye(2)))
    # Non-contiguous region: entries follow X[i,i'] δ_aa' δ_bb' Z[j,j'].
    m2 = oracle.embed_on_factors(la.kron(X, Z), (2, 3, 2, 2), {0, 3})
    expected = np.zeros((24, 24), dtype=complex)
    for i in range(2):
        for a in range(3):
            for b in range(2):
                for j in range(2):
                    for ii in range(2):
                        for jj in range(2):
                            row = ((i * 3 + a) * 2 + b) * 2 + j
                            col = ((ii * 3 + a) * 2 + b) * 2 + jj
                            expected[row, col] += X[i, ii] * Z[j, jj]
    assert np.allclose(m2, expected)


def test_dagger_and_hs_inner():
    assert np.vdot(X, X) == pytest.approx(2.0)
    assert np.allclose(la.dagger(np.array([[1, 1j], [0, 1]])),
                       np.array([[1, 0], [-1j, 1]]))


def test_is_unitary():
    assert la.is_unitary(np.eye(5))
    assert not la.is_unitary(np.diag([1.0, 2.0]))
    with pytest.raises(DimensionMismatch):
        la.is_unitary(np.ones((2, 3)))


@st.composite
def perturbed_unitaries(draw):
    """(m, tol, expected): a Haar-random unitary of dimension n in 1 ... 40
    (mostly not a multiple of UNITARY_BLOCKS) with m† m - I moved by 0.5·tol
    or 2·tol at one diagonal entry or one Hermitian pair of entries, in
    any column block."""
    n = draw(st.integers(1, 40))
    tol = draw(st.sampled_from([1e-9, 1e-6]))
    factor = draw(st.sampled_from([0.5, 2.0]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, r = np.linalg.qr(z)
    u = u * (np.diag(r) / np.abs(np.diag(r)))
    eps = factor * tol
    # m = u h with h Hermitian: m† m = h², which moves the (i, j) and (j, i)
    # entries (or the (i, i) entry) by eps, up to O(eps²)
    h = np.eye(n, dtype=complex)
    if i == j:
        h[i, i] = np.sqrt(1.0 + eps)
    else:
        phase = np.exp(2j * np.pi * rng.random())
        h[i, j], h[j, i] = eps / 2 * phase, eps / 2 * np.conj(phase)
    m = u @ h
    return m, tol, oracle.unitary_verdict(m, tol)


@settings(max_examples=150, deadline=None)
@given(perturbed_unitaries())
def test_is_unitary_matches_full_product_verdict(case):
    m, tol, expected = case
    assert la.is_unitary(m, tol) == expected
    assert la.is_unitary(np.asfortranarray(m), tol) == expected


def test_is_unitary_blocks_do_not_divide_n():
    # n = 50 splits into blocks of 16 and 17 columns; a defect in the last
    # column's Hermitian pair with the first is seen from the first block
    for n in (33, 50, 257):
        assert n % len(la.row_blocks(n)) != 0
        m = np.eye(n, dtype=complex)
        for eps, verdict in ((0.5e-9, True), (2e-9, False)):
            m[0, n - 1] = m[n - 1, 0] = eps / 2
            assert oracle.unitary_verdict(m, 1e-9) is verdict
            assert la.is_unitary(m, 1e-9) is verdict
    assert not la.is_unitary(np.full((3, 3), np.nan))


def test_trace_distance_extremes():
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rho1 = np.diag([0.0, 1.0]).astype(complex)
    assert la.trace_distance(rho0, rho1) == pytest.approx(1.0)
    assert la.trace_distance(rho0, rho0) == pytest.approx(0.0)


def test_phase_fix_canonicalizes():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for theta in (0.3, 1.1, -2.0):
        fixed = la.phase_fix(np.exp(1j * theta) * m)
        assert np.allclose(fixed, la.phase_fix(m))


# ------------------------------------------- localization residual kernels
#
# Properties of the one dense kernel and the sparse (COO) kernel behind
# every locality verdict, over random factor shapes and regions.

@st.composite
def operators_on_factors(draw):
    """(a, dims, region): a random or nearly localized operator on a mixed
    factor shape, in C or Fortran memory order, with any region (empty,
    non-contiguous or full)."""
    dims = draw(st.one_of(
        st.tuples(st.integers(1, 3), st.integers(1, 3)).map(lambda pq: pq + pq),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)))
    region = sorted(draw(st.sets(st.integers(0, len(dims) - 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(dims))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if draw(st.booleans()):
        dk = int(np.prod([dims[i] for i in region]))
        m = rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk))
        a = oracle.embed_on_factors(m, dims, region) + 1e-6 * a
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    return a, dims, region


def _residual_by_definition(a, dims, region):
    dc = int(np.prod([dims[i] for i in range(len(dims)) if i not in region]))
    local = la.partial_trace(a, dims, region) / dc
    return la.max_norm(a - oracle.embed_on_factors(local, dims, region))


@settings(max_examples=150, deadline=None)
@given(operators_on_factors())
def test_localization_residual_matches_definition(case):
    a, dims, region = case
    assert la.localization_residual(a, dims, region) == pytest.approx(
        _residual_by_definition(a, dims, region), rel=1e-12, abs=1e-12)
    assert la.localization_residual(a, dims, range(len(dims))) == 0.0


@settings(max_examples=150, deadline=None)
@given(operators_on_factors())
def test_localization_defect_norms_match_definition(case):
    # the max-norm decides verdicts; the HS norm feeds the generator bound
    a, dims, region = case
    dc = int(np.prod([dims[i] for i in range(len(dims)) if i not in region]))
    defect = a - oracle.embed_on_factors(la.partial_trace(a, dims, region) / dc, dims, region)
    assert la.localization_defect(a, dims, region) == pytest.approx(
        (la.max_norm(defect), la.hs_norm(defect)), rel=1e-12, abs=1e-12)


@st.composite
def operators_on_up_to_four_factors(draw):
    """(a, dims, region): a random or nearly localized operator on up to
    four factors of size 1 ... 3, with any region (empty, non-contiguous or
    the whole window)."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    region = sorted(draw(st.sets(st.integers(0, len(dims) - 1))))
    if draw(st.booleans()):
        region = list(range(len(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(np.prod(dims))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if draw(st.booleans()):
        dk = int(np.prod([dims[i] for i in region]))
        m = rng.standard_normal((dk, dk)) + 1j * rng.standard_normal((dk, dk))
        a = oracle.embed_on_factors(m, dims, region) + 1e-6 * a
    return a, dims, region


@settings(max_examples=200, deadline=None)
@given(operators_on_up_to_four_factors())
def test_localization_defect_matches_transposed_oracle(case):
    # the streamed kernel's one-block case against the transposed-copy
    # kernel of an earlier version
    a, dims, region = case
    resid, hs = la.localization_defect(a, dims, region)
    want_resid, want_hs = oracle.transposed_localization_defect(a, dims, region)
    assert resid == pytest.approx(want_resid, rel=0, abs=1e-15)
    assert hs == pytest.approx(want_hs, rel=1e-12, abs=1e-300)


@st.composite
def streamed_operators(draw):
    """(a, dims, regions, edges): a case of operators_on_up_to_four_factors
    with two more regions (empty, non-contiguous or the whole window among
    them) and the row edges of 1 ... n blocks, their count mostly not a
    divisor of n."""
    a, dims, region = draw(operators_on_up_to_four_factors())
    w = len(dims)
    regions = [region, [], list(range(w))][:draw(st.integers(1, 3))]
    regions += [sorted(draw(st.sets(st.integers(0, w - 1)))) for _ in range(2)]
    n = a.shape[0]
    blocks = draw(st.integers(1, n))
    edges = sorted({0, n, *draw(st.lists(st.integers(1, n - 1), max_size=blocks - 1)
                                if n > 1 else st.just([]))})
    return a, dims, regions, edges


@settings(max_examples=200, deadline=None)
@given(streamed_operators())
def test_streamed_defects_match_transposed_oracle(case):
    # one pass over row blocks in any order scores every region: the
    # max-norm is the transposed-copy kernel's bit for bit, the HS norm
    # agrees to rounding
    a, dims, regions, edges = case
    blocks = [(lo, a[lo:hi]) for lo, hi in zip(edges, edges[1:])][::-1]
    got = la.localization_defects(blocks, dims, regions)
    assert len(got) == len(regions)
    for (resid, hs), region in zip(got, regions):
        want_resid, want_hs = oracle.transposed_localization_defect(a, dims, region)
        assert resid == want_resid
        assert hs == pytest.approx(want_hs, rel=1e-12, abs=1e-300)


def test_streamed_defects_keep_a_nan():
    a = np.eye(4, dtype=complex)
    a[3, 0] = np.nan
    for region in ([0], [1], [0, 1]):
        resid, hs = la.localization_defects([(0, a[:2]), (2, a[2:])], (2, 2), [region])[0]
        assert np.isnan(resid) and np.isnan(hs)


@settings(max_examples=150, deadline=None)
@given(operators_on_factors())
def test_localization_residual_is_adjoint_invariant(case):
    a, dims, region = case
    assert la.localization_residual(a, dims, region) == \
        la.localization_residual(la.dagger(a), dims, region)


@st.composite
def one_hot_units(draw):
    """A random one-hot window (a permutation, or a merging map that sends
    at least two inputs to one row), a cell, a matrix unit and a region."""
    d = draw(st.integers(2, 3))
    merging = draw(st.booleans())
    w = draw(st.integers(2 if merging else 1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = d**w
    if merging:
        rows = rng.integers(0, n, size=n)
        rows[0] = rows[-1]
    else:
        rows = rng.permutation(n).astype(np.int64)
    cell = draw(st.integers(0, w - 1))
    k, l = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    region = sorted(draw(st.sets(st.integers(0, w - 1))))
    return rows, d, w, cell, k, l, region


@settings(max_examples=150, deadline=None)
@given(one_hot_units())
# no entry on the complement diagonal, so no group
@example(case=(np.array([2, 0, 1, 3]), 2, 2, 0, 0, 1, [0]))
def test_coo_kernel_matches_dense_kernel_on_one_hot_conjugations(case):
    rows, d, w, cell, k, l, region = case
    n = d**w
    g = np.zeros((n, n), dtype=complex)
    np.add.at(g, (rows, np.arange(n)), 1.0)
    e = np.zeros((d, d), dtype=complex)
    e[k, l] = 1.0
    emb = oracle.embed_on_factors(e, (d,) * w, {cell})
    if is_injective(rows):
        # forward on the window, backward as forward on its adjoint
        units = [(_one_hot_conjugation(column_map, d, w, cell, k, l), expected)
                 for column_map, expected in ((rows, g @ emb @ la.dagger(g)),
                                              (_one_hot_adjoint(rows), la.dagger(g) @ emb @ g))]
    else:
        # a merging map's forward unit, its repeated entries summed into counts
        op = WindowOperator(default_alphabet(d), w, rows)
        units = [(_unit_conjugation(op, cell, forward=True)[0](k, l), g @ emb @ la.dagger(g))]
    for coo, expected in units:
        assert len(set(zip(coo[0].tolist(), coo[1].tolist()))) == len(coo[0])
        dense = np.zeros((n, n), dtype=complex)
        dense[coo[0], coo[1]] = coo[2]
        assert la.max_norm(dense - expected) <= 1e-12
        # both norms of the defect: the max-norm verdict and the HS bound
        assert fast_localization_residual(coo, d, w, [region])[0] == pytest.approx(
            la.localization_defect(dense, (d,) * w, region), rel=1e-12, abs=1e-12)
        adjoint = (coo[1], coo[0], np.conj(coo[2]))
        assert fast_localization_residual(adjoint, d, w, [region])[0] == pytest.approx(
            fast_localization_residual(coo, d, w, [region])[0], rel=1e-12, abs=1e-12)


@st.composite
def partial_permutation_units(draw):
    """A 0/1 partial permutation of the d^w window words in COO form: a
    partial permutation of the words on a support tensored with the
    identity on the other cells, with a share of its entries dropped (none,
    a few or half).  Returns the entries, d, w, the support and whether no
    entry was dropped."""
    d = draw(st.integers(2, 3))
    w = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = sorted(draw(st.sets(st.integers(0, w - 1))))
    comp = [i for i in range(w) if i not in support]
    dr, dc = d ** len(support), d ** len(comp)
    cols_r = rng.permutation(dr)[:rng.integers(0, dr + 1)]
    rows_r = rng.permutation(dr)[:len(cols_r)]
    pair, rest = np.repeat(np.arange(len(cols_r)), dc), np.tile(np.arange(dc), len(cols_r))

    def words(region_words):
        digits = np.zeros((w, len(pair)), dtype=np.int64)
        for cells, number in ((support, region_words[pair]), (comp, rest)):
            for j, cell in enumerate(cells):
                digits[cell] = number // d ** (len(cells) - 1 - j) % d
        return window_index(digits, d)

    keep = rng.random(len(pair)) >= draw(st.sampled_from([0.0, 0.1, 0.5]))
    return words(rows_r)[keep], words(cols_r)[keep], d, w, support, bool(keep.all())


@settings(max_examples=150, deadline=None)
@given(partial_permutation_units())
def test_partial_permutation_residual_is_zero_or_at_least_half(case):
    # a 0/1 unit reads exactly 0 where it is localized and at least 1/2
    # where it is not, on every region; a whole one is localized on every
    # region that holds its support
    rows, cols, d, w, support, whole = case
    regions = [list(r) for s in range(w + 1) for r in itertools.combinations(range(w), s)]
    vals = np.ones(len(rows), dtype=np.int64)
    for region, (resid, hs) in zip(regions, fast_localization_residual(
            (rows, cols, vals), d, w, regions)):
        assert resid == 0.0 or resid >= 0.5, (region, resid)
        if whole and set(support) <= set(region):
            assert resid == 0.0 and hs == 0.0, region


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 50), max_size=60))
def test_index_grouping_matches_np_unique(keys):
    # the sparse kernel's grouping and the bijectivity test, against
    # np.unique (which the library avoids: it imports numpy.ma)
    keys = np.array(keys, dtype=np.int64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(_group_ids(keys), inverse)
    assert is_injective(keys) == (len(uniq) == len(keys))
