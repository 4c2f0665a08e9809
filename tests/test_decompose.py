"""Decomposer checks: cell-algebra images, the separation/recovery steps,
gauge fixing, certification, and the error paths."""
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracle import embed_on_factors, matrix_units, two_pass_certify
from random_inputs import random_block_qca, ring_kick
from qcablocks import decompose as dec
from qcablocks import linalg as la
from qcablocks.algebra import close, factor_pair, restrict, span_algebra
from qcablocks.decompose import (
    ALIGNMENTS,
    cell_algebra_images,
    certify,
    decompose_certified,
    derive_u,
    derive_v,
    fix_quiescent_gauge,
    permutation_blocks,
    shared_cell_algebras,
)
from qcablocks.errors import (
    IsoSolveFailed,
    NotCommuting,
    NotLocal,
    NotSeparable,
    PreconditionViolated,
    QCAError,
    ReconstructionMismatch,
    WindowTooSmall,
)
from qcablocks.gallery import phase_qca, shift_qca, swap_qca, toffoli_ca, xor_ca
from qcablocks.model import (
    DENSE_WINDOW_CAP,
    BlockQCA,
    ClassicalRule,
    Configuration,
    SparseState,
    WindowOperator,
    apply_block,
    group_cells,
    is_injective,
    quantize,
    shift,
    window_digits,
    window_matrix,
)
from qcablocks.rand import default_alphabet
from qcablocks.verify import (
    _one_hot_conjugation,
    check_shift_invariance,
    check_unitary,
)


def identity_qca(d):
    alpha = default_alphabet(d)
    q1 = np.zeros(d, dtype=complex); q1[0] = 1
    q2 = np.array([1.0], dtype=complex)
    return BlockQCA(alpha, d, 1, np.eye(d, dtype=complex), np.eye(d, dtype=complex), q1, q2)


def unit_span(units):
    """The image algebra spanned by a (d, d, d^2, d^2) unit stack."""
    d2 = units.shape[2]
    return span_algebra(units.reshape(-1, d2, d2), d2)


ORACLE_SPLITS = [(2, 2, 1), (4, 2, 2), (4, 1, 4), (6, 2, 3), (6, 3, 2)]


def oracle_windows():
    """Identity, shift and swap windows plus random blocks at ORACLE_SPLITS."""
    yield window_matrix(identity_qca(2), 4)
    yield window_matrix(shift_qca(), 4)
    yield window_matrix(swap_qca(), 4)
    for seed, (d, p, q) in enumerate(ORACLE_SPLITS):
        yield window_matrix(random_block_qca(d, p, q, seed=seed + 240), 4)


def partitioned_rule(p, q, seed):
    """A random reversible classical rule in partitioned form on d = p·q
    symbols, under a random relabelling that fixes the quiescent symbol.

    A bijection splits each symbol into a left part a < q and a right part
    b < p; a second bijection joins the right part of cell i with the left
    part of cell i+1 into output cell i, so the left parts move one cell
    left.  The join maps the split of symbol 0 back to 0, so delta(0, 0) = 0."""
    d = p * q
    rng = np.random.default_rng(seed)
    split = rng.permutation(d)
    a, b = split // p, split % p
    join = rng.permutation(d)
    z = b[0] * q + a[0]
    j0 = int(np.flatnonzero(join == 0)[0])
    join[[z, j0]] = join[[j0, z]]
    table = join[b[:, None] * q + a[None, :]]
    return relabelled(ClassicalRule(default_alphabet(d), table), rng)


def relabelled(rule, rng):
    """The rule under a random relabelling of its symbols that fixes the
    quiescent symbol."""
    d = rule.alphabet.d
    relabel = np.concatenate([[0], 1 + rng.permutation(d - 1)])
    inv = np.argsort(relabel)
    return ClassicalRule(rule.alphabet, relabel[rule.table[inv[:, None], inv[None, :]]])


# -------------------------------------------------------- cell algebra images

def test_images_identity_qca_are_cell_algebras():
    g = identity_qca(2)
    units = cell_algebra_images(window_matrix(g, 4))
    d = 2
    assert unit_span(units).dimension == d * d
    # the identity evolution leaves cell operators in place: image of the
    # cell-1 unit E_kl is E_kl at patch position 1
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1
            expected = la.kron(np.eye(d), e)
            assert la.max_norm(units[k, l] - expected) <= 1e-10


def test_images_shift_qca_land_on_left_cell():
    g = shift_qca()
    units = cell_algebra_images(window_matrix(g, 4))
    d = 2
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1
            # shift moves cell-1 operators onto cell 0 of the (0,1) patch
            expected = la.kron(e, np.eye(d))
            assert la.max_norm(units[k, l] - expected) <= 1e-10


def test_images_reject_xor():
    with pytest.raises(NotLocal):
        decompose_certified(quantize(xor_ca(), 4), seed=0)[0]


def test_images_window_too_small():
    g = identity_qca(2)
    with pytest.raises(WindowTooSmall):
        cell_algebra_images(window_matrix(g, 3))


def test_inclusion_property_of_image_algebra():
    # the image algebra factorizes as (restriction to patch cell 0) ⊗
    # (restriction to patch cell 1): the tensor closure of the restrictions
    # has the same dimension d^2.
    for seed, (d, p, q) in enumerate([(4, 2, 2), (6, 2, 3)]):
        g = random_block_qca(d, p, q, seed=seed + 200)
        units = cell_algebra_images(window_matrix(g, 4))
        alg = unit_span(units)
        left = restrict(alg, (d, d), {0})
        right = restrict(alg, (d, d), {1})
        assert left.dimension * right.dimension == d * d
        tensor_gens = [la.kron(x, y) for x in left.basis for y in right.basis]
        joint = close(tensor_gens, d * d)
        assert joint.dimension == alg.dimension == d * d


def test_unit_stacks_are_matrix_units():
    # conjugation is a *-isomorphism: Gram d·I, Tr T_kl = d·δ_kl, and the
    # full multiplication table T_kl T_lm = T_km
    for op in oracle_windows():
        d = op.alphabet.d
        units = cell_algebra_images(op)
        flat = units.reshape(d * d, -1)
        assert la.max_norm(flat.conj() @ flat.T - d * np.eye(d * d)) <= 1e-9
        assert la.max_norm(np.einsum("klii->kl", units) - d * np.eye(d)) <= 1e-9
        prods = np.einsum("klij,lmjn->klmin", units, units)
        assert la.max_norm(prods - units[:, None]) <= 1e-9


def test_shared_cell_algebras_match_restrict_oracle():
    # the batched partial-trace spans equal the close-based restriction of
    # the image algebra to either patch cell: same dimension, each contains
    # the other
    for op in oracle_windows():
        d = op.alphabet.d
        images = cell_algebra_images(op)
        fast = shared_cell_algebras(images)
        for keep, alg in zip(({1}, {0}), fast):
            oracle = restrict(unit_span(images), (d, d), keep)
            assert alg.dimension == oracle.dimension
            assert all(oracle.projection_residual(m) <= 1e-8 for m in alg.basis)
            assert all(alg.projection_residual(m) <= 1e-8 for m in oracle.basis)


def test_images_reject_unfaithful_conjugation():
    # 2·I conjugates E_kl to 4 E_kl: localized, but not a *-homomorphism
    g = identity_qca(2)
    op = WindowOperator(g.alphabet, 4, 2 * np.eye(16, dtype=complex), "periodic")
    with pytest.raises(NotLocal, match="traces"):
        cell_algebra_images(op)


def test_images_reject_broken_products():
    # a block window kicked to G(I + εK), K a fixed Gaussian matrix: at
    # ε = 6.5e-7 the unit traces miss d·δ_kl by 2.9e-6, within d·tol, and a
    # sampled product T_kl T_lm misses T_km by 1.5e-6, above tol
    op = window_matrix(random_block_qca(4, 2, 2, seed=7), 4)
    kick = np.eye(op.dim) + 6.5e-7 * np.random.default_rng(1).standard_normal((op.dim, op.dim))
    bad = WindowOperator(op.alphabet, 4, op.dense() @ kick, "periodic")
    with pytest.raises(NotLocal, match=r"break T_kl T_lm = T_km \(residual 1\.46e-06\)"):
        cell_algebra_images(bad, tol=1e-6)


def dense_compressed_image(op, cell, k, l):
    """G (E_kl ⊗ I) G† with E_kl at ``cell``, built densely and compressed
    onto the patch (cell - 1, cell) with the other cells quiescent."""
    d, w = op.alphabet.d, op.width
    e = np.zeros((d, d), dtype=complex)
    e[k, l] = 1
    g = op.dense()
    patch_rows = [i for i in range(op.dim)
                  if all((i // d ** (w - 1 - c)) % d == 0
                         for c in range(w) if c not in (cell - 1, cell))]
    g_patch = g[patch_rows, :]
    return g_patch @ embed_on_factors(e, (d,) * w, {cell}) @ la.dagger(g_patch)


def test_unit_stack_is_every_cells_image():
    # the cell-1 image stack equals the dense conjugation at cell 1 and, by
    # shift invariance, at cell 2: the translation the shared-cell algebras
    # rely on; the rule window is checked densified and through the
    # whole-window one-hot oracle (one_hot_images)
    rule_op = quantize(partitioned_rule(2, 2, seed=7), 4, "periodic")
    dense_rule = WindowOperator(rule_op.alphabet, 4, rule_op.dense(), "periodic")
    cases = [(op, cell_algebra_images(op)) for op in [*oracle_windows(), dense_rule]]
    for op, units in [*cases, (rule_op, one_hot_images(rule_op))]:
        d = op.alphabet.d
        for cell in (1, 2):
            for k in range(d):
                for l in range(d):
                    oracle = dense_compressed_image(op, cell, k, l)
                    assert la.max_norm(units[k, l] - oracle) <= 1e-12


def full_window_unit_row(rows, d, w, k):
    """Reference row T_k0 ... T_k(d-1) of the compressed cell-1 unit images
    of the one-hot permutation window G|x> = |rows[x]>: every unit
    conjugated over the whole window, and the entries whose row and column
    have a quiescent complement kept."""
    kept_of, rest_of = np.divmod(np.arange(d ** w, dtype=np.int64), d ** (w - 2))
    out = np.zeros((d, d * d, d * d), dtype=np.complex128)
    for l in range(d):
        r, c = _one_hot_conjugation(rows, d, w, 1, k, l)
        sel = (rest_of[r] == 0) & (rest_of[c] == 0)
        out[l, kept_of[r[sel]], kept_of[c[sel]]] = 1.0
    return out


def one_hot_images(op):
    """The (d, d, d^2, d^2) cell-1 image stack of a one-hot permutation
    window in the {0, 1} alignment, for the dense stages, filled one row
    of full_window_unit_row at a time."""
    d, w = op.alphabet.d, op.width
    units = np.empty((d, d, d * d, d * d), dtype=np.complex128)
    for k in range(d):
        units[k] = full_window_unit_row(op.matrix, d, w, k)
    return units


def images_of(op):
    """The cell-1 images of a window: cell_algebra_images of a dense one,
    one_hot_images of a one-hot one."""
    return one_hot_images(op) if op.is_one_hot else cell_algebra_images(op)


def test_decompose_certified_peak_memory():
    # grouped Toffoli at w = 4 (d = 16, n = 65536), in int64 column maps
    # (8n bytes, 0.5 MiB): the gate's generator check, the rule table, the
    # block permutations and the integer certificate peak at 2.66 of them
    # (1.33 MiB); the dense cell-1 image stack, d⁶·16 bytes, is 256 MiB
    op = quantize(group_cells(toffoli_ca(), 2), 4, "periodic")
    tracemalloc.start()
    try:
        qca, cert = decompose_certified(op, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (qca.p, qca.q) == (8, 2) and cert.residual <= 1e-7
    assert peak <= 3.2 * 8 * op.dim, peak / (8 * op.dim)


# -------------------------------------------------------------- derive steps

def test_derive_v_identity_qca_dims():
    g = identity_qca(4)
    images = cell_algebra_images(window_matrix(g, 4))
    a1, b1 = shared_cell_algebras(images)
    fact = derive_v(a1, b1, seed=0)
    assert (fact.p, fact.q) == (4, 1)
    assert a1.dimension == 16 and b1.dimension == 1


def test_derive_v_shift_qca_degenerate():
    g = shift_qca()
    images = cell_algebra_images(window_matrix(g, 4))
    a1, b1 = shared_cell_algebras(images)
    fact = derive_v(a1, b1, seed=0)
    assert (fact.p, fact.q) == (1, 2)


def test_factor_pair_peak_memory():
    # the shared-cell algebras of grouped Toffoli, dimensions 64 and 4 in
    # M_16: the split works in the algebra's own size, and a stack of all
    # k² commutators (k²·n²·16 bytes, 16 MiB here) would not fit the bound
    images = one_hot_images(quantize(group_cells(toffoli_ca(), 2), 4, "periodic"))
    a1, b1 = shared_cell_algebras(images)
    assert (a1.dimension, b1.dimension) == (64, 4)
    tracemalloc.start()
    try:
        fact = factor_pair(a1, b1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (fact.p, fact.q) == (8, 2)
    assert peak <= 8 * 2 ** 20


def test_derive_v_rejects_noncommuting():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    full = close([x, z], 2)
    with pytest.raises(NotCommuting):
        derive_v(full, full, seed=0)


def test_derive_u_recovers_splitter_up_to_phase():
    g = random_block_qca(4, 2, 2, seed=210)
    images = cell_algebra_images(window_matrix(g, 4))
    a1, b1 = shared_cell_algebras(images)
    fact = derive_v(a1, b1, seed=1)
    u = derive_u(images, fact)
    # conjugation action must match on every matrix unit regardless of the
    # gauge of the recovered pair
    qca = fix_quiescent_gauge(u, la.dagger(fact.u), g.alphabet, fact.p, fact.q)
    cert = certify(qca, window_matrix(g, 4))
    assert cert.residual <= 1e-10


def four_matmul_derive_u(images, fact):
    """Reference for derive_u: each row T_k· of the stack conjugated by
    W = dagger(v) one patch leg at a time (four matmuls), every unit's
    middle-factor residual taken on the (p, q, p, q) patch; returns u and
    the (d, d) residuals."""
    p, q = fact.p, fact.q
    d = p * q
    w, wh = fact.u, la.dagger(fact.u)
    phi = np.zeros((d, d, d, d), dtype=np.complex128)
    resid = np.zeros((d, d))
    for k in range(d):
        t = w @ images[k].reshape(d, d, d ** 3)
        t = w @ t.reshape(d * d, d, d * d)
        t = t.reshape(d ** 3, d, d) @ wh
        t = (w.conj() @ t).reshape(d, d * d, d * d)
        for l in range(d):
            resid[k, l] = la.localization_residual(t[l], (p, q, p, q), {1, 2})
        tt = t.reshape(d, p, q, p, q, p, q, p, q)
        phi[k] = tt[:, 0, :, :, 0, 0, :, :, 0].reshape(d, d, d)
    _, vecs = np.linalg.eigh(phi[0, 0])
    u = (phi[:, 0] @ vecs[:, -1]).T
    uu, _, vvh = np.linalg.svd(u)
    u = uu @ vvh
    return u, resid


def with_cell_phases(op, seed):
    """The one-hot window followed by a random diagonal phase on every
    output cell, as a dense window (a one-hot window has no phases):
    exp(iθ) phases that keep the window an automaton."""
    d, w = op.alphabet.d, op.width
    theta = np.random.default_rng(seed).uniform(0, 2 * np.pi, d)
    out_digits = (op.matrix[:, None] // d ** np.arange(w - 1, -1, -1)) % d
    phases = np.exp(1j * theta[out_digits].sum(axis=1))
    return WindowOperator(op.alphabet, w, op.dense() * phases, op.boundary, op.out_shift)


def derive_u_cases():
    """Normalized windows for the derive_u oracle: relabelled grouped
    Toffoli and partitioned rules grouped by s ∈ {1, 2}, whose images the
    whole-window oracle builds (images_of), the ones within the dense cap also densified with
    exp(iθ) phases, and a dense random block window."""
    rng = np.random.default_rng(23)
    rules = [relabelled(group_cells(toffoli_ca(), 2), rng)]
    for p, q, s in [(2, 3, 1), (3, 2, 1), (1, 3, 2), (2, 2, 2)]:
        rule = partitioned_rule(p, q, seed=60 + 3 * p + q)
        rules.append(group_cells(rule, s) if s > 1 else rule)
    for i, rule in enumerate(rules):
        op = quantize(rule, 4, "periodic")
        yield op
        if op.dim <= DENSE_WINDOW_CAP:
            yield with_cell_phases(op, seed=70 + i)
    yield window_matrix(random_block_qca(6, 2, 3, seed=80), 4)


def spied_derive_u(images, fact, monkeypatch):
    """derive_u's u and the middle-factor residuals of the units it formed,
    in the order formed."""
    seen = []
    defect = la.localization_defect

    def spy(a, dims, region):
        out = defect(a, dims, region)
        seen.append(out[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(la, "localization_defect", spy)
        u = derive_u(images, fact)
    return u, seen


def assert_same_u(u, u_ref):
    # u is fixed by phi up to the global phase of the anchor's
    # eigenvector, which eigh picks afresh for each route
    overlap = np.vdot(u_ref, u)
    assert la.max_norm(u - u_ref * overlap / abs(overlap)) <= 1e-12


def test_derive_u_matches_four_matmul_route(monkeypatch):
    # the permuted dense route gives the u of the leg-by-leg conjugation of
    # the dense stack, and conjugates every unit, with the middle-factor
    # residual of the (p, q, p, q) patch; a one-hot window's stack comes
    # from the whole-window oracle, so the check also runs on permutation
    # inputs
    for op in derive_u_cases():
        images = images_of(op)
        fact = derive_v(*shared_cell_algebras(images), seed=0)
        u_ref, resid_ref = four_matmul_derive_u(images, fact)
        u, seen = spied_derive_u(images, fact, monkeypatch)
        assert_same_u(u, u_ref)
        assert np.allclose(seen, resid_ref.ravel(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("hot", [True, False])
def test_derive_u_names_the_perturbed_unit(hot):
    # one entry of unit (k, l) moved by 1e-4 (far above tol), or in the
    # oracle's stack of a one-hot window, whose entries are 0 and 1, one
    # entry 1 set to 0, breaks that unit's middle-factor form, and derive_u
    # refuses naming it
    if hot:
        op = quantize(relabelled(group_cells(toffoli_ca(), 2), np.random.default_rng(5)),
                      4, "periodic")
    else:
        op = window_matrix(random_block_qca(6, 2, 3, seed=81), 4)
    images = images_of(op)
    fact = derive_v(*shared_cell_algebras(images), seed=0)
    k, l = 3, 2
    if hot:
        i, j = np.argwhere(images[k, l] == 1)[0]
        images[k, l, i, j] = 0
    else:
        images[k, l, 0, 1] += 1e-4
    with pytest.raises(IsoSolveFailed, match=rf"\({k},{l}\) misses the middle factors"):
        derive_u(images, fact)


def test_gauge_fixing_rejects_entangled_quiescent_preimage():
    g = random_block_qca(4, 2, 2, seed=220)
    # tamper: swap v's quiescent preimage with an entangled vector
    theta = np.pi / 5
    rot = np.eye(4, dtype=complex)
    rot[np.ix_([0, 3], [0, 3])] = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    bad_v = g.v @ rot
    with pytest.raises(NotSeparable):
        fix_quiescent_gauge(g.u, bad_v, g.alphabet, 2, 2)


def test_gauge_conditions_hold_after_fixing():
    for seed in range(3):
        g = random_block_qca(6, 3, 2, seed=seed + 230)
        qca = decompose_certified(window_matrix(g, 4), seed=seed)[0]
        assert la.max_norm(qca.gauge_residuals()) <= 1e-10


# ------------------------------------------------------------ full pipeline

def test_roundtrip_many_splits():
    cases = [(2, 1, 2), (2, 2, 1), (4, 2, 2), (4, 1, 4), (6, 2, 3), (6, 3, 2)]
    for seed, (d, p, q) in enumerate(cases):
        g = random_block_qca(d, p, q, seed=seed + 300)
        qca, cert = decompose_certified(window_matrix(g, 4), seed=9)
        assert (qca.p, qca.q) == (p, q)
        assert cert.residual <= 1e-10
        assert cert.shift == 0


def test_swap_qca_roundtrip():
    qca, cert = decompose_certified(window_matrix(swap_qca(), 4), seed=0)
    assert (qca.p, qca.q) == (2, 2)
    assert cert.residual <= 1e-12


def test_grouped_toffoli_decomposes():
    op = quantize(group_cells(toffoli_ca(), 2), 4, "periodic")
    qca, cert = decompose_certified(op, seed=3)
    assert qca.p * qca.q == 16
    assert cert.residual <= 1e-7


def test_decompose_gauge_stability_across_seeds():
    g = random_block_qca(4, 2, 2, seed=400)
    op = window_matrix(g, 4)
    qca1 = decompose_certified(op, seed=1)[0]
    qca2 = decompose_certified(op, seed=2)[0]
    w1 = window_matrix(qca1, 4).dense()
    w2 = window_matrix(qca2, 4).dense()
    overlap = np.vdot(w2, w1)
    phase = overlap / abs(overlap)
    assert la.max_norm(w1 - phase * w2) <= 1e-7


def test_decompose_idempotent_at_window_level():
    g = random_block_qca(4, 2, 2, seed=410)
    op = window_matrix(g, 4)
    once = decompose_certified(op, seed=5)[0]
    op2 = window_matrix(once, 4)
    twice = decompose_certified(op2, seed=6)[0]
    w1 = op2.dense()
    w2 = window_matrix(twice, 4).dense()
    overlap = np.vdot(w2, w1)
    phase = overlap / abs(overlap)
    assert la.max_norm(w1 - phase * w2) <= 1e-7


def test_decompose_normalizes_shifted_alignment():
    # feed a window whose neighborhood sits at {-1, 0} by composing a valid
    # automaton with the window cyclic shift; the decomposer must realign
    # and certify with the relabel folded into the reported shift
    from qcablocks.decompose import _rotate_rows
    g = random_block_qca(4, 2, 2, seed=420)
    op = window_matrix(g, 4)
    shifted = _rotate_rows(op, -1)
    qca, cert = decompose_certified(shifted, seed=0)
    assert cert.residual <= 1e-9
    assert cert.shift != 0  # reconstruction matches up to the global relabel


def test_certificate_refuses_what_the_unit_stack_cannot_see():
    # a phase of -1 on inputs whose cells 3 and 0 are both non-quiescent:
    # it commutes with every unit at cells 1 and 2, so no unit stack sees
    # it, and the window passes the shift-invariance check; it is no block
    # automaton, and the certificate against the whole window refuses it.
    # At the quiescent column's phase +1 the residual is the largest entry
    # of the reconstruction's sign-flipped columns, doubled
    op = window_matrix(random_block_qca(4, 2, 2, seed=5), 4)
    digits = window_digits(np.arange(op.dim), op.alphabet.d, op.width).T
    phase = np.where((digits[:, 3] != 0) & (digits[:, 0] != 0), -1.0, 1.0)
    bad = WindowOperator(op.alphabet, 4, op.dense() * phase[None, :], op.boundary)
    assert check_shift_invariance(bad, 1e-9)
    with pytest.raises(ReconstructionMismatch, match=r"residual 1\.05e\+00"):
        decompose_certified(bad)


CERT_CROSS_CHECK = [(2, 1, 1), (1, 2, 1), (3, 1, 1), (1, 3, 1), (2, 2, 1), (2, 3, 1),
                    (3, 2, 1), (2, 1, 2), (1, 2, 2), (2, 4, 1)]


@pytest.mark.parametrize("d, p, q", [(2, 2, 1), (2, 1, 2), (4, 2, 2), (4, 4, 1),
                                     (4, 1, 4), (6, 2, 3), (6, 3, 2)])
def test_one_pass_certificate_matches_two_pass_oracle(d, p, q):
    # the phase from the quiescent column and the residual scored in the
    # same pass agree with the overlap of all columns and a second pass, on
    # random block windows, each also rotated by ±1 cell
    from qcablocks.decompose import _rotate_rows
    for seed in range(2):
        op = window_matrix(random_block_qca(d, p, q, seed=900 + 10 * d + seed), 4)
        for steps in ALIGNMENTS:
            rotated = _rotate_rows(op, steps)
            qca, cert = decompose_certified(rotated)
            oracle = two_pass_certify(qca, rotated, cert.shift)
            assert cert.residual <= 1e-7
            assert abs(cert.residual - oracle.residual) <= 1e-12
            assert abs(cert.phase - oracle.phase) <= 1e-12


def test_transfer_certificate_bounds_the_dense_one():
    # partitioned rules (p, q), grouped by s: one-hot ring windows up to
    # n = 4096 certified by their column maps, and their densified copies by
    # the entrywise comparison; for d <= 6 also composed with the window cyclic
    # shift, so both are certified at the nonzero shift that undoes it and
    # both _rotate_rows branches are compared
    from qcablocks.decompose import _rotate_rows
    for p, q, s in CERT_CROSS_CHECK:
        rule = partitioned_rule(p, q, seed=10 * p + q)
        op = quantize(group_cells(rule, s) if s > 1 else rule, 4, "periodic")
        qca = decompose_certified(op)[0]
        for steps in ((0, -1, 1) if op.alphabet.d <= 6 else (0,)):
            hot = _rotate_rows(op, steps)
            densified = WindowOperator(op.alphabet, 4, hot.dense(), "periodic")
            if steps:
                rotated = WindowOperator(op.alphabet, 4, op.dense(), "periodic")
                rotated = _rotate_rows(rotated, steps)
                assert np.array_equal(densified.matrix, rotated.matrix)
            transfer = certify(qca, hot, shift=-steps)
            dense = certify(qca, densified, shift=-steps)
            assert transfer.residual <= 1e-7 and dense.residual <= 1e-7
            assert transfer.residual >= dense.residual - 1e-15


def test_one_hot_and_dense_decompositions_certify_at_the_same_shift():
    # the one-hot and the dense path align the same rotated window alike
    from qcablocks.decompose import _rotate_rows
    op = quantize(partitioned_rule(2, 3, seed=23), 4, "periodic")
    for steps in (-1, 0, 1):
        hot = _rotate_rows(op, steps)
        densified = WindowOperator(op.alphabet, 4, hot.dense(), "periodic")
        (qh, transfer), (qd, dense) = decompose_certified(hot), decompose_certified(densified)
        assert ((qh.p, qh.q), transfer.shift) == ((qd.p, qd.q), dense.shift)
        assert transfer.shift == -steps


@pytest.mark.parametrize("one_hot", [False, True])
def test_certify_at_a_wrong_shift_reports_the_mismatch(one_hot):
    # an unrotated window certified one cell off: the reconstruction is not
    # the window rotated by ±1, and the single comparison says so
    if one_hot:
        op = quantize(partitioned_rule(2, 2, seed=31), 4, "periodic")
    else:
        op = window_matrix(random_block_qca(4, 2, 2, seed=31), 4)
    assert op.is_one_hot == one_hot
    qca, cert = decompose_certified(op)
    assert cert.shift == 0 and cert.residual <= 1e-9
    for wrong in (-1, 1):
        off = certify(qca, op, shift=wrong)
        assert off.shift == wrong
        assert off.residual > 1e-7


def test_certify_one_hot_peak_memory():
    # the pure shift on d = 8 (q = 8) at n = 4096: the column maps are
    # compared, never densified (densified, the comparison held three n x n
    # complex arrays)
    op = quantize(partitioned_rule(1, 8, seed=18), 4, "periodic")
    qca = decompose_certified(op)[0]
    tracemalloc.start()
    try:
        cert = certify(qca, op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.residual <= 1e-7
    assert peak <= op.dim ** 2 * 16 / 4


def test_reconstruction_shift_reported_for_periodic_identity():
    g = identity_qca(3)
    qca, cert = decompose_certified(window_matrix(g, 4), seed=0)
    assert cert.shift == 0
    assert cert.residual <= 1e-12


# ------------------------------------------------------ property: any window

@st.composite
def block_windows(draw):
    """A random block window at one of ORACLE_SPLITS with its output rows
    rotated by -1, 0 or +1 cells; returns ((p, q), steps, op)."""
    from qcablocks.decompose import _rotate_rows
    d, p, q = draw(st.sampled_from(ORACLE_SPLITS))
    g = random_block_qca(d, p, q, seed=draw(st.integers(0, 2**16)))
    steps = draw(st.sampled_from([-1, 0, 1]))
    return (p, q), steps, _rotate_rows(window_matrix(g, 4), steps)


@settings(max_examples=10, deadline=None)
@given(block_windows(), st.integers(0, 2**16))
def test_decompose_recovers_split_of_any_block_window(case, seed):
    (p, q), steps, op = case
    qca, cert = decompose_certified(op, seed=seed)
    # a one-cell relabel turns an on-site automaton (q = 1) into a pure
    # shift (p = 1) and back; the relabelled window is then a valid
    # radius-1/2 automaton in its own right, with the split reversed
    allowed = {(p, q)} if steps == 0 or min(p, q) > 1 else {(p, q), (q, p)}
    assert (qca.p, qca.q) in allowed
    assert cert.residual <= 1e-7


@settings(max_examples=6, deadline=None)
@given(block_windows(), st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3, 1e-1]),
       st.integers(0, 2**16))
def test_decompose_perturbed_window_certifies_or_refuses(case, eps, seed):
    # exp(i eps H) with H = V diag(±1) V† on the full window, V two
    # Haar-random orthonormal columns: the result is either certified within
    # the bound or a structured refusal, never anything else
    _, _, op = case
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((op.dim, 2)) + 1j * rng.standard_normal((op.dim, 2)))
    phases = np.exp(1j * eps * np.array([1.0, -1.0])) - 1.0
    kick = np.eye(op.dim) + (v * phases) @ la.dagger(v)
    bad = WindowOperator(op.alphabet, op.width, kick @ op.dense(), op.boundary)
    try:
        _, cert = decompose_certified(bad, seed=seed)
    except QCAError:
        return
    assert cert.residual <= 1e-7


@st.composite
def partitioned_rules(draw, max_d=9):
    """A random partitioned rule (see partitioned_rule) grouped by s ∈ {1, 2}
    into d^s ≤ max_d symbols; returns (q, grouped rule)."""
    s = draw(st.sampled_from([1, 2]))
    p, q = draw(st.sampled_from([(p, q) for p in range(1, 10) for q in range(1, 10)
                                 if 2 <= (p * q) ** s <= max_d]))
    rule = partitioned_rule(p, q, seed=draw(st.integers(0, 2**16)))
    return q, (group_cells(rule, s) if s > 1 else rule)


@settings(max_examples=12, deadline=None)
@given(partitioned_rules(), st.integers(0, 2**16))
def test_decompose_recovers_grouped_partitioned_rules(case, seed):
    # one-hot ring windows of dimension up to 9^4, all certified by their
    # column maps; grouping keeps the q-part that moves left, so the split
    # is (d^s / q, q)
    q, rule = case
    dg = rule.alphabet.d
    qca, cert = decompose_certified(quantize(rule, 4, "periodic"), seed=seed)
    assert qca.p * qca.q == dg
    assert (qca.p, qca.q) == (dg // q, q)
    assert cert.residual <= 1e-7
    rng = np.random.default_rng(seed)
    words = [[x] for x in range(1, dg)] + [list(rng.integers(1, dg, size=2)) for _ in range(3)]
    for word in words:
        state = SparseState(rule.alphabet, {Configuration.make(0, word): 1.0})
        expected = shift(rule.apply(state), cert.shift)
        expected = SparseState(rule.alphabet,
                               {c: cert.phase * a for c, a in expected.terms.items()})
        assert apply_block(state, qca).distance(expected) <= 1e-7


# ------------------------------- index of the split: the ring's cut rank

def cut_rank(op, rel=1e-9):
    """Operator-Schmidt rank of a w = 4 ring window across the cut of
    cells [0, 2) from [2, 4): the window's inputs and outputs on [0, 2)
    reshaped against those on [2, 4), its singular values above ``rel``
    times the largest counted.

    A left-moving wire of dimension q crosses each of the ring's two cuts,
    so the rank is q² (the matrix-product-unitary view of the GNVW index,
    Gross-Nesme-Vogts-Werner, arXiv:0910.3675), with no factorization
    numerics."""
    d = op.alphabet.d
    g = op.dense().reshape((d * d,) * 4)  # (y[0, 2), y[2, 4), x[0, 2), x[2, 4))
    s = np.linalg.svd(g.transpose(0, 2, 1, 3).reshape(d ** 4, d ** 4), compute_uv=False)
    return int(np.sum(s > rel * s[0]))


def assert_cut_rank_is_q_squared(op, seed=0):
    """The cut rank is a perfect square, and its root the q that
    decompose_certified finds; returns the rank."""
    rank = cut_rank(op)
    root = math.isqrt(rank)
    assert root * root == rank
    qca, cert = decompose_certified(op, seed=seed)
    assert cert.shift == 0 and root == qca.q
    return rank


@pytest.mark.parametrize("g, rank", [(swap_qca(), 4), (shift_qca(3), 9), (phase_qca(), 1)],
                         ids=["swap", "shift3", "phase"])
def test_cut_rank_of_gallery_blocks_is_q_squared(g, rank):
    assert assert_cut_rank_is_q_squared(window_matrix(g, 4)) == rank


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([*ORACLE_SPLITS, (2, 1, 2), (4, 4, 1)]), st.integers(0, 2**16))
def test_cut_rank_of_block_windows_is_q_squared(split, seed):
    # Haar block windows up to d = 6, unrotated: the index read off the
    # window's cut rank is the split's q, and decompose_certified finds it
    d, p, q = split
    op = window_matrix(random_block_qca(d, p, q, seed=seed), 4)
    assert assert_cut_rank_is_q_squared(op, seed) == q * q


# ------------------------------------------- alignment from the exact gates

ALIGNMENT_SPLITS = [(2, 1, 2), (2, 2, 1), (4, 2, 2), (6, 2, 3), (6, 3, 2)]


def expected_alignment(p, q, steps):
    """Split and certified shift of a (p, q) window rotated by ``steps``.

    The rotation moves the neighborhood {0, 1} to {steps, 1 + steps}, and
    the first of the alignments 0, +1, -1 that passes undoes it, which the
    certificate reports as the shift -steps.  Only a split with a trivial
    side is seen earlier: its neighborhood is one cell ({0} for q = 1, {1}
    for p = 1), and the rotation that moves it onto the other cell of
    {0, 1} leaves a valid automaton at alignment 0, an on-site map and a
    pure shift exchanged, so the split is (q, p) and the shift 0."""
    if (q == 1 and steps == 1) or (p == 1 and steps == -1):
        return (q, p), 0
    return (p, q), -steps


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(ALIGNMENT_SPLITS), st.sampled_from([-1, 0, 1]),
       st.integers(0, 2**16))
def test_alignment_found_by_exact_gates_on_block_windows(split, steps, seed):
    from qcablocks.decompose import _rotate_rows
    d, p, q = split
    op = _rotate_rows(window_matrix(random_block_qca(d, p, q, seed=seed), 4), steps)
    qca, cert = decompose_certified(op, seed=seed)
    assert ((qca.p, qca.q), cert.shift) == expected_alignment(p, q, steps)
    assert cert.residual <= 1e-9


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]),
       st.sampled_from([-1, 0, 1]), st.integers(0, 2**16))
def test_alignment_found_by_exact_gates_on_one_hot_rules(split, steps, seed):
    from qcablocks.decompose import _rotate_rows
    p, q = split
    op = _rotate_rows(quantize(partitioned_rule(p, q, seed=seed), 4, "periodic"), steps)
    assert op.is_one_hot
    qca, cert = decompose_certified(op, seed=seed)
    assert ((qca.p, qca.q), cert.shift) == expected_alignment(p, q, steps)
    assert cert.residual <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_haar_window_is_refused_at_every_alignment(d):
    # a Haar-random unitary on the whole window is unitary but no automaton:
    # the refusal names the failing check of each of the three alignments
    rng = np.random.default_rng(100 + d)
    n = d**4
    z, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    op = WindowOperator(default_alphabet(d), 4, z * (np.diag(r) / np.abs(np.diag(r))),
                        "periodic")
    assert check_shift_invariance(op, 1e-9) is False
    with pytest.raises(NotLocal) as err:
        decompose_certified(op)
    message = str(err.value)
    for name in ("alignment 0:", "alignment +1:", "alignment -1:"):
        assert message.count(name) == 1


def test_alignment_failures_name_the_image_checks():
    # 2·I has the neighborhood {0}: rotated by 0 or +1 cells it is shift
    # invariant in the {0, 1} alignment and the trace check of its images
    # refuses it; rotated by -1 the neighborhood is {-1}, which leaks
    from qcablocks.decompose import _aligned_images
    op = WindowOperator(default_alphabet(2), 4, 2 * np.eye(16, dtype=complex), "periodic")
    with pytest.raises(NotLocal) as err:
        _aligned_images(op, 1e-8)
    message = str(err.value)
    assert "alignment 0: cell-1 unit traces miss" in message
    assert "alignment +1: cell-1 unit traces miss" in message
    assert "alignment -1: not shift invariant" in message


@pytest.mark.parametrize("steps", [-1, 0, 1])
def test_decompose_dense_peak_memory(steps):
    # the alignment, the cell-1 image stack and the certificate,
    # whose pass also proves unitarity, stay within one window copy, also
    # for a rotated input: the alignment reads the rotation off gathered
    # rows and columns, and certify rebuilds the reconstruction one column block at a time
    # against the input's columns gathered at the certified shift (0.28
    # copies; holding the reconstruction and a rotated copy took 2.03, and
    # with a full m† m, probes and a full difference buffer 3.6)
    from qcablocks.decompose import _rotate_rows
    op = _rotate_rows(window_matrix(random_block_qca(6, 2, 3, seed=7), 4), steps)
    tracemalloc.start()
    try:
        qca, cert = decompose_certified(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (qca.p, qca.q) == (2, 3) and cert.shift == -steps and cert.residual <= 1e-9
    assert peak <= 1.0 * op.dim ** 2 * 16


# ------------------------------------------ unitarity from the certificate

def reference_decompose(op, seed, tol=1e-8):
    """decompose_certified with unitarity checked first, by check_unitary
    on the whole window, and every stage after it."""
    if not check_unitary(op, tol):
        raise PreconditionViolated("window operator is not unitary")
    steps, images = dec._aligned_images(op, tol)
    fact = derive_v(*shared_cell_algebras(images), seed=seed, tol=tol)
    u = derive_u(images, fact, tol=tol)
    qca = fix_quiescent_gauge(u, la.dagger(fact.u), op.alphabet, fact.p, fact.q, tol=tol)
    cert = certify(qca, op, shift=steps)
    if cert.residual > tol:
        raise ReconstructionMismatch(
            f"certification residual {cert.residual:.2e} exceeds "
            f"{tol:.1e} (at shift {cert.shift})")
    return qca, cert


def outcome(route, op, seed):
    """What a decomposition route gives: the split, u, v and the
    certificate, or the refusal's type and message."""
    try:
        qca, cert = route(op, seed)
    except (QCAError, np.linalg.LinAlgError) as err:
        return type(err), str(err)
    return (qca.p, qca.q), qca.u.tobytes(), qca.v.tobytes(), cert


def spied_unitary_calls(monkeypatch):
    """The shapes of the matrices la.is_unitary is called on, appended as
    the calls happen."""
    shapes, is_unitary = [], la.is_unitary

    def spy(m, tol=la.DEFAULT_TOL):
        shapes.append(np.shape(m))
        return is_unitary(m, tol)

    monkeypatch.setattr(la, "is_unitary", spy)
    return shapes


def hermitian_kick(op, eps, support, seed):
    """The window G(I + eps·H), with H a random Hermitian of operator norm
    1 acting on ``support`` random basis vectors (all of them for None)."""
    rng = np.random.default_rng(seed)
    n = op.dim
    k = n if support is None else support
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    h = a + la.dagger(a)
    h /= np.max(np.abs(np.linalg.eigvalsh(h)))
    cols = rng.choice(n, size=k, replace=False)
    g = op.dense().copy()
    g[:, cols] += eps * (g[:, cols] @ h)
    return WindowOperator(op.alphabet, op.width, g, op.boundary)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(ALIGNMENT_SPLITS), st.sampled_from([-1, 0, 1]),
       st.sampled_from([0.0, 0.3, 1.0, 3.0]), st.sampled_from([1, 4, None]),
       st.integers(0, 2**16))
def test_unitarity_from_the_certificate_matches_checking_first(split, steps, scale,
                                                               support, seed):
    # Haar block windows (w = 4, n <= 1296), rotated, and kicked off
    # unitary by eps = scale·tol around tol = 1e-8: a kick on one basis
    # vector moves one diagonal entry of G†G by ~2·eps, a spread one moves
    # many entries by less.  The outcome is the one of checking unitarity
    # first, and where the n x n check was skipped the certificate's bound
    # covers the Gram defect
    from qcablocks.decompose import _rotate_rows
    d, p, q = split
    op = _rotate_rows(window_matrix(random_block_qca(d, p, q, seed=seed), 4), steps)
    if scale:
        op = hermitian_kick(op, scale * 1e-8, support, seed)
    with pytest.MonkeyPatch.context() as m:
        shapes = spied_unitary_calls(m)
        got = outcome(decompose_certified, op, seed)
    assert got == outcome(reference_decompose, op, seed)
    if (op.dim, op.dim) not in shapes:
        g = op.dense()
        assert got[-1].unitarity_bound >= la.max_norm(la.dagger(g) @ g - np.eye(op.dim))


@pytest.mark.parametrize("case, tol", [("unitary", 1e-8), ("unitary", 1e-9),
                                       ("loose", 1e-9), ("looser", 1e-8), ("doubled", 1e-8)])
def test_dense_decompose_checks_the_gram_only_to_refuse(case, tol):
    # a Haar (6, 2, 3) window is proven unitary by its certificate, and
    # la.is_unitary never sees the n x n window.  Windows off unitary are
    # checked whole and refused as not unitary, whichever step noticed:
    # u's column 1 scaled by 1 + 1e-9 passes every gate and the certificate,
    # and its bound (1.3e-8) hands over to check_unitary; scaled by 1 + 1e-7,
    # or the window doubled, the trace gate refuses it first
    g = random_block_qca(6, 2, 3, seed=11)
    if case in ("loose", "looser"):
        u = g.u.copy()
        u[:, 1] *= 1 + (1e-9 if case == "loose" else 1e-7)
        g = BlockQCA(g.alphabet, g.p, g.q, u, g.v, g.q1, g.q2)
    op = window_matrix(g, 4)
    if case == "doubled":
        op = WindowOperator(op.alphabet, 4, 2 * op.matrix, op.boundary)
    with pytest.MonkeyPatch.context() as m:
        shapes = spied_unitary_calls(m)
        if case == "unitary":
            qca, cert = decompose_certified(op, tol=tol)
            assert (qca.p, qca.q) == (2, 3) and cert.unitarity_bound <= 1e-11
            assert (op.dim, op.dim) not in shapes
            return
        with pytest.raises(PreconditionViolated, match="window operator is not unitary"):
            decompose_certified(op, tol=tol)
    assert (op.dim, op.dim) in shapes


# ------------------------------------------------ one tolerance for a verdict

def names_a_residual_above(err, tol):
    """Whether a refusal is the not-unitary one, or names a number above
    tol in its message."""
    if isinstance(err, PreconditionViolated):
        return str(err) == "window operator is not unitary"
    return any(float(x) > tol for x in re.findall(r"\d\.\d+e[+-]\d+", str(err)))


def test_kicked_ring_window_is_refused_below_its_kick():
    # a Haar (4, 2, 2) ring window times a shift-invariant unitary
    # exp(i·1e-8·H) (ring_kick): its certificate reads 1.3e-9 to 2.4e-9,
    # by the gauge of the split that rounding picks, so at tol 1e-9 a
    # residual of the kick refuses it, and at 1e-8 it is accepted
    op = ring_kick(window_matrix(random_block_qca(4, 2, 2, seed=3), 4), 1e-8)
    with pytest.raises(QCAError) as err:
        decompose_certified(op, tol=1e-9)
    assert not isinstance(err.value, PreconditionViolated)
    assert names_a_residual_above(err.value, 1e-9), err.value
    qca, cert = decompose_certified(op, tol=1e-8)
    assert (qca.p, qca.q) == (2, 2) and cert.residual <= 1e-8


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(ALIGNMENT_SPLITS), st.sampled_from(["ring", 1, 4, None]),
       st.sampled_from([0.3, 3.0]), st.sampled_from([1e-9, 1e-11]), st.integers(0, 2**16))
def test_accepted_decompositions_certify_within_tol(split, kick, scale, tol, seed):
    # Haar block windows (w = 4, n <= 1296) kicked by eps = scale·tol, by a
    # shift-invariant unitary (ring_kick) or off unitary (hermitian_kick on
    # 1, 4 or all basis vectors): an acceptance has its certificate within
    # tol, and a refusal is the not-unitary one or names a residual above tol
    d, p, q = split
    op = window_matrix(random_block_qca(d, p, q, seed=seed), 4)
    eps = scale * tol
    op = ring_kick(op, eps, seed=seed) if kick == "ring" else hermitian_kick(op, eps, kick, seed)
    try:
        _, cert = decompose_certified(op, seed=seed, tol=tol)
    except QCAError as err:
        assert names_a_residual_above(err, tol), err
        return
    assert cert.residual <= tol


# ------------------------------------- one-hot windows: block permutations

def is_permutation_matrix(m):
    return (set(np.unique(m).tolist()) <= {0, 1}
            and np.array_equal(m.sum(axis=0), np.ones(len(m)))
            and np.array_equal(m.sum(axis=1), np.ones(len(m))))


@settings(max_examples=12, deadline=None)
@given(partitioned_rules(), st.sampled_from([-1, 0, 1]), st.integers(0, 2**16))
def test_one_hot_windows_decompose_as_block_permutations(case, steps, seed):
    # relabelled partitioned rules, grouped by s ∈ {1, 2} and rotated by -1,
    # 0 or +1 cells: u and v are 0/1 permutations, the split and shift are
    # the alignment's, and the certificate is exactly 0.  Densified (up to
    # n = 8^4; one 9^4 window copy is 688 MB), the entrywise certificate
    # agrees, and apply_block steps as the rule does, at that shift
    from qcablocks.decompose import _rotate_rows
    q, rule = case
    dg = rule.alphabet.d
    op = _rotate_rows(quantize(rule, 4, "periodic"), steps)
    qca, cert = decompose_certified(op, seed=seed)
    assert is_permutation_matrix(qca.u) and is_permutation_matrix(qca.v)
    assert ((qca.p, qca.q), cert.shift) == expected_alignment(dg // q, q, steps)
    assert cert.residual == 0.0 and cert.phase == 1.0
    if op.dim <= 4096:
        densified = WindowOperator(op.alphabet, 4, op.dense(), "periodic")
        assert certify(qca, densified, shift=cert.shift).residual == cert.residual
    rng = np.random.default_rng(seed)
    words = [[x] for x in range(1, dg)] + [list(rng.integers(1, dg, size=2)) for _ in range(3)]
    for word in words:
        state = SparseState(rule.alphabet, {Configuration.make(0, word): 1.0})
        expected = shift(rule.apply(state), steps + cert.shift)
        assert apply_block(state, qca).distance(expected) == 0.0


# the 16 quiescence-preserving rules on d = 3 whose w = 6 ring is injective,
# by table (row-major), and the (p, q, shift) of their w = 4 ring windows,
# plain and grouped by 2, or None where the gates refuse with NotLocal
D3_RING_CENSUS = {
    "000111222": ((3, 1, 0), (9, 1, 0)),
    "000122211": (None, None),
    "000211122": (None, None),
    "000222111": ((3, 1, 0), (9, 1, 0)),
    "001110222": (None, None),
    "002220111": (None, None),
    "010222101": (None, None),
    "012012012": ((1, 3, 0), (3, 3, 0)),
    "012012102": (None, (3, 3, 0)),
    "012021021": (None, (3, 3, 0)),
    "012210012": (None, (3, 3, 0)),
    "020111202": (None, None),
    "021012012": (None, (3, 3, 0)),
    "021021021": ((1, 3, 0), (3, 3, 0)),
    "021021201": (None, (3, 3, 0)),
    "021120021": (None, (3, 3, 0)),
}


def test_d3_ring_census_decomposes_as_block_permutations():
    # every rule on {q, a, b} with an injective w = 6 ring: 14 of the 32
    # windows decompose, each as 0/1 permutations with certificate 0, and
    # 18 are refused at the gates, as D3_RING_CENSUS pins
    alphabet = default_alphabet(3)
    found = {}
    for rest in itertools.product(range(3), repeat=8):
        rule = ClassicalRule(alphabet, np.array((0,) + rest).reshape(3, 3))
        if not is_injective(quantize(rule, 6, "periodic").matrix):
            continue
        outcomes = []
        for r in (rule, group_cells(rule, 2)):
            try:
                qca, cert = decompose_certified(quantize(r, 4, "periodic"))
            except NotLocal:
                outcomes.append(None)
                continue
            assert is_permutation_matrix(qca.u) and is_permutation_matrix(qca.v)
            assert cert.residual == 0.0
            outcomes.append((qca.p, qca.q, cert.shift))
        found["".join(map(str, rule.table.ravel()))] = tuple(outcomes)
    assert found == D3_RING_CENSUS


@pytest.mark.parametrize("q", [12, 16])
def test_wide_pure_shifts_decompose_exactly(q):
    # relabelled pure shifts on q symbols (n = q^4, up to 65536)
    qca, cert = decompose_certified(quantize(partitioned_rule(1, q, seed=q), 4, "periodic"))
    assert (qca.p, qca.q) == (1, q) and cert.residual == 0.0


def test_certify_reads_a_swapped_column_pair():
    # two columns of a one-hot window swapped: the column maps differ, and
    # the certificate reads 1.0, as the entrywise one of the densified copy
    op = quantize(partitioned_rule(2, 3, seed=8), 4, "periodic")
    qca = decompose_certified(op)[0]
    rows = op.matrix.copy()
    rows[[5, 40]] = rows[[40, 5]]
    bad = WindowOperator(op.alphabet, 4, rows, "periodic")
    densified = WindowOperator(op.alphabet, 4, bad.dense(), "periodic")
    assert certify(qca, bad).residual == 1.0 == certify(qca, densified).residual


def test_certify_compares_other_block_pairs_densely():
    # the block pair decomposed from a densified window is no exact 0/1
    # pair; against the one-hot window it is compared entrywise, as against
    # the densified copy
    op = quantize(partitioned_rule(2, 3, seed=8), 4, "periodic")
    qca, cert = decompose_certified(WindowOperator(op.alphabet, 4, op.dense(), "periodic"))
    assert not is_permutation_matrix(qca.u)
    assert certify(qca, op) == cert


def test_permutation_blocks_refuse_what_forms_no_grid():
    # every table with one entry moved to another symbol: the rows and
    # columns that symbol lies in change, and its atoms no longer form a
    # p x q grid of the symbols
    rule = partitioned_rule(2, 2, seed=9)
    d = rule.alphabet.d
    for a, b, y in itertools.product(range(d), repeat=3):
        if rule.table[a, b] == y:
            continue
        table = rule.table.copy()
        table[a, b] = y
        with pytest.raises(ReconstructionMismatch, match="no block permutation"):
            permutation_blocks(table, rule.alphabet)


def table_blocks(rule):
    """permutation_blocks of the rule's own table, and the table its 0/1
    pair rebuilds in integers, (x, x') -> v(b(x), a(x')) with u|x> =
    |a(x), b(x)>; None for a refusal."""
    try:
        qca = permutation_blocks(rule.table, rule.alphabet)
    except ReconstructionMismatch:
        return None
    assert is_permutation_matrix(qca.u) and is_permutation_matrix(qca.v)
    split, join = np.argmax(qca.u.real, axis=0), np.argmax(qca.v.real, axis=0)
    a, b = np.divmod(split, qca.p)
    return qca, join[b[:, None] * qca.q + a[None, :]]


def test_d3_census_tables_form_the_census_grids():
    # Kari's grid on the rule tables alone, with no window: each table of
    # D3_RING_CENSUS, plain and grouped by 2, whose window decomposes gives
    # the census split, and its 0/1 pair rebuilds the table exactly; the
    # table of each of the 18 windows the gates refuse is refused too
    alphabet = default_alphabet(3)
    for key, census in D3_RING_CENSUS.items():
        rule = ClassicalRule(alphabet, np.array([int(c) for c in key]).reshape(3, 3))
        for r, want in zip((rule, group_cells(rule, 2)), census):
            got = table_blocks(r)
            if want is None:
                assert got is None, key
                continue
            qca, rebuilt = got
            assert (qca.p, qca.q) == want[:2], key
            assert np.array_equal(rebuilt, r.table), key


@settings(max_examples=40, deadline=None)
@given(partitioned_rules(max_d=81))
def test_partitioned_rule_tables_rebuild_exactly(case):
    # relabelled partitioned rules grouped by s ∈ {1, 2}, up to 81 symbols:
    # the split is (d^s / q, q), and the 0/1 pair rebuilds the table
    q, rule = case
    qca, rebuilt = table_blocks(rule)
    assert (qca.p, qca.q) == (rule.alphabet.d // q, q)
    assert np.array_equal(rebuilt, rule.table)
