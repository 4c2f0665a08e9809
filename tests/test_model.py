"""Model layer checks: configurations, sparse states, block application,
window matrices, quantization, grouping, and state restriction."""
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcablocks import linalg as la
from state_oracle import shifted, step_config
from random_inputs import random_block_qca, random_sparse_state
from ungroup import ungroup_cells
from qcablocks.errors import (
    DimensionMismatch,
    IndivisibleWidth,
    PreconditionViolated,
    WindowTooSmall,
)
from qcablocks.model import (
    Alphabet,
    BlockQCA,
    ClassicalRule,
    Configuration,
    SparseState,
    WindowOperator,
    apply_block,
    apply_window,
    config_from_cells,
    fit_offset,
    group_cells,
    quantize,
    restrict_state,
    shift,
    window_digits,
    window_index,
    window_matrix,
    window_rotation,
    window_split,
)
from qcablocks.rand import default_alphabet
from qcablocks.verify import detect_signalling

BITS = Alphabet(("0", "1"), "q")


def identity_qca(d=2, p=None, q=None):
    # p = d, q = 1 with identity layers is the identity evolution: the whole
    # cell rides the right half and v copies it back in place.
    p = p if p is not None else d
    q = q if q is not None else d // p
    alpha = default_alphabet(d)
    q1 = np.zeros(p, dtype=complex); q1[0] = 1
    q2 = np.zeros(q, dtype=complex); q2[0] = 1
    return BlockQCA(alpha, p, q, np.eye(d, dtype=complex), np.eye(d, dtype=complex), q1, q2)


# ---------------------------------------------------------------- alphabet

def test_alphabet_indexing():
    assert BITS.d == 3
    assert BITS.index("q") == 0
    assert BITS.index("0") == 1
    assert BITS.index("1") == 2
    assert BITS.symbol(2) == "1"


def test_alphabet_rejects_duplicate_and_quiescent_clash():
    with pytest.raises(PreconditionViolated):
        Alphabet(("a", "a"))
    with pytest.raises(PreconditionViolated):
        Alphabet(("q", "a"), "q")


def test_alphabet_grouping_orders_quiescent_first():
    g = BITS.grouped(2)
    assert g.d == 9
    assert g.quiescent == "qq"
    assert g.symbols[0] == "q0"  # index 1 = digits (0, 1)
    assert g.symbols.index("00") + 1 == 1 * 3 + 1  # digits (1, 1)


# ----------------------------------------------------------- configuration

def test_configuration_canonical_trim():
    c = Configuration.make(5, (0, 0, 1, 0, 2, 0))
    assert c.start == 7
    assert c.word == (1, 0, 2)
    assert c.cell(7) == 1 and c.cell(8) == 0 and c.cell(9) == 2
    assert c.cell(100) == 0
    assert Configuration.make(3, (0, 0)).is_vacuum


def test_configuration_shift_roundtrip():
    c = config_from_cells(BITS, {0: "1", 2: "0"})
    assert shifted(shifted(c, 4), -4) == c
    assert shifted(c, 1).cell(-1) == BITS.index("1")


# ------------------------------------------------------------ sparse state

def test_state_shift_inverse_and_vacuum():
    s = random_sparse_state(BITS, range(0, 3), 4, seed=1)
    assert shift(shift(s, 3), -3).distance(s) == 0
    v = SparseState.vacuum(BITS)
    assert shift(v, 5).distance(v) == 0


def test_restrict_state_vacuum():
    rho = restrict_state(SparseState.vacuum(BITS), {0})
    expected = np.zeros((3, 3))
    expected[0, 0] = 1
    assert np.allclose(rho, expected)


def test_restrict_state_bell_pair():
    plus = SparseState(BITS, {
        config_from_cells(BITS, {0: "0", 1: "0"}): 1 / np.sqrt(2),
        config_from_cells(BITS, {0: "1", 1: "1"}): 1 / np.sqrt(2),
    })
    rho = restrict_state(plus, {0})
    expected = np.zeros((3, 3))
    expected[1, 1] = expected[2, 2] = 0.5
    assert np.allclose(rho, expected)
    # The two-cell restriction is the full (pure-state) projector.
    rho2 = restrict_state(plus, {0, 1})
    assert np.trace(rho2 @ rho2).real == pytest.approx(1.0)


# --------------------------------------------------------------- block QCA

def test_block_qca_validates_gauge():
    alpha = default_alphabet(2)
    q1 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(PreconditionViolated):
        # u does not map |q> to |q2>|q1>.
        BlockQCA(alpha, 2, 1, np.array([[0, 1], [1, 0]], dtype=complex),
                 np.eye(2, dtype=complex), q1, np.array([1.0], dtype=complex))


def test_apply_block_fixes_vacuum_exactly():
    for seed, (d, p, q) in enumerate([(2, 1, 2), (4, 2, 2), (6, 2, 3)]):
        g = random_block_qca(d, p, q, seed=seed)
        v = SparseState.vacuum(g.alphabet)
        out = apply_block(v, g)
        assert out.terms == v.terms


def test_apply_block_preserves_norm():
    for seed in range(3):
        g = random_block_qca(4, 2, 2, seed=seed)
        s = random_sparse_state(g.alphabet, range(0, 4), 5, seed=seed + 10)
        out = apply_block(s, g)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


def test_apply_block_support_growth_at_most_one():
    g = random_block_qca(4, 2, 2, seed=3)
    s = SparseState.from_cells(g.alphabet, {0: "1", 2: "3"})
    out = apply_block(s, g)
    lo, hi = out.support()
    assert lo >= -1 and hi <= 3


def test_apply_block_commutes_with_shift():
    g = random_block_qca(4, 2, 2, seed=5)
    s = random_sparse_state(g.alphabet, range(0, 3), 4, seed=6)
    a = shift(apply_block(s, g), 2)
    b = apply_block(shift(s, 2), g)
    assert a.distance(b) <= 1e-12


def test_apply_block_peak_memory_is_support_sized():
    # d = 6, support 7: the amplitude vector has d^(s+1) = 6^8 entries
    # (27 MB), and the bound allows four of them, far below one vector of
    # the padded support d^(s+3) (967 MB).  With u = v = I the output is one
    # configuration, so the peak is the dense amplitude arrays alone.
    d, p, q = 6, 2, 3
    g = identity_qca(d, p, q)
    word = [1, 2, 3, 4, 5, 1, 2]
    state = SparseState(g.alphabet, {Configuration.make(0, word): 1.0})
    tracemalloc.start()
    try:
        out = apply_block(state, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * d ** 8 * 16
    # output cell i is (b_i, a_{i+1}) = (c_i mod p, c_{i+1} div p)
    cells = [0] + word + [0]
    image = [(cells[i] % p) * q + cells[i + 1] // p for i in range(len(word) + 1)]
    assert out.terms == {Configuration.make(-1, image): 1.0}


def test_detect_signalling_peak_memory_is_term_sized():
    # d = 6 Haar block, two basis states of support 5: detect_signalling
    # reads each state's two-cell light cone, a d² x d² restriction, where
    # each apply_block image has ~41k terms (6^6 amplitudes computed)
    g = random_block_qca(6, 2, 3, seed=41)
    word_a = [int(x) for x in np.random.default_rng(41).integers(1, 6, size=5)]
    word_b = list(word_a)
    word_b[3] = word_a[3] % 5 + 1
    a, b = (SparseState(g.alphabet, {Configuration.make(0, w): 1.0}) for w in (word_a, word_b))
    tracemalloc.start()
    try:
        witness = detect_signalling(g, a, b, 0, (0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness is None
    assert peak <= 512 * 2**10


@pytest.mark.parametrize("width", [10, 30])
def test_detect_signalling_beyond_apply_block_cap(width):
    # two basis states of a d = 6 Haar block differing in their last cell:
    # apply_block refuses their 6^(width+1) amplitudes, the light cone of
    # output cell 0 reads input cells (0, 1) alone
    g = random_block_qca(6, 2, 3, seed=7)
    word_a = [int(x) for x in np.random.default_rng(7).integers(1, 6, size=width)]
    word_b = word_a[:-1] + [word_a[-1] % 5 + 1]
    a, b = (SparseState(g.alphabet, {Configuration.make(0, w): 1.0}) for w in (word_a, word_b))
    with pytest.raises(DimensionMismatch, match="amplitudes"):
        apply_block(a, g)
    tracemalloc.start()
    try:
        witness = detect_signalling(g, a, b, 0, (0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness is None
    assert peak <= 1 << 20


def test_apply_block_refuses_oversized_support_before_allocating():
    # 6^(10+1) amplitudes exceed DENSE_WINDOW_CAP² = 2^26 entries
    g = random_block_qca(6, 2, 3, seed=7)
    state = SparseState(g.alphabet, {Configuration.make(0, [1] * 10): 1.0})
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="amplitudes"):
            apply_block(state, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


# ------------------------------------------------------------ window basis

@st.composite
def window_bases(draw):
    """(d, w, indices): d in 1 ... 20 and w in 1 ... 8, or the narrow-dtype
    boundary d = 256, 257 at w <= 3; up to 40 indices in [0, d^w)."""
    d, w = draw(st.one_of(st.tuples(st.integers(1, 20), st.integers(1, 8)),
                          st.tuples(st.sampled_from([256, 257]), st.integers(1, 3))))
    idx = draw(st.lists(st.integers(0, d**w - 1), min_size=1, max_size=40))
    return d, w, np.array(idx, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(window_bases())
def test_window_codec_matches_numpy_index_order(basis):
    d, w, idx = basis
    digits = window_digits(idx, d, w)
    assert digits.dtype == np.min_scalar_type(d - 1)
    assert np.array_equal(digits, np.unravel_index(idx, (d,) * w))
    assert np.array_equal(window_index(digits, d), idx)
    assert np.array_equal(window_digits(idx, d, w, np.int64), digits)
    region = [i for i in range(w) if i % 3 == 1]
    comp = [i for i in range(w) if i % 3 != 1]
    kept, rest = window_split(digits, d, region)
    assert np.array_equal(kept, window_index(digits[region], d))
    assert np.array_equal(rest, window_index(digits[comp], d))
    if d**w <= 1 << 16:
        every = window_digits(np.arange(d**w), d, w)
        for k in range(-w, w + 1):
            assert np.array_equal(window_rotation(d, w, k),
                                  window_index(np.roll(every, -k, axis=0), d))


# ---------------------------------------------------------- window matrix

def test_window_matrix_identity_blocks():
    g = identity_qca(d=2)
    op = window_matrix(g, 3)
    assert np.allclose(op.dense(), np.eye(8))


def test_window_matrix_unitary_and_quiescent_column():
    for seed, (d, p, q) in enumerate([(2, 2, 1), (4, 2, 2), (6, 3, 2)]):
        g = random_block_qca(d, p, q, seed=seed + 20)
        for w in (2, 3):
            m = window_matrix(g, w).dense()
            assert la.is_unitary(m, tol=1e-10)
            col = m[:, 0]
            expected = np.zeros(d**w)
            expected[0] = 1
            assert np.linalg.norm(col - expected) <= 1e-9


def test_window_matrix_matches_kron_product_oracle():
    # (⊗v) P (⊗u), with P the permutation that takes the u-layer's half-cell
    # digits (a_0, b_0, ..., a_{w-1}, b_{w-1}) to cells (b_i, a_{i+1 mod w})
    for seed, (d, p, q) in enumerate([(2, 2, 1), (2, 1, 2), (4, 2, 2), (6, 2, 3), (6, 3, 2)]):
        g = random_block_qca(d, p, q, seed=seed + 60)
        for w in ((2, 3, 4) if d <= 4 else (2, 3)):
            n = d**w
            perm = np.zeros((n, n))
            for x in range(n):
                digits = np.unravel_index(x, [q, p] * w)
                a, b = digits[0::2], digits[1::2]
                cells = [b[i] * q + a[(i + 1) % w] for i in range(w)]
                perm[np.ravel_multi_index(cells, [d] * w), x] = 1
            oracle = reduce(np.kron, [g.v] * w) @ perm @ reduce(np.kron, [g.u] * w)
            assert la.max_norm(window_matrix(g, w).dense() - oracle) <= 1e-12


def test_window_matrix_peak_memory():
    # d = 6, w = 4: the n x n window is 25.6 MiB; the output is written one
    # column block at a time, so the bound allows it and a quarter copy of
    # block buffers (1.13 copies; the Kronecker power, its transposed copy
    # and a second n x n buffer took 2.0)
    g = random_block_qca(6, 2, 3, seed=61)
    n = 6**4
    tracemalloc.start()
    try:
        window_matrix(g, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n**2 * 16


def test_window_matrix_agrees_with_apply_block():
    # Dense window oracle vs sparse application on all single-cell
    # excitations, d <= 3.
    for d, p, q in [(2, 2, 1), (3, 3, 1), (3, 1, 3)]:
        g = random_block_qca(d, p, q, seed=d)
        w = 5
        op = window_matrix(g, w)
        m = op.dense()
        for cell in (1, 2, 3):
            for sym in range(1, d):
                state = SparseState(
                    g.alphabet, {Configuration.make(cell, (sym,)): 1.0})
                sparse_out = apply_block(state, g)
                col = np.zeros(d**w, dtype=complex)
                col[sym * d ** (w - 1 - cell)] = 1.0
                dense_out = m @ col
                for idx in np.flatnonzero(np.abs(dense_out) > 1e-12):
                    word = [(idx // d ** (w - 1 - i)) % d for i in range(w)]
                    cfg = Configuration.make(0, word)
                    assert sparse_out.terms.get(cfg, 0.0) == pytest.approx(
                        dense_out[idx], abs=1e-10)


# --------------------------------------------------------------- quantize

def xor_rule():
    # delta(q, x) = x, delta(x, q) = q, delta(x, y) = x xor y.
    t = np.zeros((3, 3), dtype=np.int64)
    t[0, 1], t[0, 2] = 1, 2
    t[1, 0], t[2, 0] = 0, 0
    t[1, 1], t[1, 2], t[2, 1], t[2, 2] = 1, 2, 2, 1
    return ClassicalRule(BITS, t)


def test_quantize_identity_rule():
    # delta(x, y) = x is the identity evolution; on the window the matrix is
    # the one-cell output relabel, which the out_shift decoding undoes.
    t = np.zeros((3, 3), dtype=np.int64)
    for x in range(3):
        for y in range(3):
            t[x, y] = x
    rule = ClassicalRule(BITS, t)
    op = quantize(rule, 4)
    assert op.out_shift == -1
    s = SparseState.from_cells(BITS, {1: "1", 2: "0"})
    assert apply_window(op, s).distance(s) == 0


def test_quantize_xor_window_example():
    # Window word q10q maps cellwise to delta(q,1)=1, delta(1,0)=1,
    # delta(0,q)=q, delta(q,q[boundary])=q -> 11qq.
    rule = xor_rule()
    op = quantize(rule, 4)
    src = config_from_cells(BITS, {1: "1", 2: "0"})
    state = SparseState(BITS, {src: 1.0})
    out = apply_window(op, state)
    assert len(out.terms) == 1
    (cfg, amp), = out.terms.items()
    assert amp == pytest.approx(1.0)
    assert cfg == config_from_cells(BITS, {0: "1", 1: "1"})


def test_quantize_xor_injective_w6():
    # Exhaustive enumeration over all 3^6 window words.
    op = quantize(xor_rule(), 6)
    assert len(set(op.matrix.tolist())) == 3**6


def test_window_operator_rejects_malformed_column_maps():
    n = BITS.d ** 2
    rows = np.arange(n)[::-1]
    assert WindowOperator(BITS, 2, rows).is_one_hot
    for bad in [rows[:-1],              # wrong length
                rows + 1,               # row n out of range
                rows - 1,               # row -1 out of range
                rows.reshape(3, 3),     # not 1-D
                rows.astype(float)]:    # rows not integers
        with pytest.raises(DimensionMismatch):
            WindowOperator(BITS, 2, bad)


@pytest.mark.parametrize("d, w", [(16, 8), (2, 27)])
def test_quantize_refuses_oversized_window_before_allocating(d, w):
    # d^w basis words exceed DENSE_WINDOW_CAP² = 2^26 entries (2^26 itself
    # is the largest window quantize builds)
    rule = ClassicalRule(default_alphabet(d), np.zeros((d, d), dtype=np.int64))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="largest dense window"):
            quantize(rule, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_quantize_rejects_nonquiescent_rule():
    t = np.zeros((3, 3), dtype=np.int64)
    t[0, 0] = 1
    with pytest.raises(PreconditionViolated):
        ClassicalRule(BITS, t)


def test_classical_rule_apply_is_linear_extension():
    rule = xor_rule()
    a = config_from_cells(BITS, {0: "1"})
    b = config_from_cells(BITS, {0: "0"})
    s = SparseState(BITS, {a: 0.6, b: 0.8})
    out = rule.apply(s)
    assert out.terms[step_config(rule, a)] == pytest.approx(0.6)
    assert out.terms[step_config(rule, b)] == pytest.approx(0.8)


# ---------------------------------------------------------------- grouping

def test_group_state_roundtrip():
    s = random_sparse_state(BITS, range(-2, 3), 5, seed=13)
    grouped = group_cells(s, 2)
    back = ungroup_cells(grouped, BITS, 2)
    assert back.distance(s) <= 1e-15


def test_group_window_identity():
    g = identity_qca(d=2)
    op = window_matrix(g, 4)
    grouped = group_cells(op, 2)
    assert grouped.width == 2
    assert grouped.alphabet.d == 4
    assert np.allclose(grouped.dense(), np.eye(16))


def test_group_window_indivisible():
    g = identity_qca(d=2)
    op = window_matrix(g, 3)
    with pytest.raises(IndivisibleWidth):
        group_cells(op, 2)


def test_grouped_rule_preserves_action():
    rule = xor_rule()
    grouped = rule.grouped(2)
    s = random_sparse_state(BITS, range(0, 4), 6, seed=17)
    direct = group_cells(rule.apply(s), 2)
    via_grouped = grouped.apply(group_cells(s, 2))
    assert direct.distance(via_grouped) <= 1e-12


def test_grouped_window_action_matches():
    g = random_block_qca(2, 2, 1, seed=23)
    op = window_matrix(g, 8)
    grouped = group_cells(op, 2)
    s = SparseState.from_cells(g.alphabet, {3: "1", 4: "1"})
    out_base = apply_window(op, s)
    out_grouped = apply_window(grouped, group_cells(s, 2), offset=0)
    assert group_cells(out_base, 2).distance(out_grouped) <= 1e-12


# ------------------------------------------------------------ apply_window

def test_apply_window_requires_slack():
    g = random_block_qca(2, 2, 1, seed=29)
    op = window_matrix(g, 4)
    s = SparseState.from_cells(g.alphabet, {0: "1"})
    with pytest.raises(WindowTooSmall):
        apply_window(op, s)


def test_apply_window_one_hot_matches_densified():
    # a column map that is a permutation or merges columns: the reindexed
    # image equals the dense product, with the amplitudes of merged rows
    # summed
    rng = np.random.default_rng(31)
    n = BITS.d ** 4
    for rows in (rng.permutation(n), rng.integers(0, 9, size=n)):
        op = WindowOperator(BITS, 4, rows)
        dense = WindowOperator(BITS, 4, op.dense())
        s = random_sparse_state(BITS, range(0, 4), 6, seed=32)
        got = apply_window(op, s, strict=False)
        assert got.distance(apply_window(dense, s, strict=False)) <= 1e-12


def test_fit_offset_places_support():
    g = random_block_qca(2, 2, 1, seed=31)
    op = window_matrix(g, 6)
    s = SparseState.from_cells(g.alphabet, {7: "1"})
    off = fit_offset(op, [s.support()])
    shifted_lo = 7 - off
    assert 1 <= shifted_lo - 1 and shifted_lo <= op.width - 2


def test_apply_window_matches_apply_block():
    g = random_block_qca(3, 3, 1, seed=37)
    op = window_matrix(g, 5)
    s = random_sparse_state(g.alphabet, range(1, 4), 4, seed=38)
    via_window = apply_window(op, s)
    direct = apply_block(s, g)
    assert via_window.distance(direct) <= 1e-10
