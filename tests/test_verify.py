"""Verifier checks: unitarity, shift invariance, neighborhoods, the
inverse-locality mirror, signalling detection, and the block-native path."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from gallery_specs import xor_signalling_pair
from random_inputs import random_block_qca, random_sparse_state
from qcablocks import linalg as la
from qcablocks import verify
from qcablocks.decompose import _rotate_rows
from qcablocks.errors import PreconditionViolated, WindowTooSmall
from qcablocks.gallery import (
    phase_qca,
    shift_qca,
    swap_qca,
    toffoli_ca,
    xor_ca,
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
    group_cells,
    quantize,
    restrict_state,
    window_matrix,
)
from qcablocks.rand import default_alphabet, random_unitary
from qcablocks.verify import (
    _block_defects,
    _block_patch,
    _block_patch_units,
    _light_cone_distance,
    _light_cone_slack,
    _light_cone_state,
    _unit_conjugation,
    block_neighborhood,
    check_inverse_locality,
    check_shift_invariance,
    check_unitary,
    detect_signalling,
    fast_localization_residual,
    max_testable_radius,
    neighborhood,
)


# ---------------------------------------------------------------- unitarity

def test_xor_quantization_is_unitary_on_window():
    # Derived oracle: the column map must be an injective basis permutation;
    # exhaustively check 3^6 window words.
    op = quantize(xor_ca(), 6)
    rows = op.matrix
    assert rows.shape == (3**6,) and rows.dtype == np.int64
    assert len(set(rows.tolist())) == 3**6
    assert check_unitary(op)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_unitary_peak_memory():
    # the Hermitian half of m† m in column blocks: no n x n product,
    # identity, difference or conjugate copy (the full product took 2.0
    # window copies)
    op = window_matrix(random_block_qca(6, 2, 3, seed=7), 4)
    ok, peak = _traced_peak(lambda: check_unitary(op))
    assert ok
    assert peak <= 0.75 * op.dim ** 2 * 16


def test_one_hot_stages_hold_at_most_one_rows_array_of_scratch():
    # grouped Toffoli at w = 4 (d = 16, n = 65536), traced scratch in units
    # of one int64 rows array (8n bytes): a permutation window carries no
    # phase array, and a unit reads only the n/d inputs it needs, so the
    # injectivity count (unitarity, the verdict's bijection test) is one
    # rows array, the shift-invariance check reads only the images it
    # compares, and neighborhood adds the adjoint map to them
    op = quantize(group_cells(toffoli_ca(), 2), 4, "periodic")
    rows_array = 8 * op.dim

    def forward_unit():
        unit, _ = _unit_conjugation(op, 1, forward=True)
        return len(unit(0, 1)[0]) == op.dim // 16

    for stage, bound in ((lambda: check_unitary(op), 1.1),
                         (lambda: check_shift_invariance(op), 1.1),
                         (forward_unit, 1.1),
                         (lambda: neighborhood(op, max_radius=1).is_local, 2.5)):
        ok, peak = _traced_peak(stage)
        assert ok
        assert peak <= bound * rows_array, (peak / rows_array, bound)


def test_rotated_shift_invariance_rotates_only_the_compared_images():
    # grouped Toffoli at w = 4 (d = 16, n = 65536), and the same window
    # rotated by -1 cell: at every shift the rotation is applied to the n/d²
    # compared images alone (the whole rotation map and its temporaries
    # took 3.01 rows arrays at shift ±1, and 1.02 at 0), and the verdict is
    # that of the explicitly rotated window
    op = quantize(group_cells(toffoli_ca(), 2), 4, "periodic")
    rows_array = 8 * op.dim
    for base in (op, _rotate_rows(op, -1)):
        for shift in (0, 1, -1):
            want = check_shift_invariance(_rotate_rows(base, shift))
            ok, peak = _traced_peak(lambda: check_shift_invariance(base, shift=shift))
            assert ok == want
            assert peak <= 0.1 * rows_array, (shift, peak / rows_array)
    assert check_shift_invariance(_rotate_rows(op, -1), shift=1)


def test_block_window_is_unitary():
    for seed in range(3):
        g = random_block_qca(4, 2, 2, seed=seed)
        assert check_unitary(window_matrix(g, 4))


def test_constant_rule_is_not_unitary():
    from qcablocks.model import ClassicalRule
    alpha = Alphabet(("0", "1"), "q")
    table = np.zeros((3, 3), dtype=np.int64)  # delta(x, y) = q for all pairs
    rule = ClassicalRule(alpha, table)
    assert not check_unitary(quantize(rule, 4))


# --------------------------------------------------------- shift invariance

def test_quantized_rules_are_shift_invariant():
    assert check_shift_invariance(quantize(xor_ca(), 6))
    assert check_shift_invariance(quantize(toffoli_ca(), 4, "periodic"))


def test_block_windows_are_shift_invariant():
    g = random_block_qca(4, 2, 2, seed=11)
    assert check_shift_invariance(window_matrix(g, 5))


def test_patched_window_is_not_shift_invariant():
    g = random_block_qca(2, 2, 1, seed=12)
    m = window_matrix(g, 4).dense()
    # scramble the action on the cell-1 excitation only (an interior word)
    m[:, 4] = m[:, 4] * np.exp(0.3j)
    patched = WindowOperator(g.alphabet, 4, m, "periodic")
    assert not check_shift_invariance(patched)


# ------------------------------------------------------------- neighborhood

def test_block_neighborhood_radius_half():
    for seed, (d, p, q) in enumerate([(4, 2, 2), (6, 2, 3)]):
        g = random_block_qca(d, p, q, seed=seed + 30)
        rep = neighborhood(window_matrix(g, 4), max_radius=1)
        assert rep.is_local
        lo, hi = rep.neighborhood
        assert 0 <= lo <= hi <= 1


def test_phase_qca_neighborhood_is_origin():
    rep = neighborhood(window_matrix(phase_qca(), 4), max_radius=1)
    assert rep.is_local
    assert rep.neighborhood == (0, 0)


def test_shift_qca_neighborhood_is_right_cell():
    rep = neighborhood(window_matrix(shift_qca(), 4), max_radius=1)
    assert rep.is_local
    assert rep.neighborhood == (1, 1)


def test_xor_neighborhood_nonlocal_with_witness():
    op = quantize(xor_ca(), 8)
    assert max_testable_radius(op) == 2
    for radius in (1, 2):
        rep = neighborhood(op, max_radius=radius)
        assert not rep.is_local
        assert rep.neighborhood is None
        assert rep.witness is not None
        assert rep.witness.trace_distance > 1e-9
        # the witness states really do have equal context restrictions
        wa, wb = rep.witness.state_a, rep.witness.state_b
        ra = restrict_state(wa, rep.witness.context)
        rb = restrict_state(wb, rep.witness.context)
        assert la.max_norm(ra - rb) <= 1e-9


def test_xor_witness_peak_memory():
    # the witness pair is built as |r> ⊗ |v_a>, |r> ⊗ |v_b>, so its context
    # restrictions, dense 3^6 x 3^6 matrices (8.5 MB each), are not formed
    op = quantize(xor_ca(), 8)
    rep, peak = _traced_peak(lambda: neighborhood(op, max_radius=2))
    assert rep.witness is not None and rep.witness.context == (1, 2, 3, 4, 5, 6)
    assert peak <= 4 * 2 ** 20


def test_neighborhood_radius_exceeding_slack_raises():
    op = quantize(xor_ca(), 8)
    with pytest.raises(WindowTooSmall):
        neighborhood(op, max_radius=3)


def test_generic_unitary_window_is_nonlocal_with_witness():
    # a Haar-random window is almost surely not local; the full-window
    # interval must not count as a neighborhood, and the report still
    # carries a demonstrative witness
    from qcablocks.rand import default_alphabet, random_unitary
    alpha = default_alphabet(2)
    op = WindowOperator(alpha, 4, random_unitary(16, seed=123), "periodic")
    rep = neighborhood(op, max_radius=1)
    assert not rep.is_local
    assert rep.witness is not None and rep.witness.trace_distance > 1e-9
    ra = restrict_state(rep.witness.state_a, rep.witness.context)
    rb = restrict_state(rep.witness.state_b, rep.witness.context)
    assert la.max_norm(ra - rb) <= 1e-9


def test_neighborhood_rejects_noninjective_one_hot():
    from qcablocks.model import Alphabet, ClassicalRule
    alpha = Alphabet(("0", "1"), "q")
    rule = ClassicalRule(alpha, np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(PreconditionViolated):
        neighborhood(quantize(rule, 6), max_radius=1)


def test_toffoli_supercell_neighborhood_radius_three_halves():
    # Minimal quantum neighborhood {0, 1, 2}: strictly wider than the
    # classical radius-1/2 support {0, 1} (the smallest-first search would
    # have returned a width-2 interval if one worked), giving radius 3/2
    # about the half-shift center.
    op = quantize(toffoli_ca(), 6, "periodic")
    rep = neighborhood(op, max_radius=1, make_witness=False)
    assert rep.is_local
    assert rep.neighborhood == (0, 2)
    rep2 = neighborhood(op, max_radius=2, make_witness=False)
    assert rep2.neighborhood == (0, 2)


def test_neighborhood_monotone_under_superset():
    g = random_block_qca(4, 2, 2, seed=40)
    op = window_matrix(g, 5)
    rep = neighborhood(op, max_radius=1)
    lo, hi = rep.neighborhood
    cc = 2
    unit, _ = _unit_conjugation(op, cc, forward=False)
    for k in range(4):
        for l in range(4):
            entry = unit(k, l)
            for grow in [(lo - 1, hi), (lo, hi + 1), (lo - 1, hi + 1)]:
                region = range(cc + grow[0], cc + grow[1] + 1)
                if min(region) < 0 or max(region) > op.width - 1:
                    continue
                assert fast_localization_residual(entry, 4, 5, [region])[0][0] <= 1e-9


def test_neighborhood_dense_peak_memory():
    # every unit streamed in row blocks and scored on all nine candidates in
    # one pass: one part of G, one row block, its |.| and the kept diagonal
    # blocks (0.72 window copies; whole units took 1.78, and with the
    # adjoint, a slice stack and transposed copies 3.6)
    op = window_matrix(random_block_qca(6, 2, 3, seed=7), 4)
    rep, peak = _traced_peak(lambda: neighborhood(op, max_radius=1))
    assert rep.neighborhood == (0, 1)
    assert peak <= 0.75 * op.dim ** 2 * 16


def test_inverse_locality_dense_peak_memory():
    # forward units streamed in row blocks: one conjugated part of G, one
    # row block and its |.| (0.36 window copies; whole units took 1.54)
    op = window_matrix(random_block_qca(6, 2, 3, seed=7), 4)
    ok, peak = _traced_peak(lambda: check_inverse_locality(op, (0, 1)))
    assert ok
    assert peak <= 0.75 * op.dim ** 2 * 16


def test_haar_window_witness_is_valid_and_lean():
    # a non-local dense verdict builds each Hermitian probe only when it is
    # tried and reads its region blocks off index views: within 4 window
    # copies (building every unit up front and grouping a dense unit's
    # entries in a Python loop took 31 copies at n = 256)
    op = WindowOperator(default_alphabet(4), 4, random_unitary(256, seed=5), "periodic")
    rep, peak = _traced_peak(lambda: neighborhood(op, max_radius=1))
    assert not rep.is_local and rep.neighborhood is None
    assert peak <= 4 * op.dim ** 2 * 16
    wit = rep.witness
    ra = restrict_state(wit.state_a, wit.context)
    rb = restrict_state(wit.state_b, wit.context)
    assert la.max_norm(ra - rb) <= 1e-10
    assert wit.trace_distance > la.DEFAULT_TOL
    images = [restrict_state(apply_window(op, st_, offset=0, strict=False), {wit.cell})
              for st_ in (wit.state_a, wit.state_b)]
    assert la.trace_distance(*images) == pytest.approx(wit.trace_distance, abs=1e-12)


# -------------------------------------------------------- inverse locality

def test_localization_duality_on_block_windows():
    # neighborhood N for G implies G A G† localized on -N.
    for seed, (d, p, q) in enumerate([(2, 2, 1), (4, 2, 2)]):
        g = random_block_qca(d, p, q, seed=seed + 50)
        op = window_matrix(g, 5)
        rep = neighborhood(op, max_radius=1)
        assert rep.is_local
        assert check_inverse_locality(op, rep.neighborhood)


def test_identity_window_localized_both_ways():
    from qcablocks.rand import default_alphabet
    alpha = default_alphabet(2)
    q1 = np.array([1, 0], dtype=complex)
    q2 = np.array([1], dtype=complex)
    from qcablocks.model import BlockQCA
    g = BlockQCA(alpha, 2, 1, np.eye(2, dtype=complex), np.eye(2, dtype=complex), q1, q2)
    op = window_matrix(g, 4)
    rep = neighborhood(op, max_radius=1)
    assert rep.neighborhood == (0, 0)
    assert check_inverse_locality(op, (0, 0))


# ------------------------------------------------------ brute-force oracle
#
# The oracle conjugates every matrix unit densely through embed_on_factors,
# tests all d^2 of them on every candidate, and picks the first passing
# candidate in (width, lo) order; the streamed search must agree exactly.

def _oracle_units(op, cell, forward):
    g = op.dense()
    d, w = op.alphabet.d, op.width
    out = []
    for _, _, e in oracle.matrix_units(d):
        emb = oracle.embed_on_factors(e, (d,) * w, {cell})
        out.append(g @ emb @ la.dagger(g) if forward else la.dagger(g) @ emb @ g)
    return out


def _oracle_localized(units, d, w, region):
    return all(la.localization_residual(t, (d,) * w, region) <= la.DEFAULT_TOL
               for t in units)


def _oracle_neighborhood(op, max_radius):
    d, w = op.alphabet.d, op.width
    cc = (w - 1) // 2
    units = _oracle_units(op, cc, forward=False)
    cands = sorted(((lo, hi) for lo in range(-max_radius, max_radius + 2)
                    for hi in range(lo, max_radius + 2)
                    if cc + lo >= 0 and cc + hi <= w - 1 and hi - lo + 1 < w),
                   key=lambda c: (c[1] - c[0], c[0]))
    for lo, hi in cands:
        if _oracle_localized(units, d, w, range(cc + lo, cc + hi + 1)):
            return (lo - op.out_shift, hi - op.out_shift)
    return None


def _assert_matches_oracle(op, max_radius, make_witness=True):
    d, w = op.alphabet.d, op.width
    cc = (w - 1) // 2
    rep = neighborhood(op, max_radius=max_radius, make_witness=make_witness)
    expected = _oracle_neighborhood(op, max_radius)
    assert rep.neighborhood == expected
    assert rep.is_local == (expected is not None)
    if expected is None and make_witness:
        assert rep.witness is not None and rep.witness.trace_distance > 1e-9
    forward = _oracle_units(op, cc, forward=True)
    for lo in range(-max_radius, max_radius + 2):
        for hi in range(lo, max_radius + 2):
            wlo, whi = -hi + op.out_shift, -lo + op.out_shift
            if cc + wlo < 0 or cc + whi > w - 1:
                with pytest.raises(WindowTooSmall):
                    check_inverse_locality(op, (lo, hi))
                continue
            region = range(cc + wlo, cc + whi + 1)
            assert check_inverse_locality(op, (lo, hi)) == \
                _oracle_localized(forward, d, w, region)
    return rep


@st.composite
def streamed_windows(draw):
    """A dense window: a random block window at (d, p, q) in (2, 1, 2),
    (4, 2, 2), (6, 2, 3), (6, 3, 2) of width 4 or 5 (5 only up to
    dimension 1024), or a Haar-random unitary window at d = 2 ... 4."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.integers(0, 4)) == 0:
        d, w = draw(st.sampled_from([(2, 4), (2, 5), (3, 4), (4, 4)]))
        return WindowOperator(default_alphabet(d), w, random_unitary(d**w, seed=seed),
                              "periodic")
    d, p, q = draw(st.sampled_from([(2, 1, 2), (4, 2, 2), (6, 2, 3), (6, 3, 2)]))
    w = draw(st.sampled_from([4, 5] if d**5 <= 1024 else [4]))
    return window_matrix(random_block_qca(d, p, q, seed=seed), w)


@settings(max_examples=12, deadline=None)
@given(streamed_windows(), st.integers(-1, 2))
def test_streamed_verdicts_match_whole_unit_oracle(op, lo):
    # the row-block search against the generator check on whole units:
    # the same neighborhood, and the same inverse verdict at it and at one
    # more interval; a non-local verdict carries a valid witness
    d, w = op.alphabet.d, op.width
    cc = (w - 1) // 2
    rep = neighborhood(op, max_radius=1)
    cands = sorted(((a, b) for a in range(-1, 3) for b in range(a, 3)
                    if cc + a >= 0 and cc + b <= w - 1 and b - a + 1 < w),
                   key=lambda c: (c[1] - c[0], c[0]))
    found = oracle.whole_unit_first_localized(
        op, cc, False, [range(cc + a, cc + b + 1) for a, b in cands], la.DEFAULT_TOL)
    assert rep.neighborhood == (None if found is None else cands[found])
    if found is None:
        wit = rep.witness
        assert la.max_norm(restrict_state(wit.state_a, wit.context)
                           - restrict_state(wit.state_b, wit.context)) <= 1e-10
        assert wit.trace_distance > la.DEFAULT_TOL
    for interval in {rep.neighborhood or (0, 1), (lo, min(lo + 1, 2))}:
        wlo, whi = -interval[1] + op.out_shift, -interval[0] + op.out_shift
        if cc + wlo < 0 or cc + whi > w - 1:
            continue
        want = oracle.whole_unit_first_localized(
            op, cc, True, [range(cc + wlo, cc + whi + 1)], la.DEFAULT_TOL) is not None
        assert check_inverse_locality(op, interval) == want


def test_neighborhood_matches_oracle_on_gallery_windows():
    local = [(window_matrix(shift_qca(), 4), 1), (window_matrix(phase_qca(), 4), 1),
             (window_matrix(swap_qca(), 4), 1),
             (quantize(toffoli_ca(), 4, "periodic"), 1)]
    for op, radius in local:
        assert _assert_matches_oracle(op, radius).is_local
    assert not _assert_matches_oracle(quantize(xor_ca(), 6), 1).is_local


def test_neighborhood_matches_oracle_on_random_blocks():
    cases = [((2, 2, 1), 5, 1), ((4, 2, 2), 4, 1), ((4, 1, 4), 4, 1),
             ((6, 2, 3), 3, 0), ((6, 3, 2), 3, 0)]
    for seed, ((d, p, q), w, radius) in enumerate(cases):
        g = random_block_qca(d, p, q, seed=seed + 80)
        assert _assert_matches_oracle(window_matrix(g, w), radius).is_local


def test_neighborhood_matches_oracle_on_perturbed_windows():
    # a weak coupling two cells apart, applied before (d = 2) or after
    # (d = 4) the evolution, pushes the backward image outside every
    # candidate region
    from scipy.linalg import expm

    def coupling(d, w, cells, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        v = expm(1e-3j * (h + la.dagger(h)))
        rest = [c for c in range(w) if c not in cells]
        perm = np.transpose(np.arange(d**w).reshape([d] * w), [*cells, *rest]).ravel()
        out = np.zeros((d**w, d**w), dtype=complex)
        out[np.ix_(perm, perm)] = np.kron(v, np.eye(d ** len(rest)))
        return out

    g2 = window_matrix(random_block_qca(2, 2, 1, seed=90), 5)
    g4 = window_matrix(random_block_qca(4, 2, 2, seed=91), 4)
    for op, mat in ((g2, g2.dense() @ coupling(2, 5, (0, 2), 92)),
                    (g4, coupling(4, 4, (1, 3), 93) @ g4.dense())):
        bad = WindowOperator(op.alphabet, op.width, mat, op.boundary)
        assert check_unitary(bad)
        rep = _assert_matches_oracle(bad, 1)
        assert not rep.is_local and rep.witness is not None


# ------------------------------------------- generator check vs the oracle
#
# Verdicts come from the d generators T_0l and a norm bound, with the
# exhaustive stream as fallback; they must equal the oracle's everywhere,
# including near tol and on windows that are not unitary.

BLOCK_CASES = [((2, 1, 2), 5, 1), ((2, 2, 1), 5, 1), ((4, 2, 2), 4, 1),
               ((6, 2, 3), 3, 0), ((6, 3, 2), 3, 0)]


def _relabelled(rule, seed):
    """The rule under a random symbol permutation fixing the quiescent one."""
    d = rule.alphabet.d
    rng = np.random.default_rng(seed)
    relabel = np.concatenate([[0], 1 + rng.permutation(d - 1)])
    inv = np.argsort(relabel)
    return ClassicalRule(rule.alphabet, relabel[rule.table[inv[:, None], inv[None, :]]])


def _rank_two_kick(op, eps, seed, left):
    """op composed with exp(i eps H), H = V diag(1, -1) V† for two
    orthonormal columns V on a few basis states, on the left or right."""
    rng = np.random.default_rng(seed)
    v = np.zeros((op.dim, 2), dtype=complex)
    for j in range(2):
        rows = rng.choice(op.dim, size=2, replace=False)
        v[rows, j] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v, _ = np.linalg.qr(v)
    kick = np.eye(op.dim) + (v * (np.exp(1j * eps * np.array([1.0, -1.0])) - 1.0)) @ la.dagger(v)
    mat = kick @ op.dense() if left else op.dense() @ kick
    return WindowOperator(op.alphabet, op.width, mat, op.boundary)


@st.composite
def oracle_cases(draw):
    """(window, radius, witness wanted): a gallery window, a random block at
    one of the five splits, a relabelled one-hot ring rule, or a random
    block window under a rank-2 kick with eps from 0.3 to 30 times tol."""
    kind = draw(st.sampled_from(["gallery", "block", "ring", "kick"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "gallery":
        return draw(st.sampled_from([
            (window_matrix(shift_qca(), 4), 1, True), (window_matrix(phase_qca(), 4), 1, True),
            (window_matrix(swap_qca(), 4), 1, True),
            (quantize(toffoli_ca(), 4, "periodic"), 1, True), (quantize(xor_ca(), 6), 1, True)]))
    if kind == "ring":
        rule = draw(st.sampled_from([toffoli_ca(), xor_ca()]))
        op = quantize(_relabelled(rule, seed), 4 if rule.alphabet.d == 4 else 6,
                      "periodic" if rule.alphabet.d == 4 else "truncated")
        return op, 1, True
    (d, p, q), w, radius = draw(st.sampled_from(BLOCK_CASES[:3] if kind == "kick"
                                                else BLOCK_CASES))
    op = window_matrix(random_block_qca(d, p, q, seed=seed), w)
    if kind == "block":
        return op, radius, True
    eps = la.DEFAULT_TOL * 10 ** draw(st.floats(-0.5, 1.5))
    return _rank_two_kick(op, eps, seed, draw(st.booleans())), radius, False


@settings(max_examples=30, deadline=None)
@given(oracle_cases())
def test_generator_check_matches_oracle(case):
    op, radius, make_witness = case
    _assert_matches_oracle(op, radius, make_witness)


@st.composite
def intertwiner_cases(draw):
    """A dense window: a random block window, a Haar-random unitary (not
    local), or a random block window G (I + eps H), H = X ⊗ X on the probed
    cell and the cell two to its right (X swapping symbols 0 and 1), with
    eps 0.3 or 3 times tol: off the neighborhood, and not unitary."""
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["block", "haar", "perturbed"]))
    if kind == "haar":
        d, w = draw(st.sampled_from([(2, 4), (2, 5), (3, 4)]))
        return WindowOperator(default_alphabet(d), w, random_unitary(d**w, seed=seed),
                              "periodic")
    (d, p, q), w = draw(st.sampled_from([((2, 1, 2), 5), ((2, 2, 1), 5), ((4, 2, 2), 4),
                                         ((6, 2, 3), 4), ((6, 3, 2), 4)]))
    op = window_matrix(random_block_qca(d, p, q, seed=seed), w)
    if kind == "block":
        return op
    eps = draw(st.sampled_from([0.3, 3.0])) * la.DEFAULT_TOL
    cc = (w - 1) // 2
    x = np.zeros((d, d))
    x[0, 1] = x[1, 0] = 1.0
    h = oracle.embed_on_factors(np.kron(x, x), (d,) * w, {cc, cc + 2})
    return WindowOperator(op.alphabet, w, op.dense() @ (np.eye(op.dim) + eps * h),
                          op.boundary)


@settings(max_examples=12, deadline=None)
@given(intertwiner_cases())
def test_intertwiner_bounds_hold_and_verdicts_match_oracle(op):
    # on every T_00 survivor, in both directions, the intertwiner bound is
    # at least the exact max defect of all d² formed units (those with
    # k <= l: T_lk = T_kl† has the same defect), up to their rounding, so
    # the verdict proves no survivor at a tol just below that defect; and
    # the verdicts, which form the units only where the bound exceeds tol,
    # are the whole-unit oracle's
    d, w = op.alphabet.d, op.width
    cc = (w - 1) // 2
    tol = la.DEFAULT_TOL
    cands = sorted(((a, b) for a in range(-1, 3) for b in range(a, 3)
                    if cc + a >= 0 and cc + b <= w - 1 and b - a + 1 < w),
                   key=lambda c: (c[1] - c[0], c[0]))
    regions = [range(cc + a, cc + b + 1) for a, b in cands]
    for forward in (False, True):
        unit, verdict = _unit_conjugation(op, cc, forward)
        for region, (resid0, eps0) in zip(regions, fast_localization_residual(
                unit(0, 0), d, w, regions)):
            if resid0 > tol:
                continue
            worst = max(fast_localization_residual(unit(k, l), d, w, [region])[0][0]
                        for k in range(d) for l in range(k, d))
            assert verdict(w, region, eps0, worst - 1e-13) is None, (forward, region, worst)
    rep = neighborhood(op, max_radius=1, make_witness=False)
    found = oracle.whole_unit_first_localized(op, cc, False, regions, tol)
    assert rep.neighborhood == (None if found is None else cands[found])
    interval = rep.neighborhood or (0, 1)
    wlo, whi = -interval[1] + op.out_shift, -interval[0] + op.out_shift
    if cc + wlo >= 0 and cc + whi <= w - 1:
        want = oracle.whole_unit_first_localized(
            op, cc, True, [range(cc + wlo, cc + whi + 1)], tol) is not None
        assert check_inverse_locality(op, interval) == want


def test_local_dense_windows_form_only_t00(monkeypatch):
    # on local Haar block windows the intertwiner bound proves every unit
    # on the first T_00 survivor, so each direction streams one whole unit,
    # T_00, scored on all its candidate regions at once
    calls = []
    real = verify.fast_localization_residual

    def counted(t, *args):
        assert not isinstance(t, tuple)  # a dense unit
        calls.append(args)
        return real(t, *args)

    monkeypatch.setattr(verify, "fast_localization_residual", counted)
    for seed, ((d, p, q), w) in enumerate([((6, 2, 3), 4), ((6, 3, 2), 4),
                                           ((4, 2, 2), 5), ((2, 2, 1), 5)]):
        op = window_matrix(random_block_qca(d, p, q, seed=seed + 6100), w)
        calls.clear()
        rep = neighborhood(op, max_radius=1)
        assert rep.is_local and len(calls) == 1
        calls.clear()
        assert check_inverse_locality(op, rep.neighborhood)
        assert len(calls) == 1


def _diagonal_window(f, d, w):
    """The window G = diag(f(word)) over the d^w words (cell 0 first)."""
    words = np.array(np.unravel_index(np.arange(d**w), (d,) * w)).T
    return WindowOperator(default_alphabet(d), w,
                          np.diag([complex(f(word)) for word in words]), "truncated")


def test_one_non_generator_unit_above_tol_is_refused():
    # G = exp(i θ diag(0, 1, -1) at the probed cell 2 ⊗ diag(1, -1, 0) at
    # cell 0): T_kl = E_kl ⊗ exp(i θ (a_l - a_k) A), so the generators sit
    # at θ and the unit (1, 2) at 2θ; no candidate holds cell 0
    a, z = np.array([0.0, 1.0, -1.0]), np.array([1.0, -1.0, 0.0])
    cc, tol = 2, la.DEFAULT_TOL
    for theta, local in ((0.6 * tol, False), (0.45 * tol, True)):
        op = _diagonal_window(lambda x: np.exp(1j * theta * a[x[cc]] * z[x[0]]), 3, 5)
        unit, _ = _unit_conjugation(op, cc, forward=False)
        # generators within tol, the non-generator unit (1, 2) on either side
        assert max(fast_localization_residual(unit(0, l), 3, 5, [[cc]])[0][0]
                   for l in range(3)) <= tol
        assert (fast_localization_residual(unit(1, 2), 3, 5, [[cc]])[0][0] <= tol) == local
        rep = _assert_matches_oracle(op, 0, make_witness=False)
        assert rep.neighborhood == ((0, 0) if local else None)


def test_non_unitary_window_with_vanishing_generators_is_nonlocal():
    # G = diag(f), f = 0 on digit 0 at the probed cell 2 and 1 + (cell 4)
    # elsewhere: every generator T_0l conjugates to 0, but T_11 =
    # diag(|f|²) on digit 1 reads cell 4, outside every candidate.  P_0 = 0
    # makes Y_1 = 0 and Δ_1 = P_1, so the δ_1² term of the bound sees it.
    op = _diagonal_window(lambda x: 0.0 if x[2] == 0 else 1.0 + x[4], 2, 5)
    unit, _ = _unit_conjugation(op, 2, forward=False)
    assert all(la.max_norm(unit(0, l)()) == 0.0 for l in range(2))
    rep = _assert_matches_oracle(op, 0, make_witness=False)
    assert not rep.is_local and rep.neighborhood is None


def _spied_residuals(monkeypatch):
    """The list that collects the argument tuple of every residual call."""
    calls = []
    real = verify.fast_localization_residual

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "fast_localization_residual", counted)
    return calls


def test_one_hot_permutation_is_decided_by_its_generators(monkeypatch):
    # a bijective one-hot window (grouped Toffoli, d = 16): T_00 on every
    # candidate in one pass, then the d - 1 generators on the first
    # survivor, whose HS defects bound the other units, so no unit T_kl with
    # k >= 1 is formed
    calls = _spied_residuals(monkeypatch)
    op = quantize(group_cells(toffoli_ca(), 2), 4, "periodic")
    d = op.alphabet.d
    rep = neighborhood(op, max_radius=1)
    assert rep.is_local and len(calls) == d
    calls.clear()
    assert check_inverse_locality(op, rep.neighborhood)
    assert len(calls) == d


def test_one_hot_merging_map_takes_the_exhaustive_path(monkeypatch):
    # G zeroes cell 3 (d = 2, w = 4), a merging map: it has no intertwiner
    # bound and its units repeat positions, so it has no path of its own;
    # a one-hot window is a permutation in both directions, and the forward
    # mirror refuses it as the backward search does, before any residual
    calls = _spied_residuals(monkeypatch)
    words = np.arange(16)
    op = WindowOperator(default_alphabet(2), 4, words - words % 2, "periodic")
    message = "this one-hot operator is not injective"
    for interval in ((-2, 0), (-1, 0), (0, 0)):
        with pytest.raises(PreconditionViolated, match=message):
            check_inverse_locality(op, interval, cell=1)
    with pytest.raises(PreconditionViolated, match=message):
        neighborhood(op, max_radius=1, cell=1)
    assert calls == []


def test_locality_checks_make_generator_many_residual_calls(monkeypatch):
    # d residual passes per neighborhood (T_00 on all 9 candidate
    # intervals in [-1, 2] narrower than w = 4 in one pass, then the other
    # generators on the first survivor), d per inverse check
    calls = []
    real = verify.fast_localization_residual

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "fast_localization_residual", counted)
    windows = [quantize(group_cells(toffoli_ca(), 2), 4, "periodic"),
               window_matrix(random_block_qca(6, 2, 3, seed=6001), 4)]
    for op in windows:
        d = op.alphabet.d
        calls.clear()
        rep = neighborhood(op, max_radius=1)
        assert rep.neighborhood == (0, 1)
        assert len(calls) <= d
        calls.clear()
        assert check_inverse_locality(op, rep.neighborhood)
        assert len(calls) <= d


def _inverse_verdict(op, interval):
    try:
        return check_inverse_locality(op, interval)
    except WindowTooSmall:
        return "window too small"


def test_one_hot_and_densified_windows_give_identical_reports():
    for op in (quantize(toffoli_ca(), 5, "periodic"), quantize(xor_ca(), 6)):
        assert op.dim <= 4096
        dense = WindowOperator(op.alphabet, op.width, op.dense(), op.boundary,
                               op.out_shift)
        hot_rep = neighborhood(op, max_radius=1)
        dense_rep = neighborhood(dense, max_radius=1)
        assert dataclasses.replace(hot_rep, witness=None) == \
            dataclasses.replace(dense_rep, witness=None)
        if hot_rep.witness is not None:
            # SparseState compares by identity: compare the witness by value
            wa, wb = hot_rep.witness, dense_rep.witness
            assert (wa.cell, wa.context, wa.trace_distance) == \
                (wb.cell, wb.context, wb.trace_distance)
            assert wa.state_a.terms == wb.state_a.terms
            assert wa.state_b.terms == wb.state_b.terms
        for interval in [(lo, hi) for lo in range(-1, 3) for hi in range(lo, 3)]:
            assert _inverse_verdict(op, interval) == _inverse_verdict(dense, interval)


# ------------------------------------------------------------- block-native

def test_block_native_matches_window_verifier():
    for seed, (d, p, q) in enumerate([(4, 2, 2), (4, 4, 1), (4, 1, 4)]):
        g = random_block_qca(d, p, q, seed=seed + 60)
        native = block_neighborhood(g)
        windowed = neighborhood(window_matrix(g, 4), max_radius=1)
        assert native.neighborhood == windowed.neighborhood
        assert check_inverse_locality(window_matrix(g, 4), native.neighborhood)


def test_block_conjugated_unit_matches_window_conjugation():
    g = random_block_qca(4, 2, 2, seed=70)
    op = window_matrix(g, 4)
    d, w, cc = 4, 4, 1
    unit, _ = _unit_conjugation(op, cc, forward=False)
    native, _ = _block_patch_units(g)
    for k, l in [(0, 0), (1, 2), (3, 1)]:
        t_native = native(k, l)()
        t_window = unit(k, l)()
        embedded = oracle.embed_on_factors(t_native, (d,) * w, {cc, cc + 1})
        assert la.max_norm(t_window - embedded) <= 1e-10


# ---------------------------------------------------------------- signalling

def test_xor_signalling_witness_unit_distance():
    rule = xor_ca()
    plus, minus, probe, context = xor_signalling_pair(4)
    witness = detect_signalling(rule, plus, minus, probe, context)
    assert witness is not None
    assert witness.trace_distance == pytest.approx(1.0, abs=1e-12)


def test_xor_signalling_through_quantized_window():
    rule = xor_ca()
    plus, minus, probe, context = xor_signalling_pair(3)
    op = quantize(rule, 8)
    witness = detect_signalling(op, plus, minus, probe, context)
    assert witness is not None
    assert witness.trace_distance == pytest.approx(1.0, abs=1e-9)


def test_block_qca_never_signals():
    g = random_block_qca(4, 2, 2, seed=80)
    a = random_sparse_state(g.alphabet, range(2, 4), 4, seed=81)
    # same state with a far-away modification keeps the near context equal
    far = SparseState.from_cells(g.alphabet, {8: "2"})
    terms = dict(a.terms)
    b_terms = {}
    for cfg, amp in terms.items():
        cells = cfg.cells(g.alphabet)
        cells.update({8: "2"})
        b_terms[config_from_cells(g.alphabet, cells)] = amp
    b = SparseState(g.alphabet, b_terms)
    # probe next to the shared region, context covering its radius-1/2 cone
    witness = detect_signalling(g, a, b, 2, (2, 3), tol=1e-9)
    assert witness is None
    # detect_signalling reads the light cone, which equal context
    # restrictions make equal by construction; the images are the
    # independent route
    assert la.trace_distance(*(restrict_state(apply_block(s, g), [2]) for s in (a, b))) <= 1e-9


def test_block_automata_never_signal_sweep():
    # the defining locality property: whenever two states agree on cells
    # {i, i+1}, a one-step evolution leaves their cell-i restrictions equal.
    # Engineer agreeing pairs by putting an arbitrary shared block on the
    # context cells and arbitrary, different content far to the right.
    rng = np.random.default_rng(90)
    for trial in range(8):
        d, p, q = [(4, 2, 2), (4, 4, 1), (6, 2, 3), (6, 3, 2)][trial % 4]
        g = random_block_qca(d, p, q, seed=500 + trial)
        shared = {2: g.alphabet.symbol(int(rng.integers(1, d))),
                  3: g.alphabet.symbol(int(rng.integers(1, d)))}
        far_a = {7: g.alphabet.symbol(int(rng.integers(1, d)))}
        far_b = {7: g.alphabet.symbol(int(rng.integers(1, d))),
                 8: g.alphabet.symbol(int(rng.integers(1, d)))}
        a = SparseState.from_cells(g.alphabet, {**shared, **far_a})
        b = SparseState.from_cells(g.alphabet, {**shared, **far_b})
        witness = detect_signalling(g, a, b, 2, (2, 3), tol=1e-10)
        assert witness is None, f"trial {trial}: spurious signal"
        images = (restrict_state(apply_block(s, g), [2]) for s in (a, b))
        assert la.trace_distance(*images) <= 1e-10, f"trial {trial}: images differ"


BLOCK_SPLITS = [(4, 2, 2), (4, 4, 1), (4, 1, 4), (6, 2, 3), (6, 3, 2)]


def gauge_kicked(g: BlockQCA, delta: float, seed: int) -> BlockQCA:
    """``g`` with its gauge parts q1 and q2 each turned by delta in a random
    orthogonal direction (none for a part of dimension 1), so that
    u|q> = |q2>|q1> and v(|q1>|q2>) = |q> both miss by about delta."""
    rng = np.random.default_rng([seed, 1])

    def turned(x):
        kick = rng.standard_normal(len(x)) + 1j * rng.standard_normal(len(x))
        kick -= np.vdot(x, kick) * x
        return (x + delta * kick / max(np.linalg.norm(kick), 1e-300)) / np.sqrt(1 + delta ** 2)

    q1, q2 = (turned(x) if len(x) > 1 else x for x in (g.q1, g.q2))
    return BlockQCA(g.alphabet, g.p, g.q, g.u, g.v, q1, q2)


@st.composite
def light_cone_cases(draw):
    """(g, state, cell): a Haar block of BLOCK_SPLITS, a superposition of
    1 ... 12 configurations of support at most 4 cells starting in
    [-2, 2], and an output cell inside the support, on a flank of the
    image, or up to two cells beyond."""
    d, p, q = draw(st.sampled_from(BLOCK_SPLITS))
    g = random_block_qca(d, p, q, seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    terms = {}
    for _ in range(draw(st.integers(1, 12))):
        word = [int(x) for x in rng.integers(0, d, size=int(rng.integers(0, 5)))]
        terms[Configuration.make(int(rng.integers(-2, 3)), word)] = complex(*rng.standard_normal(2))
    state = SparseState(g.alphabet, terms)
    lo, hi = state.support() or (0, 0)
    return g, state, draw(st.integers(lo - 3, hi + 2))


@settings(max_examples=40, deadline=None)
@given(light_cone_cases())
def test_light_cone_state_matches_the_image(case):
    # output cell c after one step, read off input cells (c, c+1) alone,
    # against the cell-c restriction of apply_block's normalized image
    g, state, cell = case
    rho = _light_cone_state(g, _block_patch(g), restrict_state(state, (cell, cell + 1)))
    mass = float(np.trace(rho).real)
    image = restrict_state(apply_block(state, g), [cell])
    assert np.max(np.abs(rho / mass - image)) <= 1e-12
    assert la.trace_distance(rho / mass, image) <= _light_cone_slack(
        _block_defects(g), state, cell, mass)


def relabelled(state: SparseState, cell: int) -> SparseState:
    """``state`` with the symbols of one cell cyclically relabelled (the
    quiescent one included): a unitary on that cell alone, so every
    restriction to other cells is unchanged."""
    alphabet, terms = state.alphabet, {}
    for cfg, amp in state.terms.items():
        cells = cfg.cells(alphabet)
        digit = (alphabet.index(cells.get(cell, alphabet.quiescent)) + 1) % alphabet.d
        cells[cell] = alphabet.symbol(digit)
        terms[config_from_cells(alphabet, {c: x for c, x in cells.items()
                                           if x != alphabet.quiescent})] = amp
    return SparseState(alphabet, terms)


@st.composite
def signalling_pairs(draw):
    """(g, state, cell): a Haar block of BLOCK_SPLITS, a superposition of
    1 ... 4 configurations of support at most 3 cells starting at 0 or 1,
    and an output cell in [-1, 2]."""
    d, p, q = draw(st.sampled_from(BLOCK_SPLITS))
    g = random_block_qca(d, p, q, seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        word = [int(x) for x in rng.integers(0, d, size=int(rng.integers(0, 4)))]
        terms[Configuration.make(int(rng.integers(0, 2)), word)] = complex(*rng.standard_normal(2))
    return g, SparseState(g.alphabet, terms), draw(st.integers(-1, 2))


@settings(max_examples=12, deadline=None)
@given(signalling_pairs(), st.integers(0, 2**16))
def test_gauge_kicked_blocks_keep_the_image_verdict(case, seed):
    # the light cone and apply_block part by about the gauge residual; where
    # the slack cannot separate the light-cone distance from tol, the
    # images decide, so every verdict is apply_block's.  Relabelling cell
    # c + 2 cannot reach output cell c (context: the patch); relabelling
    # c + 1 does, unseen by the context {c}.
    g0, state_a, cell = case
    fallbacks = 0
    for delta in (1e-12, 1e-9, 1e-7):
        g = gauge_kicked(g0, delta, seed)
        x, defects = _block_patch(g), _block_defects(g)

        def slack(s):
            return _light_cone_slack(defects, s, cell, float(np.trace(
                _light_cone_state(g, x, restrict_state(s, (cell, cell + 1)))).real))

        image_a = restrict_state(apply_block(state_a, g), [cell])
        for at, context in [(cell + 2, (cell, cell + 1)), (cell + 1, (cell,))]:
            state_b = relabelled(state_a, at)
            image_dist = la.trace_distance(
                image_a, restrict_state(apply_block(state_b, g), [cell]))
            bound = slack(state_a) + slack(state_b)
            for tol in (1e-9, 1e-10):
                witness = detect_signalling(g, state_a, state_b, cell, context, tol=tol)
                assert (witness is not None) == (image_dist > tol), (delta, at, tol)
                if witness is not None:
                    assert abs(witness.trace_distance - image_dist) <= bound
                pair = (state_a, state_b)
                undecided = _light_cone_distance(
                    g, pair, [restrict_state(s, (cell, cell + 1)) for s in pair], cell, tol) is None
                fallbacks += delta == 1e-7 and at == cell + 2 and undecided
    # at delta = 1e-7 the slack exceeds tol, so the patch context falls back
    assert fallbacks == 2


def test_classical_xor_on_basis_states_does_not_signal():
    # without superposition the xor rule is an honest radius-1/2 automaton:
    # exhaust all basis pairs with equal context restrictions on a small span
    rule = xor_ca()
    alpha = rule.alphabet
    words = [(x, y) for x in range(3) for y in range(3)]
    for w1 in words:
        for w2 in words:
            if w1[0] != w2[0]:
                continue  # context cell 1 must agree
            a = SparseState(alpha, {config_from_cells(
                alpha, {1: alpha.symbol(w1[0]), 2: alpha.symbol(w1[1])}): 1.0})
            b = SparseState(alpha, {config_from_cells(
                alpha, {1: alpha.symbol(w2[0]), 2: alpha.symbol(w2[1])}): 1.0})
            witness = detect_signalling(rule, a, b, 0, (0, 1), tol=1e-9)
            assert witness is None


def test_detect_signalling_rejects_unequal_context():
    rule = xor_ca()
    a = SparseState.from_cells(rule.alphabet, {1: "0"})
    b = SparseState.from_cells(rule.alphabet, {1: "1"})
    with pytest.raises(PreconditionViolated):
        detect_signalling(rule, a, b, 0, (1,))


def test_xor_witness_distance_independent_of_separation():
    rule = xor_ca()
    for block_len in (2, 3, 4, 5, 6):
        plus, minus, probe, context = xor_signalling_pair(block_len)
        witness = detect_signalling(rule, plus, minus, probe, context)
        assert witness is not None
        assert witness.trace_distance == pytest.approx(1.0, abs=1e-9)
