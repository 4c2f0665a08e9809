"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line and enforcing its stated tolerance (run with ``pytest -s`` to see the
lines as they complete)."""
import functools
import time

import numpy as np
import pytest

from gallery_specs import xor_signalling_pair
from random_inputs import conjugated_commuting_pair, random_block_qca
from ungroup import ungroup_cells
from qcablocks import linalg as la
from qcablocks.algebra import close, factor_one, factor_pair, factorization_residual, restrict
from qcablocks.decompose import decompose_certified
from qcablocks.errors import NotLocal
from qcablocks.gallery import (
    BIT,
    kari_ca_step,
    kari_random_grid,
    phase_qca,
    shift_qca,
    swap_qca,
    toffoli_ca,
    toffoli_probe_states,
    xor_ca,
)
from qcablocks.model import (
    Configuration,
    SparseState,
    apply_block,
    group_cells,
    quantize,
    restrict_state,
    window_matrix,
)
from qcablocks.rand import conjugated_factor_generators
from qcablocks.verify import (
    check_inverse_locality,
    detect_signalling,
    max_testable_radius,
    neighborhood,
)


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:2d}: PASS - {description}")
        return run
    return wrap


@criterion(1, "factor_one recovers 50 seeded conjugated factors (pq <= 12, "
              "residual <= 1e-8, <= 30 s)")
def test_criterion_1_factorization_roundtrip():
    pairs = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5), (5, 2),
             (3, 3), (2, 6), (6, 2), (3, 4), (4, 3), (12, 1), (1, 12)]
    start = time.monotonic()
    for i in range(50):
        p, q = pairs[i % len(pairs)]
        gens, _ = conjugated_factor_generators(p, q, seed=1000 + i)
        alg = close(gens, p * q)
        fact = factor_one(alg, seed=i)
        assert (fact.p, fact.q) == (p, q), f"case {i}: got ({fact.p},{fact.q})"
        resid = factorization_residual(alg, fact.u, p, q)
        assert resid <= 1e-8, f"case {i}: residual {resid:.2e}"
    elapsed = time.monotonic() - start
    assert elapsed <= 30.0, f"took {elapsed:.1f}s > 30s"


@criterion(2, "factor_pair splits 30 seeded commuting pairs (residual <= 1e-8)")
def test_criterion_2_commuting_pairs():
    pairs = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 5), (5, 2),
             (2, 6), (6, 2)]
    for i in range(30):
        p, q = pairs[i % len(pairs)]
        n = p * q
        a_gens, b_gens, _ = conjugated_commuting_pair(p, q, seed=2000 + i)
        a = close(a_gens, n)
        b = close(b_gens, n)
        fact = factor_pair(a, b, seed=i)
        assert (fact.p, fact.q) == (p, q), f"case {i}: got ({fact.p},{fact.q})"
        ra = factorization_residual(a, fact.u, p, q, region=(0,))
        rb = factorization_residual(b, fact.u, p, q, region=(1,))
        assert max(ra, rb) <= 1e-8, f"case {i}: residuals {ra:.2e}/{rb:.2e}"


@criterion(3, "structure-theorem round-trip on 30 seeded automata, d in "
              "{2,4,6} (residual <= 1e-7 up to shift/phase, <= 2 min)")
def test_criterion_3_structure_roundtrip():
    splits = {2: [(1, 2), (2, 1)], 4: [(2, 2), (4, 1), (1, 4)],
              6: [(2, 3), (3, 2), (6, 1)]}
    start = time.monotonic()
    count = 0
    for d in (2, 4, 6):
        for i in range(10):
            p, q = splits[d][i % len(splits[d])]
            g = random_block_qca(d, p, q, seed=3000 + count)
            qca, cert = decompose_certified(window_matrix(g, 4), seed=count)
            assert cert.residual <= 1e-7, (
                f"d={d} case {i}: residual {cert.residual:.2e}")
            assert cert.shift in (-1, 0, 1)
            count += 1
    elapsed = time.monotonic() - start
    assert count == 30
    assert elapsed <= 120.0, f"took {elapsed:.1f}s > 120s"
    # stash the automata seeds for criterion 10's duality check
    test_criterion_3_structure_roundtrip.elapsed = elapsed


@criterion(4, "apply_block agrees with the dense window oracle on all basis "
              "configurations of <= 5 cells, d <= 3 (1e-10)")
def test_criterion_4_oracle_equivalence():
    w = 7
    for d, p, q in [(2, 1, 2), (2, 2, 1), (3, 3, 1), (3, 1, 3)]:
        g = random_block_qca(d, p, q, seed=4000 + d * 10 + p)
        dense = window_matrix(g, w).dense()
        for idx in range(d**5):
            word = [(idx // d ** (4 - i)) % d for i in range(5)]
            cfg = Configuration.make(1, word)  # cells 1..5 inside the window
            state = SparseState(g.alphabet, {cfg: 1.0})
            sparse_out = apply_block(state, g)
            col = np.zeros(d**w, dtype=complex)
            col_index = 0
            for i in range(w):
                col_index = col_index * d + cfg.cell(i)
            col[col_index] = 1.0
            dense_out = dense @ col
            worst = 0.0
            for row in np.flatnonzero(np.abs(dense_out) > 1e-13):
                row_word = [(row // d ** (w - 1 - i)) % d for i in range(w)]
                key = Configuration.make(0, row_word)
                worst = max(worst, abs(sparse_out.terms.get(key, 0.0) - dense_out[row]))
            assert worst <= 1e-10, f"d={d} config {word}: deviation {worst:.2e}"


@criterion(5, "XOR signalling pair: unit trace distance at the probe for "
              "separations 2-6 while context restrictions coincide to 1e-12")
def test_criterion_5_xor_signalling():
    rule = xor_ca()
    for separation in (2, 3, 4, 5, 6):
        plus, minus, probe, context = xor_signalling_pair(separation)
        ra = restrict_state(plus, context)
        rb = restrict_state(minus, context)
        assert la.max_norm(ra - rb) <= 1e-12
        witness = detect_signalling(rule, plus, minus, probe, context, tol=1e-9)
        assert witness is not None, f"separation {separation}: no witness"
        assert abs(witness.trace_distance - 1.0) <= 1e-9, (
            f"separation {separation}: distance {witness.trace_distance}")
        # also exercise the quantized window route
        op = quantize(rule, separation + 4)
        witness_w = detect_signalling(op, plus, minus, probe, context, tol=1e-9)
        assert witness_w is not None
        assert abs(witness_w.trace_distance - 1.0) <= 1e-9


@criterion(6, "quantized XOR reports nonlocal at every testable radius on "
              "w = 8 (and radius 3 on w = 10)")
def test_criterion_6_xor_nonlocal():
    op8 = quantize(xor_ca(), 8)
    assert max_testable_radius(op8) == 2
    for radius in (1, 2):
        rep = neighborhood(op8, max_radius=radius)
        assert not rep.is_local, f"radius {radius} unexpectedly local"
        assert rep.witness is not None and rep.witness.trace_distance > 1e-9
    op10 = quantize(xor_ca(), 10)
    rep = neighborhood(op10, max_radius=3, make_witness=False)
    assert not rep.is_local


@criterion(7, "Toffoli probe reproduces the |+>/|-> outcome to 1e-10 and the "
              "measured neighborhood forces radius 3/2 (a 4-half-cell cone, "
              "strictly above the classical radius 1/2)")
def test_criterion_7_toffoli_radius():
    rule = toffoli_ca()
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    state0, state1, readout = toffoli_probe_states(origin=2)
    for state, expected in ((state0, plus), (state1, minus)):
        out = ungroup_cells(rule.apply(group_cells(state, 2)), BIT, 2)
        rho = restrict_state(out, {readout})
        assert la.max_norm(rho - expected) <= 1e-10
    # supercell neighborhood: minimal interval {0, 1, 2}; its farthest
    # offset sits 3/2 cells from the half-shift center (radius 3/2, a
    # 2*3/2 + 1 = 4 half-cell cone), strictly exceeding the classical
    # radius-1/2 support {0, 1}
    op = quantize(rule, 6, "periodic")
    rep = neighborhood(op, max_radius=2, make_witness=False)
    assert rep.is_local
    assert rep.neighborhood == (0, 2)
    lo, hi = rep.neighborhood
    radius = max(abs(lo - 0.5), abs(hi - 0.5))
    assert radius == 1.5
    assert radius > 0.5
    # subcell resolution: the two probe parities need {0,1,2} and {-1..3},
    # both forcing radius >= 3/2 in subcell units, against a classical
    # subcell support of width <= 3
    sub = ungroup_cells(quantize(rule, 5, "periodic"), BIT, 2)
    rep_a = neighborhood(sub, max_radius=2, cell=4, make_witness=False)
    assert rep_a.is_local and rep_a.neighborhood == (0, 2)
    rep_b = neighborhood(sub, max_radius=3, cell=5, make_witness=False)
    assert rep_b.is_local and rep_b.neighborhood == (-1, 3)


@criterion(8, "grouped Toffoli decomposes with certification residual <= 1e-7")
def test_criterion_8_toffoli_decomposition():
    op = quantize(group_cells(toffoli_ca(), 2), 4, "periodic")
    qca, cert = decompose_certified(op, seed=3)
    assert qca.p * qca.q == 16
    assert cert.residual <= 1e-7, f"residual {cert.residual:.2e}"
    # and the ungrouped rule is rejected: no radius-1/2 alignment exists
    with pytest.raises(NotLocal):
        decompose_certified(quantize(toffoli_ca(), 4, "periodic"), seed=0)


@criterion(9, "2-D automaton: involution and shift invariance on 1000 "
              "random 5x5 grids (block no-go is documentation only)")
def test_criterion_9_kari_properties():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        grid = kari_random_grid(5, 5, rng)
        assert np.array_equal(kari_ca_step(kari_ca_step(grid)), grid)
    for _ in range(50):
        grid = kari_random_grid(5, 5, rng)
        big = np.zeros((9, 9, 9), dtype=grid.dtype)
        big[1:6, 1:6] = grid
        moved = np.zeros_like(big)
        moved[3:8, 2:7] = grid
        assert np.array_equal(kari_ca_step(big)[1:6, 1:6],
                              kari_ca_step(moved)[3:8, 2:7])
    # the no-go for two-dimensional block forms is documented prose, not a
    # machine-checked claim
    import qcablocks.gallery as gallery
    assert "no two-layered block representation" in gallery.__doc__


@criterion(10, "localization duality: every decomposed automaton with "
               "N = {0,1} has forward images localized on {-1,0}")
def test_criterion_10_localization_duality():
    for i, (d, p, q) in enumerate([(2, 1, 2), (2, 2, 1), (4, 2, 2), (4, 4, 1),
                                   (6, 2, 3), (6, 3, 2)]):
        g = random_block_qca(d, p, q, seed=5000 + i)
        op = window_matrix(g, 4)
        qca, _ = decompose_certified(op, seed=i)
        rep = neighborhood(op, max_radius=1)
        assert rep.is_local
        lo, hi = rep.neighborhood
        assert 0 <= lo <= hi <= 1
        # window mirror of the decomposed pair, at every cell dimension
        assert check_inverse_locality(window_matrix(qca, 4), rep.neighborhood)
        # window-level mirror for the smaller cell dimensions
        if d <= 4:
            assert check_inverse_locality(op, rep.neighborhood)


@criterion(11, "the all-quiescent state is an exact fixed point of every "
               "shipped block automaton")
def test_criterion_11_quiescent_invariance():
    for g in (shift_qca(), swap_qca(), phase_qca()):
        vac = SparseState.vacuum(g.alphabet)
        out = apply_block(vac, g)
        assert out.terms == vac.terms  # bit-exact
        # the window presentation fixes the all-quiescent column exactly
        col = window_matrix(g, 4).dense()[:, 0]
        expected = np.zeros_like(col)
        expected[0] = 1.0
        assert np.array_equal(col, expected)
