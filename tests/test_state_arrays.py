"""The array-backed SparseState against the dict-based oracles of
``state_oracle``: construction (trim, merge, prune), the state algebra, the
block and window evolutions, classical rules, and restriction, over random
superpositions with several starts and widths, a vacuum term, and terms
that merge and cancel below the prune threshold."""
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import state_oracle as oracle
from random_inputs import random_block_qca
from ungroup import ungroup_cells
from qcablocks.model import (
    ClassicalRule,
    Configuration,
    SparseState,
    apply_block,
    apply_window,
    group_cells,
    quantize,
    restrict_state,
    shift,
    window_matrix,
)
from qcablocks.rand import default_alphabet

SPLITS = {2: [(1, 2), (2, 1)], 4: [(2, 2)], 6: [(2, 3), (3, 2)]}
WINDOW = {2: 5, 4: 4, 6: 3}
AMPS = st.sampled_from([1.0, -1.0, 0.5j, -0.5j, 0.6 - 0.8j, 1e-15, 3.0]) | st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10, allow_nan=False, allow_infinity=False)
SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def superpositions(draw, d, lo=-3, hi=3, max_width=3):
    """Raw {Configuration: amp} with a vacuum term, words that need
    trimming, and partners that merge with a term and cancel it to below
    the prune threshold.  Terms lie in [lo, hi + max_width]."""
    terms = {Configuration(0, ()): draw(AMPS)}
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(lo + 1, hi))
        word = tuple(draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=max_width)))
        amp = draw(AMPS)
        terms[Configuration(start, word)] = amp
        if draw(st.booleans()):
            # the same configuration with one more leading quiescent cell
            terms[Configuration(start - 1, (0,) + word)] = -amp + draw(
                st.sampled_from([0.0, 1e-16, 4e-15]))
    return terms


def assert_terms_close(got, want, tol=1e-12):
    assert set(got) == set(want)
    for c, a in want.items():
        assert abs(got[c] - a) <= tol * max(1.0, abs(a)), (c, got[c], a)


@lru_cache(maxsize=None)
def block(d, split, seed):
    return random_block_qca(d, *SPLITS[d][split], seed=seed)


@lru_cache(maxsize=None)
def block_window(d, split):
    return window_matrix(block(d, split, 0), WINDOW[d])


dims = st.sampled_from(sorted(SPLITS))


@SETTINGS
@given(st.data(), dims)
def test_constructor_merges_and_prunes_like_the_oracle(data, d):
    raw = data.draw(superpositions(d))
    state = SparseState(default_alphabet(d), raw)
    want = oracle.merged(raw.items())
    # the same additions in the same order: bit-exact
    assert dict(state.terms) == want
    assert state.words.dtype == np.uint8
    widths = [len(c.word) for c in want]
    assert state.words.shape == (len(want), max(widths, default=0))
    for c in state.terms:
        assert c == Configuration.make(c.start, c.word)


@SETTINGS
@given(st.data(), dims, st.integers(-5, 5))
def test_state_algebra_matches_oracle(data, d, k):
    alpha = default_alphabet(d)
    a = SparseState(alpha, data.draw(superpositions(d)))
    b = SparseState(alpha, data.draw(superpositions(d)))
    assert a.norm() == pytest.approx(oracle.norm(a.terms), rel=1e-14)
    assert a.support() == oracle.support(a.terms)
    assert abs(a.inner(b) - oracle.inner(a.terms, b.terms)) <= 1e-12 * max(
        1.0, a.norm() * b.norm())
    assert a.distance(b) == pytest.approx(oracle.distance(a.terms, b.terms), abs=1e-12)
    assert a.distance(a) == 0
    assert dict(shift(a, k).terms) == oracle.shift(a.terms, k)


@SETTINGS
@given(st.data(), dims, st.lists(st.integers(-4, 4), min_size=1, max_size=2))
def test_restrict_state_matches_oracle(data, d, cells):
    state = SparseState(default_alphabet(d), data.draw(superpositions(d)))
    want = oracle.restrict_state(state.terms, cells, d)
    assert np.abs(restrict_state(state, cells) - want).max() <= 1e-12 * max(1.0, state.norm() ** 2)


@SETTINGS
@given(st.data(), dims, st.integers(0, 1), st.integers(0, 2))
def test_apply_block_matches_oracle(data, d, split, seed):
    split = min(split, len(SPLITS[d]) - 1)
    g = block(d, split, seed)
    state = SparseState(g.alphabet, data.draw(superpositions(d)))
    assume(len(state.amps) > 0)  # the zero vector has no normalized image
    assert_terms_close(apply_block(state, g).terms, oracle.apply_block(state.terms, g))


@SETTINGS
@given(st.data(), dims)
def test_apply_window_matches_oracle_dense_and_one_hot(data, d):
    w = WINDOW[d]
    g = block(d, 0, 0)
    state = SparseState(g.alphabet, data.draw(superpositions(d, lo=0, hi=w - 2, max_width=2)))
    table = np.array(data.draw(st.lists(st.integers(0, d - 1), min_size=d * d, max_size=d * d)))
    table[0] = 0  # quiescence: delta(q, q) = q
    rule = ClassicalRule(g.alphabet, table.reshape(d, d))
    for op in (block_window(d, 0), quantize(rule, w)):
        assert_terms_close(apply_window(op, state, strict=False).terms,
                           oracle.apply_window(op, state.terms))


@SETTINGS
@given(st.data(), dims)
def test_classical_rule_apply_matches_oracle(data, d):
    alpha = default_alphabet(d)
    state = SparseState(alpha, data.draw(superpositions(d)))
    # small tables merge images, and with the cancelling partners some of
    # the merged amplitudes vanish
    table = np.array(data.draw(st.lists(st.integers(0, min(d - 1, 2)),
                                        min_size=d * d, max_size=d * d)))
    table[0] = 0
    rule = ClassicalRule(alpha, table.reshape(d, d))
    assert_terms_close(rule.apply(state).terms, oracle.classical_apply(rule, state.terms))


@SETTINGS
@given(st.data(), st.sampled_from([2, 3]), st.integers(1, 3))
def test_grouping_matches_oracle(data, d, s):
    alpha = default_alphabet(d)
    state = SparseState(alpha, data.draw(superpositions(d)))
    grouped = group_cells(state, s)
    assert dict(grouped.terms) == oracle.group_state(state.terms, d, s)
    assert dict(ungroup_cells(grouped, alpha, s).terms) == oracle.ungroup_state(
        grouped.terms, d, s)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_grouped_rule_table_matches_oracle(d, s):
    rng = np.random.default_rng(100 * d + s)
    for _ in range(3):
        table = rng.integers(0, d, size=(d, d))
        table[0, 0] = 0
        rule = ClassicalRule(default_alphabet(d), table)
        assert np.array_equal(rule.grouped(s).table, oracle.grouped_table(table, d, s))


def test_far_apart_terms_allocate_no_hull():
    # two terms 10^9 cells apart: every operation works on the two words,
    # never on an array spanning the gap
    g = random_block_qca(6, 2, 3, seed=3)
    far = 10**9
    raw = {Configuration.make(0, (1, 2)): 0.6, Configuration.make(far, (3,)): 0.8j}
    table = np.arange(36).reshape(6, 6) % 6
    table[0, 0] = 0
    rule = ClassicalRule(g.alphabet, table)
    tracemalloc.start()
    try:
        state = SparseState(g.alphabet, raw)
        other = shift(state, -7)
        stepped = apply_block(state, g)
        ruled = rule.apply(state)
        rho = restrict_state(state, {0, far})
        inner, dist, span = state.inner(other), state.distance(other), state.support()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert span == (0, far)
    assert state.words.shape == (2, 2)
    assert abs(inner - oracle.inner(state.terms, other.terms)) <= 1e-15
    assert dist == pytest.approx(oracle.distance(state.terms, other.terms), abs=1e-15)
    assert np.abs(rho - oracle.restrict_state(state.terms, {0, far}, 6)).max() <= 1e-15
    assert_terms_close(stepped.terms, oracle.apply_block(state.terms, g))
    assert_terms_close(ruled.terms, oracle.classical_apply(rule, state.terms))


def test_restrict_state_rest_keys_wider_than_63_bits():
    # d = 6 words of width 30: a rest of 29 cells has 6^29 > 2^63 values.
    # Terms that differ only in the kept cell share a rest (and so give
    # coherences); terms that differ in the far cell do not.
    rng = np.random.default_rng(5)
    base = [int(x) for x in rng.integers(1, 6, size=30)]
    raw = {}
    for kept in (1, 2, 5):
        for last in (3, 4):
            word = base[:12] + [kept] + base[13:29] + [last]
            raw[Configuration.make(-4, word)] = complex(rng.standard_normal(),
                                                        rng.standard_normal())
    # the same rest reached from a different start: the kept cell is the
    # first cell of one word and quiescent in the other
    raw[Configuration.make(8, [2] + base[13:29] + [3])] = 0.5
    raw[Configuration.make(9, base[13:29] + [3])] = -0.25j
    state = SparseState(default_alphabet(6), raw)
    assert 6 ** 29 > 2 ** 63
    got = restrict_state(state, {8})
    want = oracle.restrict_state(state.terms, {8}, 6)
    assert np.abs(got - want).max() <= 1e-14
    assert abs(got[0, 2]) > 0.1  # the coherence across starts is kept
