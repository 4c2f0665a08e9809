"""Gallery checks: the shipped rules, the 2-D automaton, block controls,
and the probe/state fixtures."""
import numpy as np
import pytest

from gallery_specs import xor_signalling_pair
from qcablocks import linalg as la
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
    SparseState,
    apply_block,
    config_from_cells,
    group_cells,
    restrict_state,
    shift,
)
from state_oracle import step_config
from ungroup import ungroup_cells

PLUS = np.full((2, 2), 0.5)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]])


# --------------------------------------------------------------------- xor

def test_xor_table_values():
    rule = xor_ca()
    a = rule.alphabet
    gets = lambda x, y: a.symbol(int(rule.table[a.index(x), a.index(y)]))
    assert gets("q", "1") == "1"
    assert gets("q", "0") == "0"
    assert gets("1", "q") == "q"
    assert gets("1", "0") == "1"
    assert gets("1", "1") == "0"
    assert gets("0", "1") == "1"


def test_xor_step_101():
    # cells 1,0,1 at positions 0..2: image reads delta(q,1), delta(1,0),
    # delta(0,1), delta(1,q) at positions -1..2
    rule = xor_ca()
    cfg = config_from_cells(rule.alphabet, {0: "1", 1: "0", 2: "1"})
    out = step_config(rule, cfg)
    expected = config_from_cells(rule.alphabet, {-1: "1", 0: "1", 1: "1"})
    assert out == expected


def test_xor_bijective_on_small_windows():
    # left-to-right antecedent reconstruction makes the rule injective on
    # finite configurations; exhaust supports of width <= 8
    rule = xor_ca()
    for width in (4, 6, 8):
        seen = set()
        d = 3
        for idx in range(d**width):
            word = [(idx // d ** (width - 1 - i)) % d for i in range(width)]
            img = step_config(rule, config_from_cells(
                rule.alphabet,
                {i: rule.alphabet.symbol(t) for i, t in enumerate(word) if t}))
            key = (img.start if not img.is_vacuum else 0, img.word)
            assert key not in seen
            seen.add(key)


def test_xor_pair_restriction_at_right_end():
    # restricting either sign state to the last block cell and its quiescent
    # right neighbor gives the same classical mixture
    plus, minus, _, _ = xor_signalling_pair(4, start=1)
    a = xor_ca().alphabet
    expected = np.zeros((9, 9))
    expected[a.index("0") * 3 + a.index("q"), a.index("0") * 3 + a.index("q")] = 0.5
    expected[a.index("1") * 3 + a.index("q"), a.index("1") * 3 + a.index("q")] = 0.5
    for state in (plus, minus):
        rho = restrict_state(state, {4, 5})
        assert la.max_norm(rho - expected) <= 1e-15


def test_xor_signalling_pair_fixture():
    plus, minus, probe, context = xor_signalling_pair(4)
    assert probe == 0 and context == (0, 1)
    ra = restrict_state(plus, context)
    rb = restrict_state(minus, context)
    assert la.max_norm(ra - rb) <= 1e-15
    rule = xor_ca()
    out_p = rule.apply(plus)
    out_m = rule.apply(minus)
    rho_p = restrict_state(out_p, {probe})[1:, 1:]
    rho_m = restrict_state(out_m, {probe})[1:, 1:]
    assert np.allclose(rho_p, PLUS, atol=1e-12)
    assert np.allclose(rho_m, MINUS, atol=1e-12)


# ------------------------------------------------------------------ toffoli

def test_toffoli_table():
    rule = toffoli_ca()
    a = rule.alphabet
    gets = lambda x, y: a.symbol(int(rule.table[a.index(x), a.index(y)]))
    assert gets("00", "00") == "00"
    assert gets("01", "00") == "10"   # b=1 passes to the left bit, c=0
    assert gets("10", "10") == "11"   # a=1, c=1: flip b -> 1, then c=1
    assert gets("11", "10") == "01"   # b xor a.c = 0, c = 1
    assert gets("10", "01") == "00"   # c=0: output (b, 0) = 00


def test_toffoli_classical_inverse_radius_half():
    # recover the preimage from the image using only two adjacent image
    # cells: a_{i+1} = b'_i and b_i = a'_i xor a_i a_{i+1}
    rule = toffoli_ca()
    rng = np.random.default_rng(5)
    a_bits = rng.integers(0, 2, size=8)
    b_bits = rng.integers(0, 2, size=8)
    cells = {}
    for i in range(8):
        cells[i] = f"{a_bits[i]}{b_bits[i]}"
    cfg = config_from_cells(rule.alphabet, cells)
    img = step_config(rule, cfg)

    def bits_at(c, pos):
        sym = rule.alphabet.symbol(c.cell(pos))
        return int(sym[0]), int(sym[1])

    for i in range(7):
        a_img, b_img = bits_at(img, i)
        a_next = bits_at(img, i)[1]
        assert a_next == a_bits[i + 1]
        assert a_img == (b_bits[i] ^ (a_bits[i] & a_bits[i + 1]))


def test_toffoli_probe_reproduces_plus_minus_outcome():
    rule = toffoli_ca()
    state0, state1, readout = toffoli_probe_states(origin=2)
    for state, expected in ((state0, PLUS), (state1, MINUS)):
        grouped = group_cells(state, 2)
        out = ungroup_cells(rule.apply(grouped), BIT, 2)
        rho = restrict_state(out, {readout})
        assert np.allclose(rho, expected, atol=1e-12)


def test_toffoli_grouping_then_ungrouping_action():
    rule = toffoli_ca()
    grouped = group_cells(rule, 2)
    assert grouped.alphabet.d == 16
    s = SparseState.from_cells(rule.alphabet, {0: "11", 1: "01"})
    direct = group_cells(rule.apply(s), 2)
    via = grouped.apply(group_cells(s, 2))
    assert direct.distance(via) <= 1e-12


# --------------------------------------------------------------------- 2-D

def test_kari_all_zero_fixed():
    grid = np.zeros((4, 4, 9), dtype=np.uint8)
    assert np.array_equal(kari_ca_step(grid), grid)


def test_kari_single_center_flips_facing_bits():
    # a lone center bit flips, in each of the 8 neighbors, exactly the bit
    # pointing back at it
    grid = np.zeros((3, 3, 9), dtype=np.uint8)
    grid[1, 1, 8] = 1
    out = kari_ca_step(grid)
    diff = out ^ grid
    assert diff[1, 1].sum() == 0
    # neighbor to the north (row 0, col 1) sees the center to its south:
    # its S bit (index 4) flips
    assert diff[0, 1, 4] == 1 and diff[0, 1].sum() == 1
    assert diff[2, 1, 0] == 1 and diff[2, 1].sum() == 1  # south neighbor: N bit
    assert diff[1, 0, 2] == 1 and diff[1, 0].sum() == 1  # west neighbor: E bit
    assert diff[1, 2, 6] == 1 and diff[1, 2].sum() == 1  # east neighbor: W bit
    assert diff[0, 0, 3] == 1 and diff[0, 0].sum() == 1  # NW neighbor: SE bit
    assert diff[2, 2, 7] == 1 and diff[2, 2].sum() == 1  # SE neighbor: NW bit


def test_kari_involution_random_grids():
    rng = np.random.default_rng(7)
    for _ in range(50):
        grid = kari_random_grid(5, 5, rng)
        assert np.array_equal(kari_ca_step(kari_ca_step(grid)), grid)


def test_kari_shift_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        grid = kari_random_grid(4, 4, rng)
        big = np.zeros((8, 8, 9), dtype=grid.dtype)
        big[1:5, 1:5] = grid
        moved = np.zeros_like(big)
        moved[2:6, 3:7] = grid
        out_big = kari_ca_step(big)
        out_moved = kari_ca_step(moved)
        assert np.array_equal(out_big[1:5, 1:5], out_moved[2:6, 3:7])


# ------------------------------------------------------------ block controls

def test_shift_qca_moves_excitation():
    g = shift_qca()
    s = SparseState.from_cells(g.alphabet, {2: "1"})
    out = apply_block(s, g)
    assert out.distance(shift(s, 1)) <= 1e-12


def test_phase_qca_applies_single_cell_phase():
    g = phase_qca(np.pi / 3)
    s = SparseState.from_cells(g.alphabet, {0: "1"})
    out = apply_block(s, g)
    (cfg, amp), = out.terms.items()
    assert cfg == config_from_cells(g.alphabet, {0: "1"})
    assert amp == pytest.approx(np.exp(1j * np.pi / 3))


def test_swap_qca_streams_tracks():
    g = swap_qca()
    # cell 0 holds (left=1, right=0) -> symbol "10"; its left bit should end
    # up as the right part of cell -1... inspect via one application
    s = SparseState.from_cells(g.alphabet, {0: "10"})
    out = apply_block(s, g)
    (cfg, amp), = out.terms.items()
    assert amp == pytest.approx(1.0)
    # (x_i, y_i) -> output cell i carries (y_i, x_{i+1}): the left bit 1 of
    # cell 0 rides to output cell -1 as its right part
    assert cfg == config_from_cells(g.alphabet, {-1: "01"})


def test_controls_fix_vacuum():
    for g in (shift_qca(), swap_qca(), phase_qca()):
        v = SparseState.vacuum(g.alphabet)
        assert apply_block(v, g).terms == v.terms
