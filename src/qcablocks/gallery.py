"""Shipped automata: the XOR and Toffoli rules, the two-dimensional
nine-bit conditional-flip automaton, and hand-built block controls, each
available programmatically and as a JSON spec file.

Two-dimensional no-go (documentation, deliberately not machine checked)
-----------------------------------------------------------------------
The nine-bit automaton below (each cell holds one bit per compass
direction plus a center bit; a direction bit flips exactly when the
neighbor in that direction has center bit 1) is shift invariant, local,
and an involution, yet admits no two-layered block representation in two
dimensions, even after grouping cells into supercells.  Sketch: suppose
blocks U and V existed.  Pick mutually adjacent cells x, y, z with x, y
in one V-block but not z, and x separated from y, z by a U-block border.
Start from the configuration c1 with a single 1 in the center bit of x.
Run the U layer, then zero out everything outside the V-block of z and
call the result c'; let c be the U-preimage of c'.  Reading F(c) off the
V layer of c', the half of the lattice holding y is all zeros, so the
North bit of y stays 0, while the V-block of z still carries the imprint
of x's center bit, so the North-West bit of z reads 1.  But c itself is
zero outside one U-block, which forces the North bit of y and the
North-West bit of z to be equal functions of x's center bit - a
contradiction.  The obstruction is combinatorial and survives linear
extension to superpositions, which is why this package scopes block
decomposition to one dimension.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .model import (
    Alphabet,
    BlockQCA,
    ClassicalRule,
    SparseState,
    config_from_cells,
)
from .rand import default_alphabet

BINARY = Alphabet(("0", "1"), "q")
TOFFOLI_ALPHABET = Alphabet(("01", "10", "11"), "00")
BIT = Alphabet(("1",), "0")


def xor_ca() -> ClassicalRule:
    """Exclusive-or rule over {q, 0, 1}: delta(q, x) = x, delta(x, q) = q,
    delta(x, y) = x xor y.  Bijective on finite configurations but not
    structurally reversible; its linear extension signals superluminally."""
    d = 3
    t = np.zeros((d, d), dtype=np.int64)
    for y in (1, 2):
        t[0, y] = y  # delta(q, x) = x
    for x in (1, 2):
        t[x, 0] = 0  # delta(x, q) = q
    for x in (1, 2):
        for y in (1, 2):
            t[x, y] = 1 + ((x - 1) ^ (y - 1))
    return ClassicalRule(BINARY, t)


def toffoli_ca() -> ClassicalRule:
    """Doubled-bit rule delta(ab, cd) = (b xor a.c, c) over the four-symbol
    alphabet with quiescent 00.

    Classically of radius 1/2 with a radius-1/2 inverse: c is read off
    directly and a.c can be subtracted from b xor a.c.  At subcell
    resolution it is two staggered layers of doubly-controlled flips, so
    information still flows three half-cells per step quantum mechanically
    and a block form exists only after grouping (see group_cells)."""
    names = [TOFFOLI_ALPHABET.quiescent, *TOFFOLI_ALPHABET.symbols]
    d = 4
    t = np.zeros((d, d), dtype=np.int64)
    for x in range(d):
        a, b = int(names[x][0]), int(names[x][1])
        for y in range(d):
            c = int(names[y][0])
            t[x, y] = names.index(f"{b ^ (a & c)}{c}")
    return ClassicalRule(TOFFOLI_ALPHABET, t)


def toffoli_probe_states(origin: int = 2):
    """The radius-3/2 witness inputs at subcell (single-bit) resolution.

    Returns ``(state_c0, state_c1, readout_cell)``: |+> in the a-subcell
    (bit 2*origin), |-> in the b-subcell, and |0> or |1> in the c-subcell
    two bits to the right.  One step later the readout subcell holds |+>
    for c = 0 and |-> for c = 1, information having crossed three subcells.
    """
    def build(c_val: int) -> SparseState:
        terms = {}
        for a in (0, 1):
            for b in (0, 1):
                amp = ((-1.0) ** b) / 2.0
                cells = {}
                if a:
                    cells[2 * origin] = "1"
                if b:
                    cells[2 * origin + 1] = "1"
                if c_val:
                    cells[2 * origin + 2] = "1"
                terms[config_from_cells(BIT, cells)] = amp
        return SparseState(BIT, terms)

    return build(0), build(1), 2 * origin - 1


# ------------------------------------------------------------- 2-D automaton

KARI_DIRECTIONS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
_OFFSETS = {
    "N": (-1, 0), "NE": (-1, 1), "E": (0, 1), "SE": (1, 1),
    "S": (1, 0), "SW": (1, -1), "W": (0, -1), "NW": (-1, -1),
}


def kari_ca_step(grid: np.ndarray) -> np.ndarray:
    """One step of the nine-bit two-dimensional automaton on a finite grid
    with quiescent (all-zero) surroundings.

    ``grid`` has shape (rows, cols, 9): bits 0..7 are the compass
    direction bits in KARI_DIRECTIONS order, bit 8 is the center bit.
    Each direction bit flips exactly when the neighbor in that direction
    has center bit 1; center bits never change, so the map is an
    involution."""
    grid = np.asarray(grid)
    if grid.ndim != 3 or grid.shape[2] != 9:
        raise DimensionMismatch(f"expected (rows, cols, 9) grid, got {grid.shape}")
    h, w = grid.shape[:2]
    center = np.zeros((h + 2, w + 2), dtype=grid.dtype)
    center[1:-1, 1:-1] = grid[:, :, 8]
    out = grid.copy()
    for k, name in enumerate(KARI_DIRECTIONS):
        dr, dc = _OFFSETS[name]
        neighbor_center = center[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
        out[:, :, k] ^= neighbor_center
    return out


def kari_random_grid(rows: int, cols: int, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    return rng.integers(0, 2, size=(rows, cols, 9), dtype=np.uint8)


# ------------------------------------------------------------ block controls

def shift_qca(d: int = 2, alphabet: Alphabet | None = None) -> BlockQCA:
    """Every cell's content moves one cell to the left per step: the p = 1
    degenerate split with identity layers."""
    alphabet = alphabet or default_alphabet(d)
    eye = np.eye(d, dtype=np.complex128)
    q1 = np.array([1.0], dtype=np.complex128)
    q2 = np.zeros(d, dtype=np.complex128)
    q2[0] = 1.0
    return BlockQCA(alphabet, 1, d, eye, eye, q1, q2)


def swap_qca() -> BlockQCA:
    """Four-dimensional cells split into two qubit tracks that stream past
    each other (p = q = 2, identity layers): the right half of each cell
    hops left while the left half hops right into the neighboring output."""
    alphabet = Alphabet(("01", "10", "11"), "00")
    eye = np.eye(4, dtype=np.complex128)
    q1 = np.array([1.0, 0.0], dtype=np.complex128)
    q2 = np.array([1.0, 0.0], dtype=np.complex128)
    return BlockQCA(alphabet, 2, 2, eye, eye, q1, q2)


def phase_qca(theta: float = np.pi / 3) -> BlockQCA:
    """Single-cell diagonal automaton: identity split (q = 1) followed by a
    phase on the non-quiescent symbol; neighborhood {0}."""
    alphabet = default_alphabet(2)
    eye = np.eye(2, dtype=np.complex128)
    v = np.diag([1.0, np.exp(1j * theta)]).astype(np.complex128)
    q1 = np.array([1.0, 0.0], dtype=np.complex128)
    q2 = np.array([1.0], dtype=np.complex128)
    return BlockQCA(alphabet, 2, 1, eye, v, q1, q2)
