"""Cells, finite configurations, sparse superpositions, and the concrete
evolutions acting on them: classical radius-1/2 rules, two-layered block
automata, and finite-window presentations, stored either as a dense matrix
or, for quantized classical rules, as a one-hot column map.

A superposition (SparseState) is held as arrays, one row per term: start
cells, trimmed words zero-padded to the widest term, amplitudes.  Every
evolution, restriction and comparison here works on those rows with no
per-term Python objects; ``SparseState.terms`` is a read-only
{Configuration: amplitude} view built on demand for file formats and tests.

Conventions frozen here and used everywhere else:

* Cell dimension d = |symbols| + 1; index 0 is the quiescent symbol, the
  remaining symbols follow in alphabet order.
* Window bases are lexicographic over cells left to right, so the basis
  index of a window word is its base-d value with cell 0 most significant.
  The window-basis codec below (window_digits, window_index,
  window_rotation, window_split) is the one place that order is computed:
  every module converts whole words between basis indices and cell digits
  through it.  Kernels that need a single cell's digit read it off its
  place value d^(w-1-i) inline.
* A block automaton splits each cell into a left part of dimension q and a
  right part of dimension p: after the u-layer site i holds (a_i, b_i) in
  C^q ⊗ C^p, and the v-layer forms output cell i from (b_i, a_{i+1}).
  Every quiescent cell outside a configuration's support is taken to split
  exactly as (q2, q1), which makes the everywhere-quiescent state an exact
  fixed point; apply_block computes on the support cells only.
* A classical rule writes delta(c_i, c_{i+1}) into output cell i.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    IndivisibleWidth,
    PreconditionViolated,
    WindowTooSmall,
)
from .linalg import is_unitary, max_norm, row_blocks

PRUNE_THRESHOLD = 1e-14
# Dense window matrices are refused above this dimension, and apply_block
# refuses amplitude vectors with more entries than such a matrix.  Quantized
# rules are one-hot column maps and are never densified by the library.
DENSE_WINDOW_CAP = 8192
# max-norm tolerance of a block automaton's unitarity and quiescent gauge
GAUGE_TOL = 1e-6


# ------------------------------------------------------------ window basis

def window_digits(idx, d: int, w: int, dtype=None) -> np.ndarray:
    """Cell digits of window basis indices: row i of the (w, *idx.shape)
    result holds every index's digit at cell i, cell 0 most significant.

    One in-place divmod per cell writes straight into ``dtype`` (default the
    narrowest that holds d - 1), so the only int64 temporary is one copy of
    ``idx``.  Consumers that store words, one row per index, take the
    transpose."""
    rest = np.array(idx, dtype=np.int64)
    out = np.empty((w,) + rest.shape, dtype=_word_dtype(d) if dtype is None else dtype)
    for pos in range(w - 1, 0, -1):
        np.divmod(rest, d, out=(rest, out[pos, ...]), casting="unsafe")
    out[0] = rest
    return out


def window_index(digits, d: int) -> np.ndarray:
    """Inverse of window_digits: the basis index (int64) of cell digits
    given cell-major, row i holding the digits at cell i."""
    digits = np.asarray(digits)
    index = np.zeros(digits.shape[1:], dtype=np.int64)
    for row in digits:
        index *= d
        index += row
    return index


def window_rotation(d: int, w: int, steps: int, idx=None) -> np.ndarray:
    """Basis index map of the cyclic shift of a w-cell window by ``steps``
    cells: index y moves to rot[y], the index of y's digits rolled by
    -steps (content moves left for steps > 0).  Given indices ``idx``, their
    images alone, rot[idx], with no window-length map built."""
    if idx is None:
        idx = np.arange(d**w, dtype=np.int64)
    if steps % w == 0:
        return idx
    low = d ** (w - steps % w)
    return (idx % low) * (d**w // low) + idx // low


def window_split(digits: np.ndarray, d: int, region) -> tuple[np.ndarray, np.ndarray]:
    """Cell digits (window_digits) as (region index, complement index): the
    digits at the cells in ``region`` and those at the other cells, each
    read as a base-d number in cell order, in one pass over the cells."""
    numbers = (np.zeros(digits.shape[1:], dtype=np.int64),
               np.zeros(digits.shape[1:], dtype=np.int64))
    for pos, row in enumerate(digits):
        number = numbers[0] if pos in region else numbers[1]
        number *= d
        number += row
    return numbers


# --------------------------------------------------------------- alphabet

@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set plus a distinguished quiescent symbol."""

    symbols: tuple[str, ...]
    quiescent: str = "q"

    def __post_init__(self):
        symbols = tuple(str(s) for s in self.symbols)
        object.__setattr__(self, "symbols", symbols)
        if len(set(symbols)) != len(symbols):
            raise PreconditionViolated(f"duplicate symbols in {symbols}")
        if self.quiescent in symbols:
            raise PreconditionViolated(
                f"quiescent symbol {self.quiescent!r} must not be in the alphabet")

    @property
    def d(self) -> int:
        """Cell dimension: quiescent plus the proper symbols."""
        return len(self.symbols) + 1

    def index(self, symbol: str) -> int:
        if symbol == self.quiescent:
            return 0
        try:
            return self.symbols.index(symbol) + 1
        except ValueError:
            raise DimensionMismatch(f"unknown symbol {symbol!r}") from None

    def symbol(self, idx: int) -> str:
        if idx == 0:
            return self.quiescent
        if 1 <= idx < self.d:
            return self.symbols[idx - 1]
        raise DimensionMismatch(f"symbol index {idx} out of range for d={self.d}")

    def grouped(self, s: int) -> "Alphabet":
        """Alphabet of supercells made of s consecutive cells.

        Supercell symbols are ordered by their base-d digit value, so the
        grouped index of a tuple equals its value as a d-ary number; names
        are the concatenated member names (with a ``|`` separator if plain
        concatenation would collide).
        """
        if s < 1:
            raise PreconditionViolated("grouping factor must be >= 1")
        d = self.d
        names = [self.quiescent] + list(self.symbols)

        def joined(sep: str) -> tuple[list[str], str]:
            words = [sep.join(names[t] for t in word)
                     for word in window_digits(np.arange(d**s), d, s).T.tolist()]
            return words[1:], words[0]

        syms, quiescent = joined("")
        if len(set(syms + [quiescent])) != d**s:
            syms, quiescent = joined("|")
        return Alphabet(tuple(syms), quiescent)


# ----------------------------------------------------------- configuration

@dataclass(frozen=True)
class Configuration:
    """Finitely supported assignment of symbol indices to cell positions.

    Canonical form: ``word`` is trimmed so its first and last entries are
    non-quiescent; the empty word (with start 0) is the vacuum.
    """

    start: int
    word: tuple[int, ...]

    @staticmethod
    def make(start: int, word: Iterable[int]) -> "Configuration":
        word = tuple(int(x) for x in word)
        lo = 0
        hi = len(word)
        while lo < hi and word[lo] == 0:
            lo += 1
        while hi > lo and word[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return Configuration(0, ())
        return Configuration(start + lo, word[lo:hi])

    @staticmethod
    def vacuum() -> "Configuration":
        return Configuration(0, ())

    @property
    def is_vacuum(self) -> bool:
        return not self.word

    @property
    def end(self) -> int:
        """Position of the last non-quiescent cell (start - 1 for vacuum)."""
        return self.start + len(self.word) - 1

    def cell(self, pos: int) -> int:
        if self.is_vacuum or pos < self.start or pos > self.end:
            return 0
        return self.word[pos - self.start]

    def cells(self, alphabet: Alphabet) -> dict[int, str]:
        """Non-quiescent cells as a position -> symbol mapping."""
        return {self.start + i: alphabet.symbol(t)
                for i, t in enumerate(self.word) if t != 0}


# ------------------------------------------------------------ sparse state

def _word_dtype(d: int) -> np.dtype:
    """Smallest unsigned dtype that holds the symbol indices 0 .. d-1."""
    return np.min_scalar_type(d - 1)


def _widths(words: np.ndarray) -> np.ndarray:
    """Own width of each left-aligned row: its last non-quiescent column + 1.

    The helpers here loop over the few columns and stay vectorized over the
    many rows; numpy reduces an (m, L) array along its short axis slowly."""
    widths = np.zeros(len(words), dtype=np.int64)
    for j in range(words.shape[1]):
        widths[words[:, j] != 0] = j + 1
    return widths


def _narrowed(words: np.ndarray) -> np.ndarray:
    """Drop the all-quiescent columns on the right."""
    width = words.shape[1]
    while width and not words[:, width - 1].any():
        width -= 1
    return words[:, :width]


def _canonical(starts: np.ndarray, words: np.ndarray):
    """Rows in Configuration.make's form: each word shifted left past its
    leading quiescent cells (its start moved to match), the vacuum at start
    0, and the columns narrowed to the widest row."""
    width = words.shape[1]
    lead = np.full(len(starts), width)
    for j in range(width - 1, -1, -1):
        lead[words[:, j] != 0] = j
    live = lead < width
    starts = np.where(live, starts + lead, 0)
    shifts = np.flatnonzero(np.bincount(lead, minlength=width + 1)[1:width]) + 1
    if len(shifts):
        words = words.copy()
        for k in shifts:
            rows = np.flatnonzero(lead == k)
            words[rows, :width - k] = words[rows, k:]
            words[rows, width - k:] = 0
    return starts, _narrowed(words)


def _row_groups(starts: np.ndarray, words: np.ndarray):
    """Exact grouping of equal (start, word) rows of equal column count,
    numbered in lexicographic order.  Returns ``(first, group)``: a row of
    each group, and the group of each row.  Rows are compared digit by
    digit, never packed into one integer, so any width is exact."""
    order = np.lexsort(tuple(words.T[::-1]) + (starts,))
    s, w = starts[order], words[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = s[1:] != s[:-1]
    for j in range(w.shape[1]):
        new[1:] |= w[1:, j] != w[:-1, j]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def _cells_at(starts: np.ndarray, words: np.ndarray, positions: np.ndarray, d: int):
    """Window index (window_index, first position most significant) of
    every row's cells at the given absolute positions; also ``words``
    zero-padded by one column and the padded column each cell was read
    from (the pad column for cells outside the row's word)."""
    width = words.shape[1]
    padded = np.zeros((len(starts), width + 1), dtype=words.dtype)
    padded[:, :width] = words
    cols = positions[None, :] - starts[:, None]
    cols = np.where((cols >= 0) & (cols < width), cols, width)
    return window_index(np.take_along_axis(padded, cols, axis=1).T, d), padded, cols


class SparseState:
    """Finitely supported superposition of finite configurations.

    A state is three arrays: ``starts`` (m,) int64, ``words`` (m, L) and
    ``amps`` (m,) complex128.  Row r is the configuration with start
    ``starts[r]`` and word ``words[r]`` in Configuration.make's trimmed form,
    zero-padded on the right to the widest term's own width L (never to the
    hull of all terms, so terms far apart cost nothing), in the smallest
    unsigned dtype that holds the cell dimension.  Rows are distinct, in
    lexicographic (start, word) order; equal configurations are merged and
    then amplitudes at or below the prune threshold are dropped.

    ``terms`` is a read-only {Configuration: complex} view of the same
    state, built on first access and cached: the edge to file formats and
    tests.  The evolutions and restrictions of this module work on the
    arrays.  Instances are treated as immutable (the arrays are read-only).
    """

    __slots__ = ("alphabet", "starts", "words", "amps", "_terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Configuration, complex],
                 prune: float = PRUNE_THRESHOLD):
        configs = list(terms)
        words = np.zeros((len(configs), max((len(c.word) for c in configs), default=0)),
                         dtype=_word_dtype(alphabet.d))
        for r, c in enumerate(configs):
            words[r, :len(c.word)] = c.word
        self._assign(alphabet, np.array([c.start for c in configs], dtype=np.int64), words,
                     np.array([terms[c] for c in configs], dtype=np.complex128), prune)

    @classmethod
    def _from_arrays(cls, alphabet: Alphabet, starts: np.ndarray, words: np.ndarray,
                     amps: np.ndarray) -> "SparseState":
        """State of arbitrary rows: trimmed, merged and pruned as by the
        public constructor."""
        state = object.__new__(cls)
        state._assign(alphabet, starts, words, amps, PRUNE_THRESHOLD)
        return state

    def _assign(self, alphabet, starts, words, amps, prune):
        starts, words = _canonical(np.asarray(starts, dtype=np.int64),
                                   np.asarray(words, dtype=_word_dtype(alphabet.d)))
        first, group = _row_groups(starts, words)
        merged = np.zeros(len(first), dtype=np.complex128)
        np.add.at(merged, group, amps)
        keep = np.abs(merged) > prune
        self._set(alphabet, starts[first[keep]], _narrowed(words[first[keep]]), merged[keep])

    def _set(self, alphabet, starts, words, amps):
        self.alphabet = alphabet
        for arr in (starts, words, amps):
            arr.flags.writeable = False
        self.starts, self.words, self.amps = starts, words, amps
        self._terms = None

    def _divided(self, n: float) -> "SparseState":
        """The same configurations with amplitudes divided by n, pruned."""
        amps = self.amps / n
        keep = np.abs(amps) > PRUNE_THRESHOLD
        state = object.__new__(SparseState)
        state._set(self.alphabet, self.starts[keep], _narrowed(self.words[keep]), amps[keep])
        return state

    @property
    def terms(self) -> Mapping[Configuration, complex]:
        """Read-only {Configuration: amplitude} view, built on first access."""
        if self._terms is None:
            self._terms = MappingProxyType({
                Configuration(s, tuple(w[:n])): a for s, w, n, a in zip(
                    self.starts.tolist(), self.words.tolist(),
                    _widths(self.words).tolist(), self.amps.tolist())})
        return self._terms

    @classmethod
    def vacuum(cls, alphabet: Alphabet) -> "SparseState":
        return cls(alphabet, {Configuration.vacuum(): 1.0})

    @classmethod
    def from_cells(cls, alphabet: Alphabet, cells: Mapping[int, str],
                   amp: complex = 1.0) -> "SparseState":
        return cls(alphabet, {config_from_cells(alphabet, cells): amp})

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0:
            raise PreconditionViolated("cannot normalize the zero vector")
        return self._divided(n)

    def _paired(self, other: "SparseState"):
        """Amplitude vectors of both states over the union of their rows."""
        width = max(self.words.shape[1], other.words.shape[1])
        words = np.zeros((len(self.amps) + len(other.amps), width),
                         dtype=np.promote_types(self.words.dtype, other.words.dtype))
        words[:len(self.amps), :self.words.shape[1]] = self.words
        words[len(self.amps):, :other.words.shape[1]] = other.words
        first, group = _row_groups(np.concatenate([self.starts, other.starts]), words)
        a = np.zeros(len(first), dtype=np.complex128)
        b = np.zeros(len(first), dtype=np.complex128)
        a[group[:len(self.amps)]] = self.amps
        b[group[len(self.amps):]] = other.amps
        return a, b

    def inner(self, other: "SparseState") -> complex:
        a, b = self._paired(other)
        return complex(np.vdot(a, b))

    def support(self) -> tuple[int, int] | None:
        """Smallest interval containing every non-quiescent cell, or None."""
        widths = _widths(self.words)
        live = widths > 0
        if not live.any():
            return None
        return (int(self.starts[live].min()),
                int((self.starts[live] + widths[live]).max()) - 1)

    def distance(self, other: "SparseState") -> float:
        a, b = self._paired(other)
        return float(np.linalg.norm(a - b))

    def __repr__(self):
        return f"SparseState({len(self.amps)} terms)"


def config_from_cells(alphabet: Alphabet, cells: Mapping[int, str]) -> Configuration:
    if not cells:
        return Configuration.vacuum()
    positions = sorted(int(p) for p in cells)
    lo, hi = positions[0], positions[-1]
    word = [0] * (hi - lo + 1)
    for p, s in cells.items():
        word[int(p) - lo] = alphabet.index(s)
    return Configuration.make(lo, word)


def shift(state: SparseState, k: int) -> SparseState:
    """Relabel every configuration position i -> i - k."""
    live = state.words.any(axis=1)
    return SparseState._from_arrays(state.alphabet, state.starts - k * live,
                                    state.words, state.amps)


def restrict_state(state: SparseState, cells: Iterable[int]) -> np.ndarray:
    """Reduced density matrix on the named cells (sorted order), tracing out
    everything else.  Finite thanks to the quiescent default.

    Terms are grouped by their rest: the configuration with the named cells
    made quiescent and re-trimmed, so equal rests reached from different
    starts share a group.  With M the matrix of amplitudes indexed by group
    and by the named cells' window index, over the indices that occur, the
    result is M^T M̄ on those indices and zero elsewhere.
    """
    cells = np.array(sorted(set(int(i) for i in cells)), dtype=np.int64)
    d = state.alphabet.d
    dim = d ** len(cells)
    idx, rest, cols = _cells_at(state.starts, state.words, cells, d)
    rest[np.arange(len(state.amps))[:, None], cols] = 0
    rest_starts, rest_words = _canonical(state.starts, rest)
    first, group = _row_groups(rest_starts, rest_words)
    present = np.flatnonzero(np.bincount(idx, minlength=dim))
    m = np.zeros((len(first), len(present)), dtype=np.complex128)
    np.add.at(m, (group, np.searchsorted(present, idx)), state.amps)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[np.ix_(present, present)] = m.T @ m.conj()
    return rho


# ----------------------------------------------------------- classical rule

@dataclass(frozen=True)
class ClassicalRule:
    """Radius-1/2 local rule: output cell i is delta(c_i, c_{i+1}).

    ``table`` maps a pair of symbol indices to a symbol index and must
    preserve quiescence: table[0, 0] == 0.
    """

    alphabet: Alphabet
    table: np.ndarray

    def __post_init__(self):
        d = self.alphabet.d
        t = np.asarray(self.table, dtype=np.int64)
        if t.shape != (d, d):
            raise DimensionMismatch(f"rule table shape {t.shape}, expected ({d}, {d})")
        if np.any(t < 0) or np.any(t >= d):
            raise DimensionMismatch("rule table contains out-of-range symbol indices")
        if t[0, 0] != 0:
            raise PreconditionViolated(
                "rule must preserve quiescence: delta(q, q) = q")
        object.__setattr__(self, "table", t)

    @classmethod
    def from_mapping(cls, alphabet: Alphabet, delta: Mapping[tuple[str, str], str]) -> "ClassicalRule":
        d = alphabet.d
        t = np.zeros((d, d), dtype=np.int64)
        seen = np.zeros((d, d), dtype=bool)
        for (x, y), z in delta.items():
            t[alphabet.index(x), alphabet.index(y)] = alphabet.index(z)
            seen[alphabet.index(x), alphabet.index(y)] = True
        if not seen.all():
            raise PreconditionViolated("rule table is not total on all symbol pairs")
        return cls(alphabet, t)

    def apply(self, state: SparseState) -> SparseState:
        """Linear extension of the rule to superpositions (exact; the rule
        need not be injective, in which case amplitudes merge).  Output
        cell start - 1 + j of a row is table[c_{j-1}, c_j] over its word
        padded by one quiescent cell on each side."""
        m, width = state.words.shape
        padded = np.zeros((m, width + 2), dtype=np.intp)
        padded[:, 1:-1] = state.words
        return SparseState._from_arrays(state.alphabet, state.starts - 1,
                                        self.table[padded[:, :-1], padded[:, 1:]],
                                        state.amps)

    def grouped(self, s: int) -> "ClassicalRule":
        """The same dynamics on supercells of s cells: the pair index x·d^s + y
        of two supercells is the window index of their 2s cells, and output
        supercell x holds delta of cells (k, k + 1) for k < s."""
        d = self.alphabet.d
        cells = window_digits(np.arange(d ** (2 * s)), d, 2 * s)
        table = window_index(self.table[cells[:s], cells[1:s + 1]], d)
        return ClassicalRule(self.alphabet.grouped(s), table.reshape(d**s, d**s))


# -------------------------------------------------------------- block QCA

@dataclass(frozen=True)
class BlockQCA:
    """Two-layered block automaton: cell-splitting unitary u (C^d -> C^q ⊗ C^p),
    recombining unitary v (C^p ⊗ C^q -> C^d), and the quiescent gauge pair
    (q1 in C^p, q2 in C^q) with u|q> = |q2>|q1> and v(|q1>|q2>) = |q>, both
    checked, like the unitarity of u and v, within GAUGE_TOL."""

    alphabet: Alphabet
    p: int
    q: int
    u: np.ndarray
    v: np.ndarray
    q1: np.ndarray
    q2: np.ndarray

    def __post_init__(self):
        d = self.alphabet.d
        if self.p * self.q != d:
            raise DimensionMismatch(f"p*q = {self.p * self.q} != cell dimension {d}")
        for name, arr, shape in (("u", self.u, (d, d)), ("v", self.v, (d, d)),
                                 ("q1", self.q1, (self.p,)), ("q2", self.q2, (self.q,))):
            a = np.asarray(arr, dtype=np.complex128)
            if a.shape != shape:
                raise DimensionMismatch(f"{name} has shape {a.shape}, expected {shape}")
            object.__setattr__(self, name, a)
        if not is_unitary(self.u, GAUGE_TOL) or not is_unitary(self.v, GAUGE_TOL):
            raise PreconditionViolated("u and v must be unitary")
        if max_norm(self.gauge_residuals()) > GAUGE_TOL:
            raise PreconditionViolated(
                "quiescent gauge conditions violated: "
                f"residual {max_norm(self.gauge_residuals()):.2e}")

    @property
    def d(self) -> int:
        return self.alphabet.d

    def quiescent_ket(self) -> np.ndarray:
        e = np.zeros(self.d, dtype=np.complex128)
        e[0] = 1.0
        return e

    def gauge_residuals(self) -> np.ndarray:
        """Stacked residuals of the two quiescent gauge conditions."""
        ket_q = self.quiescent_ket()
        r1 = self.u @ ket_q - np.kron(self.q2, self.q1)
        r2 = self.v @ np.kron(self.q1, self.q2) - ket_q
        return np.concatenate([r1, r2])


def apply_block(state: SparseState, g: BlockQCA) -> SparseState:
    """One step of the two-layered evolution on a sparse superposition.

    A configuration on cells [start, end] (s cells) is computed on them
    only: their u-layer images, flanked by the exact gauge parts q1 of cell
    start - 1 and q2 of cell end + 1, are d^(s+1) amplitudes that the
    v-layer turns into output cells start - 1 .. end.  So the vacuum is an
    exact fixed point and the support grows by at most one cell.  Raises
    DimensionMismatch before allocating when d^(s+1) exceeds
    DENSE_WINDOW_CAP², the entry count of the largest dense window.

    The amplitudes above the prune threshold are decoded into rows of
    digits directly (window_digits, in the state's word dtype); rows from
    different input configurations that name the same output configuration
    are merged, the merged state is pruned and renormalized, and
    PreconditionViolated is raised if nothing is left.
    """
    if state.alphabet.d != g.d:
        raise DimensionMismatch("state and automaton alphabets disagree")
    d, p, q = g.d, g.p, g.q
    widths = _widths(state.words)
    widest = int(widths.max(initial=0))
    if d ** (widest + 1) > DENSE_WINDOW_CAP ** 2:
        raise DimensionMismatch(
            f"a support of {widest} cells needs {d}^{widest + 1} amplitudes, "
            f"more than the {DENSE_WINDOW_CAP}² entries of the largest dense window")
    v2 = g.v.reshape(d, p * q)
    dtype = state.words.dtype
    vacuum = widths == 0
    starts, words, amps = [state.starts[vacuum]], [state.words[vacuum, :0]], [state.amps[vacuum]]
    for r in np.flatnonzero(widths):
        s = int(widths[r])
        psi = reduce(np.kron, [g.u[:, c] for c in state.words[r, :s]])
        # Axes: b_{start-1} | (a_i, b_i) for the support cells | a_{end+1},
        # which regroups as (b_{i-1}, a_i) pairs for output cells start-1 .. end.
        t = np.kron(g.q1, np.kron(psi, g.q2)).reshape([p * q] * (s + 1))
        for ax in range(s + 1):
            t = np.moveaxis(np.tensordot(t, v2.T, axes=([ax], [0])), -1, ax)
        t = t.ravel()
        nz = np.flatnonzero(np.abs(t) > PRUNE_THRESHOLD)
        starts.append(np.full(len(nz), state.starts[r] - 1))
        words.append(window_digits(nz, d, s + 1, dtype).T)
        amps.append(state.amps[r] * t[nz])
    padded = np.zeros((sum(len(w) for w in words), widest + 1), dtype=dtype)
    row = 0
    for w in words:
        padded[row:row + len(w), :w.shape[1]] = w
        row += len(w)
    result = SparseState._from_arrays(state.alphabet, np.concatenate(starts), padded,
                                      np.concatenate(amps))
    n = result.norm()
    if n == 0:
        raise PreconditionViolated("evolution annihilated the state")
    return result._divided(n)


# ---------------------------------------------------------- window operator

@dataclass(frozen=True)
class WindowOperator:
    """Unitary acting on w consecutive cells with quiescent padding; the
    finite presentation of a global evolution.

    ``matrix`` is a dense (n, n) array, n = d^w, or the one-hot column map
    ``rows`` of G|x> = |rows[x]>: a 1-D int64 array of length n with
    entries in [0, n).  Quantized classical rules use the map (their linear
    extension permutes the basis, with no phases), so windows far beyond
    the dense cap stay cheap.

    ``boundary`` records how the window was closed off: ``"periodic"``
    windows (built from block automata) wrap the last half-cell onto the
    first and are exact for supports with one cell of slack, while
    ``"truncated"`` windows (quantized classical rules) read the outside as
    quiescent.

    ``out_shift`` records a global relabeling between window rows and true
    output cells: window output cell j holds true cell j + out_shift.
    Quantized rules use out_shift = -1 so that the output spilling over the
    left edge is retained and bijective rules stay bijective on the window.
    Validity (unitarity, shift invariance, locality) is established by the
    verifier, not assumed here.
    """

    alphabet: Alphabet
    width: int
    matrix: np.ndarray  # dense (n, n) or one-hot column map (n,)
    boundary: str = "truncated"
    out_shift: int = 0

    def __post_init__(self):
        if self.width < 2:
            raise WindowTooSmall("window width must be at least 2")
        if self.boundary not in ("periodic", "truncated"):
            raise PreconditionViolated(f"unknown boundary kind {self.boundary!r}")
        n = self.dim
        matrix = np.asarray(self.matrix)
        if matrix.ndim == 1:
            if (matrix.shape != (n,) or matrix.dtype.kind not in "iu"
                    or matrix.min() < 0 or matrix.max() >= n):
                raise DimensionMismatch(
                    f"a one-hot column map needs integer rows in [0, {n}) of shape "
                    f"({n},); got {matrix.dtype} rows of shape {matrix.shape}")
            matrix = matrix.astype(np.int64, copy=False)
        elif matrix.shape != (n, n):
            raise DimensionMismatch(
                f"window matrix shape {matrix.shape}, expected ({n}, {n})")
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.alphabet.d ** self.width

    @property
    def is_one_hot(self) -> bool:
        return self.matrix.ndim == 1

    def dense(self) -> np.ndarray:
        if self.is_one_hot:
            if self.dim > DENSE_WINDOW_CAP:
                raise DimensionMismatch(
                    f"refusing to densify a {self.dim}-dimensional window")
            out = np.zeros((self.dim, self.dim), dtype=np.complex128)
            out[self.matrix, np.arange(self.dim)] = 1.0
            return out
        return np.asarray(self.matrix, dtype=np.complex128)

    def grouped(self, s: int) -> "WindowOperator":
        """Reinterpret blocks of s cells as supercells; the matrix is
        unchanged because the window basis order is compatible."""
        if self.width % s != 0:
            raise IndivisibleWidth(f"width {self.width} not divisible by {s}")
        if self.out_shift % s != 0:
            raise IndivisibleWidth(
                f"output relabel {self.out_shift} not divisible by {s}")
        return WindowOperator(self.alphabet.grouped(s), self.width // s,
                              self.matrix, self.boundary, self.out_shift // s)


def quantize(rule: ClassicalRule, w: int, boundary: str = "truncated") -> WindowOperator:
    """Linear extension of a classical rule on a w-cell window.

    With the default truncated boundary, window output cell j holds
    delta(c_{j-1}, c_j) with the cell beyond the left edge read as
    quiescent, i.e. the true image relabeled one cell to the right
    (out_shift = -1).  Keeping the output that spills over the left edge is
    what makes left-flowing bijective rules (like the XOR) bijective on
    the window; the dropped true cell w-1 is delta(c_{w-1}, q).

    With ``boundary="periodic"`` the window is closed into a ring:
    output cell j holds delta(c_j, c_{j+1 mod w}).  The ring form is
    unitary precisely for structurally reversible rules and is the input
    the decomposer wants; rules that are bijective only through unbounded
    borders (the non-locally-quantizable class) lose unitarity here.

    Either way the matrix is the one-hot column map rows and unitarity
    is *not* guaranteed; checking it is the verifier's job.  The rows are
    read one output cell at a time off the window's digits (window_digits)
    in the narrowest dtype, each cell one gather from the flattened table at
    a·d + b.  DimensionMismatch is raised before anything is
    allocated when d^w exceeds DENSE_WINDOW_CAP², the entry count of the
    largest dense window."""
    if w < 2:
        raise WindowTooSmall("quantize needs a window of at least 2 cells")
    d = rule.alphabet.d
    n = d**w
    if n > DENSE_WINDOW_CAP ** 2:
        raise DimensionMismatch(
            f"a window of {w} cells over {d} symbols has dimension {d}^{w}, more than "
            f"the {DENSE_WINDOW_CAP}² entries of the largest dense window")
    if boundary not in ("truncated", "periodic"):
        raise PreconditionViolated(f"unknown boundary kind {boundary!r}")
    digits = list(window_digits(np.arange(n), d, w))
    table = rule.table.astype(digits[0].dtype).ravel()
    if boundary == "truncated":
        pairs, out_shift = zip([0] + digits[:-1], digits), -1
    else:
        pairs, out_shift = zip(digits, digits[1:] + digits[:1]), 0
    rows = window_index([table[np.multiply(a, d, dtype=np.intp) + b] for a, b in pairs], d)
    return WindowOperator(rule.alphabet, w, rows, boundary=boundary, out_shift=out_shift)


def window_matrix(g: BlockQCA, w: int) -> WindowOperator:
    """Dense window presentation of a block automaton.

    The u-layer acts at each of the w cells and the v-layer recombines the
    straddling half-cell pairs, wrapping the last onto the first; this is
    unitary for every w >= 2 and agrees with :func:`apply_block` on
    configurations whose support keeps one cell of slack inside the window.
    The matrix is written one column block at a time (_window_columns), so
    the only n x n array is the result.
    """
    if w < 2:
        raise WindowTooSmall("window width must be at least 2")
    n = g.d**w
    if n > DENSE_WINDOW_CAP:
        raise DimensionMismatch(
            f"dense window would have dimension {n} > cap {DENSE_WINDOW_CAP}")
    out = np.empty((n, n), dtype=np.complex128)
    for cols in row_blocks(n):
        _window_columns(g, w, cols, out[:, cols])
    return WindowOperator(g.alphabet, w, out, boundary="periodic")


def _window_columns(g: BlockQCA, w: int, cols: slice, out: np.ndarray | None = None) -> np.ndarray:
    """The columns ``cols`` of the dense w-cell window of g, from their basis
    inputs alone, written into ``out`` when given.

    The u-layer acts one cell at a time: a basis column's image is the
    product of one column of u per cell, chosen by the column's cell
    digits (window_digits), multiplied in the association of
    the Kronecker power.  Its row axes are (b_0, a_1, b_1, ..., a_{w-1},
    b_{w-1}, a_0): a_0 is kept last, so the v-layer's pairs (b_i, a_{i+1 mod
    w}) are consecutive, and v acts one pair at a time (w·d·n·b operations
    for b columns) between two block buffers."""
    d, p, q = g.d, g.p, g.q
    digits = window_digits(np.arange(d**w)[cols], d, w, np.intp)
    b = digits.shape[1]
    src = g.u[:, digits[0]].reshape(q, p, b).transpose(1, 0, 2)[:, None]
    for i in range(1, w):
        src = np.multiply(src[:, :, None], g.u[:, digits[i]][:, None],
                          order="C").reshape(p, -1, q, b)
    src = src.reshape(-1, b)
    dst = np.empty(src.shape, dtype=np.complex128)
    for i in range(w):
        if i == w - 1 and out is not None:
            dst = out
        np.matmul(g.v, src.reshape(d**i, d, -1), out=dst.reshape(d**i, d, -1))
        src, dst = dst, src
    return src


def apply_window(op: WindowOperator, state: SparseState, offset: int = 0,
                 strict: bool = True) -> SparseState:
    """Apply a window operator to a sparse state whose support (shifted by
    ``-offset`` into window coordinates) lies in [1, w-2].

    ``strict=False`` skips the slack check and applies the matrix as-is;
    the result then describes the window operator itself rather than the
    infinite-line evolution (used for witness evaluation).  Terms are read
    off as window indices and the image rows decoded by window_digits."""
    w = op.width
    d = op.alphabet.d
    span = state.support()
    if span is not None:
        lo, hi = span[0] - offset, span[1] - offset
        if strict and (lo < 1 or hi > w - 2):
            raise WindowTooSmall(
                f"support [{span[0]}, {span[1]}] does not fit window "
                f"[{offset + 1}, {offset + w - 2}] with slack")
        if lo < 0 or hi > w - 1:
            raise WindowTooSmall(
                f"support [{span[0]}, {span[1]}] lies outside the window")
    # the support lies inside the window, so distinct terms have distinct
    # window columns
    cols = _cells_at(state.starts, state.words, offset + np.arange(w), d)[0]
    if op.is_one_hot:
        rows, data = op.matrix[cols], state.amps
    else:
        vec = np.zeros(op.dim, dtype=np.complex128)
        vec[cols] = state.amps
        image = op.matrix @ vec
        rows = np.flatnonzero(np.abs(image) > PRUNE_THRESHOLD)
        data = image[rows]
    return SparseState._from_arrays(state.alphabet, np.full(len(rows), offset + op.out_shift),
                                    window_digits(rows, d, w, state.words.dtype).T, data)


def fit_offset(op: WindowOperator, spans: Iterable[tuple[int, int] | None],
               extra_cells: Iterable[int] = ()) -> int:
    """Offset placing all given supports (plus listed cells, grown by one
    cell of slack each side) inside the window interior [1, w-2]."""
    lo, hi = None, None
    for span in spans:
        if span is None:
            continue
        lo = span[0] if lo is None else min(lo, span[0])
        hi = span[1] if hi is None else max(hi, span[1])
    for c in extra_cells:
        lo = c if lo is None else min(lo, c)
        hi = c if hi is None else max(hi, c)
    if lo is None:
        return 0
    if (hi - lo) > op.width - 4:
        raise WindowTooSmall(
            f"window of {op.width} cells cannot hold span [{lo}, {hi}] "
            "with one cell of slack and one of growth")
    return lo - 2


# ---------------------------------------------------------------- grouping

def group_cells(x, s: int):
    """Reinterpret blocks of s cells as supercells; dispatches on the kind."""
    if isinstance(x, WindowOperator):
        return x.grouped(s)
    if isinstance(x, ClassicalRule):
        return x.grouped(s)
    if isinstance(x, SparseState):
        return _group_state(x, s)
    raise PreconditionViolated(f"cannot group a {type(x).__name__}")


def _group_state(state: SparseState, s: int) -> SparseState:
    """Each row placed at its offset inside its first supercell, then every
    s columns read as one supercell symbol, their window index."""
    m, width = state.words.shape
    first = state.starts // s
    offset = state.starts - first * s
    supercells = -(-(width + s - 1) // s)
    placed = np.zeros((m, supercells * s), dtype=state.words.dtype)
    for o in range(s):
        rows = np.flatnonzero(offset == o)
        placed[rows, o:o + width] = state.words[rows]
    words = window_index(placed.reshape(m, supercells, s).transpose(2, 0, 1),
                         state.alphabet.d)
    return SparseState._from_arrays(state.alphabet.grouped(s), first, words, state.amps)
