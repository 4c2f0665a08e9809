"""Cells, finite configurations, sparse superpositions, and the concrete
evolutions acting on them: classical radius-1/2 rules, two-layered block
automata, and finite-window presentations, stored either as a dense matrix
or, for quantized classical rules, as a one-hot column map.

Conventions frozen here and used everywhere else:

* Cell dimension d = |symbols| + 1; index 0 is the quiescent symbol, the
  remaining symbols follow in alphabet order.
* Window bases are lexicographic over cells left to right, so the basis
  index of a window word is its base-d value with cell 0 most significant.
* A block automaton splits each cell into a left part of dimension q and a
  right part of dimension p: after the u-layer site i holds (a_i, b_i) in
  C^q ⊗ C^p, and the v-layer forms output cell i from (b_i, a_{i+1}).
  Every quiescent cell outside a configuration's support is taken to split
  exactly as (q2, q1), which makes the everywhere-quiescent state an exact
  fixed point; apply_block computes on the support cells only.
* A classical rule writes delta(c_i, c_{i+1}) into output cell i.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    IndivisibleWidth,
    PreconditionViolated,
    WindowTooSmall,
)
from .linalg import is_unitary, max_norm

PRUNE_THRESHOLD = 1e-14
# Dense window matrices are refused above this dimension, and apply_block
# refuses amplitude vectors with more entries than such a matrix.  Quantized
# rules are one-hot column maps and are never densified by the library.
DENSE_WINDOW_CAP = 8192


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
            words = []
            for idx in range(d**s):
                digits = _digits(idx, d, s)
                words.append(sep.join(names[t] for t in digits))
            return words[1:], words[0]

        syms, quiescent = joined("")
        if len(set(syms + [quiescent])) != d**s:
            syms, quiescent = joined("|")
        return Alphabet(tuple(syms), quiescent)


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for k in range(width - 1, -1, -1):
        out.append((value // base**k) % base)
    return tuple(out)


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

    def shifted(self, k: int) -> "Configuration":
        """Relabel positions i -> i - k (contents move left for k > 0)."""
        if self.is_vacuum:
            return self
        return Configuration(self.start - k, self.word)

    def cells(self, alphabet: Alphabet) -> dict[int, str]:
        """Non-quiescent cells as a position -> symbol mapping."""
        return {self.start + i: alphabet.symbol(t)
                for i, t in enumerate(self.word) if t != 0}


# ------------------------------------------------------------ sparse state

class SparseState:
    """Finitely supported superposition of finite configurations.

    Terms with amplitude below the prune threshold are dropped at
    construction.  Instances are treated as immutable.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet: Alphabet, terms: Mapping[Configuration, complex],
                 prune: float = PRUNE_THRESHOLD):
        self.alphabet = alphabet
        self.terms: dict[Configuration, complex] = {
            c: complex(a) for c, a in terms.items() if abs(a) > prune}

    @classmethod
    def vacuum(cls, alphabet: Alphabet) -> "SparseState":
        return cls(alphabet, {Configuration.vacuum(): 1.0})

    @classmethod
    def from_cells(cls, alphabet: Alphabet, cells: Mapping[int, str],
                   amp: complex = 1.0) -> "SparseState":
        return cls(alphabet, {config_from_cells(alphabet, cells): amp})

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.terms.values())))

    def normalized(self) -> "SparseState":
        n = self.norm()
        if n == 0:
            raise PreconditionViolated("cannot normalize the zero vector")
        return SparseState(self.alphabet, {c: a / n for c, a in self.terms.items()})

    def inner(self, other: "SparseState") -> complex:
        small, large = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        acc = 0.0 + 0.0j
        for c, a in small.terms.items():
            b = large.terms.get(c)
            if b is not None:
                acc += (np.conj(a) * b if small is self else np.conj(b) * a)
        return complex(acc)

    def support(self) -> tuple[int, int] | None:
        """Smallest interval containing every non-quiescent cell, or None."""
        lo, hi = None, None
        for c in self.terms:
            if c.is_vacuum:
                continue
            lo = c.start if lo is None else min(lo, c.start)
            hi = c.end if hi is None else max(hi, c.end)
        return None if lo is None else (lo, hi)

    def distance(self, other: "SparseState") -> float:
        keys = set(self.terms) | set(other.terms)
        return float(np.sqrt(sum(
            abs(self.terms.get(c, 0.0) - other.terms.get(c, 0.0)) ** 2 for c in keys)))

    def __repr__(self):
        return f"SparseState({len(self.terms)} terms)"


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
    return SparseState(state.alphabet, {c.shifted(k): a for c, a in state.terms.items()})


def restrict_state(state: SparseState, cells: Iterable[int]) -> np.ndarray:
    """Reduced density matrix on the named cells (sorted order), tracing out
    everything else.  Finite thanks to the quiescent default."""
    cells = sorted(set(int(i) for i in cells))
    d = state.alphabet.d
    dim = d ** len(cells)
    groups: dict[tuple, dict[int, complex]] = {}
    for config, amp in state.terms.items():
        idx = 0
        for pos in cells:
            idx = idx * d + config.cell(pos)
        rest = tuple((pos, t) for pos, t in
                     ((config.start + i, t) for i, t in enumerate(config.word))
                     if t != 0 and pos not in cells)
        groups.setdefault(rest, {})[idx] = groups.setdefault(rest, {}).get(idx, 0.0) + amp
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for vec in groups.values():
        idxs = np.fromiter(vec.keys(), dtype=np.int64)
        vals = np.fromiter((vec[i] for i in idxs), dtype=np.complex128)
        rho[np.ix_(idxs, idxs)] += np.outer(vals, vals.conj())
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

    def step_config(self, config: Configuration) -> Configuration:
        """One classical step of a basis configuration."""
        if config.is_vacuum:
            return config
        lo, hi = config.start - 1, config.end
        word = [int(self.table[config.cell(i), config.cell(i + 1)])
                for i in range(lo, hi + 1)]
        return Configuration.make(lo, word)

    def apply(self, state: SparseState) -> SparseState:
        """Linear extension of the rule to superpositions (exact; the rule
        need not be injective, in which case amplitudes merge)."""
        out: dict[Configuration, complex] = {}
        for config, amp in state.terms.items():
            image = self.step_config(config)
            out[image] = out.get(image, 0.0) + amp
        return SparseState(state.alphabet, out)

    def grouped(self, s: int) -> "ClassicalRule":
        """The same dynamics on supercells of s cells."""
        grouped_alpha = self.alphabet.grouped(s)
        d = self.alphabet.d
        dg = d**s
        table = np.zeros((dg, dg), dtype=np.int64)
        for x in range(dg):
            xs = _digits(x, d, s)
            for y in range(dg):
                ys = _digits(y, d, s)
                cells = xs + ys
                out = [int(self.table[cells[k], cells[k + 1]]) for k in range(s)]
                table[x, y] = int(np.dot(out, [d ** (s - 1 - k) for k in range(s)]))
        return ClassicalRule(grouped_alpha, table)


# -------------------------------------------------------------- block QCA

@dataclass(frozen=True)
class BlockQCA:
    """Two-layered block automaton: cell-splitting unitary u (C^d -> C^q ⊗ C^p),
    recombining unitary v (C^p ⊗ C^q -> C^d), and the quiescent gauge pair
    (q1 in C^p, q2 in C^q) with u|q> = |q2>|q1> and v(|q1>|q2>) = |q>."""

    alphabet: Alphabet
    p: int
    q: int
    u: np.ndarray
    v: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    gauge_tol: float = field(default=1e-6, compare=False)

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
        tol = self.gauge_tol
        if not is_unitary(self.u, tol) or not is_unitary(self.v, tol):
            raise PreconditionViolated("u and v must be unitary")
        if max_norm(self.gauge_residuals()) > tol:
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
    """
    if state.alphabet.d != g.d:
        raise DimensionMismatch("state and automaton alphabets disagree")
    d, p, q = g.d, g.p, g.q
    widest = max((len(c.word) for c in state.terms), default=0)
    if d ** (widest + 1) > DENSE_WINDOW_CAP ** 2:
        raise DimensionMismatch(
            f"a support of {widest} cells needs {d}^{widest + 1} amplitudes, "
            f"more than the {DENSE_WINDOW_CAP}² entries of the largest dense window")
    v2 = g.v.reshape(d, p * q)
    out: dict[Configuration, complex] = {}
    for config, amp in state.terms.items():
        if config.is_vacuum:
            out[config] = out.get(config, 0.0) + amp
            continue
        width = len(config.word) + 1
        psi = reduce(np.kron, [g.u[:, c] for c in config.word])
        # Axes: b_{start-1} | (a_i, b_i) for the support cells | a_{end+1},
        # which regroups as (b_{i-1}, a_i) pairs for output cells start-1 .. end.
        t = np.kron(g.q1, np.kron(psi, g.q2)).reshape([p * q] * width)
        for ax in range(width):
            t = np.moveaxis(np.tensordot(t, v2.T, axes=([ax], [0])), -1, ax)
        t = t.ravel()
        nz = np.flatnonzero(np.abs(t) > PRUNE_THRESHOLD)
        for flat in nz:
            word = _digits(int(flat), d, width)
            cfg = Configuration.make(config.start - 1, word)
            out[cfg] = out.get(cfg, 0.0) + amp * t[flat]
    result = SparseState(state.alphabet, out)
    n = result.norm()
    if n == 0:
        raise PreconditionViolated("evolution annihilated the state")
    return SparseState(state.alphabet, {c: a / n for c, a in result.terms.items()})


# ---------------------------------------------------------- window operator

@dataclass(frozen=True)
class WindowOperator:
    """Unitary acting on w consecutive cells with quiescent padding; the
    finite presentation of a global evolution.

    ``matrix`` is a dense (n, n) array, n = d^w, or the one-hot column map
    ``(rows, phases)`` of G|x> = phases[x] |rows[x]>: int rows in [0, n)
    and complex phases, 1-D of length n.  Quantized classical rules use
    the map, so windows far beyond the dense cap stay cheap.

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
    matrix: object  # dense (n, n) array or one-hot (rows, phases)
    boundary: str = "truncated"
    out_shift: int = 0

    def __post_init__(self):
        if self.width < 2:
            raise WindowTooSmall("window width must be at least 2")
        if self.boundary not in ("periodic", "truncated"):
            raise PreconditionViolated(f"unknown boundary kind {self.boundary!r}")
        n = self.dim
        if self.is_one_hot:
            rows, phases = (np.asarray(a) for a in self.matrix)
            if (rows.shape != (n,) or phases.shape != (n,) or rows.dtype.kind not in "iu"
                    or rows.min() < 0 or rows.max() >= n):
                raise DimensionMismatch(
                    f"a one-hot column map needs integer rows in [0, {n}) and phases, "
                    f"both of shape ({n},); got {rows.shape} and {phases.shape}")
            object.__setattr__(self, "matrix", (rows.astype(np.int64, copy=False),
                                                phases.astype(np.complex128, copy=False)))
        elif self.matrix.shape != (n, n):
            raise DimensionMismatch(
                f"window matrix shape {self.matrix.shape}, expected ({n}, {n})")

    @property
    def dim(self) -> int:
        return self.alphabet.d ** self.width

    @property
    def is_one_hot(self) -> bool:
        return isinstance(self.matrix, tuple)

    def dense(self) -> np.ndarray:
        if self.is_one_hot:
            if self.dim > DENSE_WINDOW_CAP:
                raise DimensionMismatch(
                    f"refusing to densify a {self.dim}-dimensional window")
            rows, phases = self.matrix
            out = np.zeros((self.dim, self.dim), dtype=np.complex128)
            out[rows, np.arange(self.dim)] = phases
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

    def ungrouped(self, base: Alphabet, s: int) -> "WindowOperator":
        """Inverse of :meth:`grouped`: view each cell as s cells over the
        base alphabet."""
        if base.d ** s != self.alphabet.d:
            raise DimensionMismatch(
                f"cell dimension {self.alphabet.d} is not {base.d}^{s}")
        return WindowOperator(base, self.width * s, self.matrix, self.boundary,
                              self.out_shift * s)

    def column_digits(self) -> np.ndarray:
        """All window words as an array of shape (d^w, w) of symbol indices."""
        d, w = self.alphabet.d, self.width
        idx = np.arange(d**w)
        return (idx[:, None] // (d ** np.arange(w - 1, -1, -1))[None, :]) % d


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

    Either way the matrix is the one-hot column map (rows, ones) and
    unitarity is *not* guaranteed; checking it is the verifier's job."""
    if w < 2:
        raise WindowTooSmall("quantize needs a window of at least 2 cells")
    d = rule.alphabet.d
    n = d**w
    powers = (d ** np.arange(w - 1, -1, -1)).astype(np.int64)
    idx = np.arange(n, dtype=np.int64)
    digits = (idx[:, None] // powers[None, :]) % d
    if boundary == "truncated":
        padded = np.concatenate([np.zeros((n, 1), dtype=np.int64), digits], axis=1)
        out_digits = rule.table[padded[:, :-1], padded[:, 1:]]
        out_shift = -1
    elif boundary == "periodic":
        rolled = np.concatenate([digits[:, 1:], digits[:, :1]], axis=1)
        out_digits = rule.table[digits, rolled]
        out_shift = 0
    else:
        raise PreconditionViolated(f"unknown boundary kind {boundary!r}")
    return WindowOperator(rule.alphabet, w, (out_digits @ powers, np.ones(n)),
                          boundary=boundary, out_shift=out_shift)


def window_matrix(g: BlockQCA, w: int) -> WindowOperator:
    """Dense window presentation of a block automaton.

    The u-layer acts at each of the w cells and the v-layer recombines the
    straddling half-cell pairs, wrapping the last onto the first; this is
    unitary for every w >= 2 and agrees with :func:`apply_block` on
    configurations whose support keeps one cell of slack inside the window.
    """
    if w < 2:
        raise WindowTooSmall("window width must be at least 2")
    d, p, q = g.d, g.p, g.q
    n = d**w
    if n > DENSE_WINDOW_CAP:
        raise DimensionMismatch(
            f"dense window would have dimension {n} > cap {DENSE_WINDOW_CAP}")
    # Row axes after the u-layer: (a_0, b_0, ..., a_{w-1}, b_{w-1}); the
    # v-layer pairs (b_i, a_{i+1 mod w}), a cyclic left shift of the axes.
    # The Kronecker power is dropped once its transposed copy exists.
    src = np.transpose(reduce(np.kron, [g.u] * w).reshape([q, p] * w + [n]),
                       list(range(1, 2 * w)) + [0, 2 * w]).reshape(n, n)
    dst = np.empty_like(src)
    # the v-layer one cell at a time (w·d·n² rather than one n³ product),
    # between two n x n buffers
    for i in range(w):
        np.matmul(g.v, src.reshape(d**i, d, -1), out=dst.reshape(d**i, d, -1))
        src, dst = dst, src
    return WindowOperator(g.alphabet, w, src, boundary="periodic")


def apply_window(op: WindowOperator, state: SparseState, offset: int = 0,
                 strict: bool = True) -> SparseState:
    """Apply a window operator to a sparse state whose support (shifted by
    ``-offset`` into window coordinates) lies in [1, w-2].

    ``strict=False`` skips the slack check and applies the matrix as-is;
    the result then describes the window operator itself rather than the
    infinite-line evolution (used for witness evaluation)."""
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
    vec_entries: dict[int, complex] = {}
    for config, amp in state.terms.items():
        idx = 0
        for i in range(w):
            idx = idx * d + config.cell(offset + i)
        vec_entries[idx] = vec_entries.get(idx, 0.0) + amp
    cols = np.fromiter(vec_entries.keys(), dtype=np.int64)
    vals = np.fromiter((vec_entries[c] for c in cols), dtype=np.complex128)
    if op.is_one_hot:
        rows, phases = op.matrix
        rows, data = rows[cols], phases[cols] * vals
    else:
        vec = np.zeros(op.dim, dtype=np.complex128)
        vec[cols] = vals
        image = op.matrix @ vec
        rows = np.flatnonzero(np.abs(image) > PRUNE_THRESHOLD)
        data = image[rows]
    out: dict[Configuration, complex] = {}
    for r, a in zip(rows, data):
        word = _digits(int(r), d, w)
        cfg = Configuration.make(offset + op.out_shift, word)
        out[cfg] = out.get(cfg, 0.0) + a
    return SparseState(state.alphabet, out)


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


def ungroup_cells(x, base: Alphabet, s: int):
    """Inverse of :func:`group_cells` for states and window operators."""
    if isinstance(x, WindowOperator):
        return x.ungrouped(base, s)
    if isinstance(x, SparseState):
        return _ungroup_state(x, base, s)
    raise PreconditionViolated(f"cannot ungroup a {type(x).__name__}")


def _group_state(state: SparseState, s: int) -> SparseState:
    alpha = state.alphabet
    grouped_alpha = alpha.grouped(s)
    d = alpha.d
    out: dict[Configuration, complex] = {}
    for config, amp in state.terms.items():
        if config.is_vacuum:
            cfg = config
        else:
            lo = (config.start // s) * s
            hi = (config.end // s) * s + s - 1
            cells = [config.cell(i) for i in range(lo, hi + 1)]
            word = []
            for j in range(0, len(cells), s):
                chunk = cells[j : j + s]
                word.append(int(np.dot(chunk, [d ** (s - 1 - t) for t in range(s)])))
            cfg = Configuration.make(lo // s, word)
        out[cfg] = out.get(cfg, 0.0) + amp
    return SparseState(grouped_alpha, out)


def _ungroup_state(state: SparseState, base: Alphabet, s: int) -> SparseState:
    if base.d ** s != state.alphabet.d:
        raise DimensionMismatch(
            f"cell dimension {state.alphabet.d} is not {base.d}^{s}")
    out: dict[Configuration, complex] = {}
    for config, amp in state.terms.items():
        word: list[int] = []
        for t in config.word:
            word.extend(_digits(t, base.d, s))
        cfg = Configuration.make(config.start * s, word)
        out[cfg] = out.get(cfg, 0.0) + amp
    return SparseState(base, out)
