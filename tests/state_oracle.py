"""Dict-based reference implementations of the sparse-state operations.

These are the per-term loops the array-backed ``SparseState`` replaced, kept
as oracles for the property tests in ``test_state_arrays.py``, and the
per-configuration step of a classical rule (``step_config``), the oracle of
``ClassicalRule.apply``.  A state here is a plain ``{Configuration:
complex}`` mapping (a ``SparseState.terms`` view, or a dict): equal
configurations are merged by their canonical form and amplitudes at or
below the prune threshold are dropped, as the library's constructor does.
"""
from __future__ import annotations

from functools import reduce

import numpy as np

from qcablocks.model import PRUNE_THRESHOLD, Configuration


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    return tuple((value // base**k) % base for k in range(width - 1, -1, -1))


def merged(pairs) -> dict:
    """Sum (configuration, amplitude) pairs by canonical configuration, in
    order, then prune."""
    out: dict[Configuration, complex] = {}
    for c, a in pairs:
        c = Configuration.make(c.start, c.word)
        out[c] = out.get(c, 0.0) + a
    return {c: complex(a) for c, a in out.items() if abs(a) > PRUNE_THRESHOLD}


def norm(terms) -> float:
    return float(np.sqrt(sum(abs(a) ** 2 for a in terms.values())))


def inner(a_terms, b_terms) -> complex:
    return complex(sum(np.conj(a) * b_terms[c] for c, a in a_terms.items() if c in b_terms))


def distance(a_terms, b_terms) -> float:
    keys = set(a_terms) | set(b_terms)
    return float(np.sqrt(sum(
        abs(a_terms.get(c, 0.0) - b_terms.get(c, 0.0)) ** 2 for c in keys)))


def support(terms):
    live = [c for c in terms if not c.is_vacuum]
    if not live:
        return None
    return min(c.start for c in live), max(c.end for c in live)


def shifted(c: Configuration, k: int) -> Configuration:
    """Relabel positions i -> i - k (contents move left for k > 0)."""
    if c.is_vacuum:
        return c
    return Configuration(c.start - k, c.word)


def shift(terms, k: int) -> dict:
    return merged((shifted(c, k), a) for c, a in terms.items())


def restrict_state(terms, cells, d: int) -> np.ndarray:
    cells = sorted(set(int(i) for i in cells))
    dim = d ** len(cells)
    groups: dict[tuple, dict[int, complex]] = {}
    for config, amp in terms.items():
        idx = 0
        for pos in cells:
            idx = idx * d + config.cell(pos)
        rest = tuple((pos, t) for pos, t in
                     ((config.start + i, t) for i, t in enumerate(config.word))
                     if t != 0 and pos not in cells)
        vec = groups.setdefault(rest, {})
        vec[idx] = vec.get(idx, 0.0) + amp
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for vec in groups.values():
        idxs = np.fromiter(vec.keys(), dtype=np.int64)
        vals = np.fromiter((vec[i] for i in idxs), dtype=np.complex128)
        rho[np.ix_(idxs, idxs)] += np.outer(vals, vals.conj())
    return rho


def step_config(rule, config: Configuration) -> Configuration:
    """One classical step of a basis configuration under ``rule``."""
    if config.is_vacuum:
        return config
    lo, hi = config.start - 1, config.end
    word = [int(rule.table[config.cell(i), config.cell(i + 1)])
            for i in range(lo, hi + 1)]
    return Configuration.make(lo, word)


def classical_apply(rule, terms) -> dict:
    return merged((step_config(rule, c), a) for c, a in terms.items())


def apply_block(terms, g) -> dict:
    """One normalized step of the block automaton, per configuration."""
    d, p, q = g.d, g.p, g.q
    v2 = g.v.reshape(d, p * q)
    pairs = []
    for config, amp in terms.items():
        if config.is_vacuum:
            pairs.append((config, amp))
            continue
        width = len(config.word) + 1
        psi = reduce(np.kron, [g.u[:, c] for c in config.word])
        t = np.kron(g.q1, np.kron(psi, g.q2)).reshape([p * q] * width)
        for ax in range(width):
            t = np.moveaxis(np.tensordot(t, v2.T, axes=([ax], [0])), -1, ax)
        t = t.ravel()
        for flat in np.flatnonzero(np.abs(t) > PRUNE_THRESHOLD):
            pairs.append((Configuration.make(config.start - 1, _digits(int(flat), d, width)),
                          amp * t[flat]))
    out = merged(pairs)
    n = norm(out)
    return merged((c, a / n) for c, a in out.items())


def apply_window(op, terms, offset: int = 0) -> dict:
    """The window operator on a state inside the window (no slack check)."""
    w, d = op.width, op.alphabet.d
    entries: dict[int, complex] = {}
    for config, amp in terms.items():
        idx = 0
        for i in range(w):
            idx = idx * d + config.cell(offset + i)
        entries[idx] = entries.get(idx, 0.0) + amp
    cols = np.fromiter(entries.keys(), dtype=np.int64)
    vals = np.fromiter((entries[c] for c in cols), dtype=np.complex128)
    if op.is_one_hot:
        rows, data = op.matrix[cols], vals
    else:
        vec = np.zeros(op.dim, dtype=np.complex128)
        vec[cols] = vals
        image = op.matrix @ vec
        rows = np.flatnonzero(np.abs(image) > PRUNE_THRESHOLD)
        data = image[rows]
    return merged((Configuration.make(offset + op.out_shift, _digits(int(r), d, w)), a)
                  for r, a in zip(rows, data))


def group_state(terms, d: int, s: int) -> dict:
    pairs = []
    for config, amp in terms.items():
        if config.is_vacuum:
            pairs.append((config, amp))
            continue
        lo = (config.start // s) * s
        hi = (config.end // s) * s + s - 1
        cells = [config.cell(i) for i in range(lo, hi + 1)]
        word = [int(np.dot(cells[j:j + s], [d ** (s - 1 - t) for t in range(s)]))
                for j in range(0, len(cells), s)]
        pairs.append((Configuration.make(lo // s, word), amp))
    return merged(pairs)


def ungroup_state(terms, base_d: int, s: int) -> dict:
    pairs = []
    for config, amp in terms.items():
        word = [x for t in config.word for x in _digits(t, base_d, s)]
        pairs.append((Configuration.make(config.start * s, word), amp))
    return merged(pairs)


def grouped_table(table, d: int, s: int) -> np.ndarray:
    """Supercell rule table of a classical rule on s-cell supercells, one
    pair of supercells at a time: output supercell x holds
    table[c_k, c_(k+1)] for k < s over the 2s cells of (x, y)."""
    dg = d**s
    out = np.zeros((dg, dg), dtype=np.int64)
    for x in range(dg):
        xs = _digits(x, d, s)
        for y in range(dg):
            cells = xs + _digits(y, d, s)
            word = [int(table[cells[k], cells[k + 1]]) for k in range(s)]
            out[x, y] = int(np.dot(word, [d ** (s - 1 - k) for k in range(s)]))
    return out
