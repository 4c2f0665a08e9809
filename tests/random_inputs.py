"""Seeded random inputs of the tests: Haar-random block automata with an
exact quiescent gauge, shift-invariant unitary kicks of their windows,
random sparse states and conjugated commuting algebra pairs.  Everything
is a pure function of its seed."""
from __future__ import annotations

import numpy as np

from qcablocks.errors import DimensionMismatch
from qcablocks.linalg import dagger, kron
from qcablocks.model import Alphabet, BlockQCA, Configuration, SparseState, WindowOperator
from qcablocks.rand import default_alphabet, random_unitary, rng_of


def random_state_vector(n: int, seed=0) -> np.ndarray:
    rng = rng_of(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _rotation_onto(target: np.ndarray, source: np.ndarray, rng) -> np.ndarray:
    """A unitary mapping ``source`` to ``target`` (both unit vectors)."""
    n = len(target)
    def complete(v):
        m = np.concatenate([v[:, None],
                            rng.standard_normal((n, n - 1))
                            + 1j * rng.standard_normal((n, n - 1))], axis=1)
        q, r = np.linalg.qr(m)
        return q * (np.diag(r) / np.abs(np.diag(r)))
    return complete(target) @ dagger(complete(source))


def random_block_qca(d: int, p: int, q: int, seed=0,
                     alphabet: Alphabet | None = None) -> BlockQCA:
    """Haar-random block automaton with an exact quiescent gauge."""
    if p * q != d:
        raise DimensionMismatch(f"p*q = {p * q} != d = {d}")
    rng = rng_of(seed)
    alphabet = alphabet or default_alphabet(d)
    q1 = random_state_vector(p, rng)
    q2 = random_state_vector(q, rng)
    ket_q = np.zeros(d, dtype=np.complex128)
    ket_q[0] = 1.0
    u0 = random_unitary(d, rng)
    u = _rotation_onto(np.kron(q2, q1), u0 @ ket_q, rng) @ u0
    v0 = random_unitary(d, rng)
    v = _rotation_onto(ket_q, v0 @ np.kron(q1, q2), rng) @ v0
    return BlockQCA(alphabet, p, q, u, v, q1, q2)


def ring_kick(op: WindowOperator, eps: float, seed=2, cells: int = 3) -> WindowOperator:
    """The ring window G·exp(i·eps·H), a unitary kick that keeps G shift
    invariant and its quiescent configuration fixed.

    H is one random Hermitian term on ``cells`` consecutive cells, with its
    quiescent row and column zeroed, summed over every ring position and
    scaled to operator norm 1; the exponential is taken by eigh."""
    rng = rng_of(seed)
    d, w = op.alphabet.d, op.width
    m = d ** cells
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    term = a + dagger(a)
    term[0, :] = term[:, 0] = 0.0
    term = kron(term, np.eye(d ** (w - cells))).reshape((d,) * (2 * w))
    h = np.zeros((op.dim, op.dim), dtype=np.complex128)
    for at in range(w):
        legs = [(c - at) % w for c in range(w)]
        h += term.transpose(legs + [w + c for c in legs]).reshape(op.dim, op.dim)
    vals, vecs = np.linalg.eigh(h)
    vals /= np.max(np.abs(vals))
    kick = (vecs * np.exp(1j * eps * vals)) @ dagger(vecs)
    return WindowOperator(op.alphabet, w, op.dense() @ kick, op.boundary)


def random_sparse_state(alphabet: Alphabet, cells: range, n_terms: int, seed=0) -> SparseState:
    """Normalized random superposition of basis configurations supported on
    the given cell range."""
    rng = rng_of(seed)
    d = alphabet.d
    terms = {}
    for _ in range(n_terms):
        word = rng.integers(0, d, size=len(cells))
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        cfg = Configuration.make(cells.start, [int(x) for x in word])
        terms[cfg] = terms.get(cfg, 0.0) + amp
    state = SparseState(alphabet, terms)
    return state.normalized()


def conjugated_commuting_pair(p: int, q: int, seed=0, n_gens: int = 2):
    """Generators of W(M_p ⊗ I_q)W† and W(I_p ⊗ M_q)W†; returns
    (a_gens, b_gens, W)."""
    rng = rng_of(seed)
    n = p * q
    w = random_unitary(n, rng)
    a_gens, b_gens = [], []
    for _ in range(n_gens):
        m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        a_gens.append(w @ kron(m, np.eye(q)) @ dagger(w))
        m2 = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        b_gens.append(w @ kron(np.eye(p), m2) @ dagger(w))
    return a_gens, b_gens, w
