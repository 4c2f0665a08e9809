"""Seeded random constructions that the CI scripts and the tests build
inputs from.  Everything is a pure function of its seed."""
from __future__ import annotations

import numpy as np

from .linalg import dagger, kron
from .model import Alphabet


def rng_of(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def random_unitary(n: int, seed=0) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    rng = rng_of(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def default_alphabet(d: int) -> Alphabet:
    """Alphabet with symbols "1", "2", ... and quiescent "q"."""
    return Alphabet(tuple(str(i) for i in range(1, d)), "q")


def conjugated_factor_generators(p: int, q: int, seed=0, n_gens: int = 2):
    """Generators of W (M_p ⊗ I_q) W† for a seeded random W; returns
    (generators, W)."""
    rng = rng_of(seed)
    n = p * q
    w = random_unitary(n, rng)
    gens = []
    for _ in range(n_gens):
        m = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        gens.append(w @ kron(m, np.eye(q)) @ dagger(w))
    return gens, w
