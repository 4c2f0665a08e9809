"""Dense complex matrix utilities: Kronecker products, partial traces,
localization tests, and Hilbert-Schmidt geometry.

All functions treat matrices as numpy arrays of complex128.  A "factor
shape" is a tuple of positive integers whose product equals the ambient
dimension; factor 0 is the leftmost (most significant) Kronecker factor.
Everything here is pure and safe to call concurrently.
"""
from __future__ import annotations

from functools import reduce
from math import prod, sqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch

DEFAULT_TOL = 1e-9
# blocks of all dense streaming (is_unitary, the localization defects of
# conjugated units, window_matrix, the dense certificate): a block's scratch
# is a few arrays of about 1/STREAM_BLOCKS of the matrix's bytes
STREAM_BLOCKS = 16


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={a.ndim}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Adjoint (conjugate transpose)."""
    return np.asarray(m).conj().T


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor most significant."""
    if not factors:
        raise DimensionMismatch("kron needs at least one factor")
    return reduce(np.kron, factors)


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm."""
    return float(np.linalg.norm(a))


def max_norm(a: np.ndarray) -> float:
    """Entrywise max-modulus norm used for all tolerance checks."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def row_blocks(n: int) -> list[slice]:
    """The streaming blocks of n rows (or columns): STREAM_BLOCKS contiguous
    ranges, fewer where a block would have under STREAM_BLOCKS rows, so a
    small matrix is one block."""
    blocks = min(STREAM_BLOCKS, max(1, n // STREAM_BLOCKS))
    edges = [n * i // blocks for i in range(blocks + 1)]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``max |m† m - I| <= tol``.  Raises on non-square input.

    m† m is Hermitian, so only its upper block triangle is formed: for each
    column block J of row_blocks, the block row m[:, J]† m[:, J:].  The
    scratch is one conjugated column block and one block row, never an
    n x n product, identity or difference, and the first block row above
    tol ends the test."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"unitarity needs a square matrix, got {m.shape}")
    for cols in row_blocks(m.shape[0]):
        row = np.conj(m[:, cols]).T @ m[:, cols.start:]
        diag = np.arange(cols.stop - cols.start)
        row[diag, diag] -= 1.0
        if not max_norm(row) <= tol:
            return False
    return True


def validate_shape(dims: Sequence[int], n: int) -> tuple[int, ...]:
    """Check that a factor shape multiplies out to the ambient dimension n."""
    dims = tuple(int(d) for d in dims)
    if any(d <= 0 for d in dims):
        raise DimensionMismatch(f"factor dims must be positive, got {dims}")
    if prod(dims) != n:
        raise DimensionMismatch(f"factor shape {dims} does not multiply to {n}")
    return dims


def _normalize_region(dims: Sequence[int], region: Iterable[int]) -> tuple[int, ...]:
    w = len(dims)
    keep = sorted(set(int(i) for i in region))
    if any(i < 0 or i >= w for i in keep):
        raise DimensionMismatch(f"region {keep} out of range for {w} factors")
    return tuple(keep)


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out the factors not listed in ``keep``; kept factor order is
    preserved.  ``dims`` is the factor shape of the square matrix ``m``."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("partial_trace needs a square matrix")
    dims = validate_shape(dims, m.shape[0])
    keep = _normalize_region(dims, keep)
    w = len(dims)
    t = m.reshape(dims + dims)
    row_labels = list(range(w))
    col_labels = [w + i if i in keep else i for i in range(w)]
    out_labels = [i for i in keep] + [w + i for i in keep]
    out = np.einsum(t, row_labels + col_labels, out_labels)
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    return out.reshape(dk, dk)


def localization_residual(a: np.ndarray, dims: Sequence[int], region: Iterable[int]) -> float:
    """Max-norm distance of ``a`` from the set of operators supported on
    ``region`` (identity elsewhere): ``max_norm(a - embed(partial_trace(a) /
    dc))``."""
    return localization_defect(a, dims, region)[0]


def localization_defect(a: np.ndarray, dims: Sequence[int],
                        region: Iterable[int]) -> tuple[float, float]:
    """Max-norm and Hilbert-Schmidt norm of ``a - P(a)``, P the conditional
    expectation onto operators supported on ``region``: the one-block,
    one-region case of localization_defects."""
    return localization_defects([(0, as_matrix(a))], dims, [region])[0]


def localization_defects(blocks: Iterable[tuple[int, np.ndarray]], dims: Sequence[int],
                         regions: Sequence[Iterable[int]]) -> list[tuple[float, float]]:
    """Max-norm and Hilbert-Schmidt norm of ``a - P_R(a)`` for every region
    R, P_R the conditional expectation onto operators supported on R (the
    diagonal-block mean), in one pass over the square matrix ``a`` given as
    row blocks: ``blocks`` yields (first row, rows) pairs that cover every
    row once, so ``a`` itself need never exist.

    Each block's |.| is taken once for all regions.  Per region, the
    entries on the complement diagonal (row and column agree off R; n·d_R
    of them) are gathered into their diagonal blocks and kept; the rest
    count in full toward the region's max and HS sum, read from |block|
    with the diagonal entries zeroed for that region.  After the pass each
    region's diagonal blocks are compared with their mean.  The scratch is
    one block, its |.| and the kept diagonals.  The HS norm bounds the
    operator norm of the defect from above."""
    regions = list(regions)
    state = None
    for lo, block in blocks:
        if state is None:
            state = [_RegionDefect(dims, block.shape[1], region) for region in regions]
        block = np.ascontiguousarray(block)
        mags = np.abs(block)
        for i, region in enumerate(state):
            region.add(lo, block, mags, restore=i < len(state) - 1)
        del block, mags  # before the next block is built
    # each region's kept diagonal is dropped once it is scored
    return [state.pop(0).result() for _ in regions]


class _RegionDefect:
    """The running defect of one region in localization_defects."""

    def __init__(self, dims: Sequence[int], n: int, region: Iterable[int]):
        dims = validate_shape(dims, n)
        keep = _normalize_region(dims, region)
        self.n = n
        self.dk = prod(dims[i] for i in keep)
        self.dc = n // self.dk
        # window indices of the words zero off the region (offsets, in region
        # order) and zero on it (one per complement value, broadcast to every
        # row): the diagonal-block columns of row r are base[r] + offsets
        words = np.arange(n, dtype=np.int64).reshape(dims)
        self.offsets = words[tuple(slice(None) if i in keep else slice(0, 1)
                                   for i in range(len(dims)))].reshape(-1)
        base = words[tuple(slice(0, 1) if i in keep else slice(None)
                           for i in range(len(dims)))]
        # row r's flat position in the matrix at column base[r]
        self.start = (words * n + base).reshape(-1)
        # row r's entries there land in row slot[r] = (complement, region)
        # of the kept diagonal
        self.slot = np.empty(n, dtype=np.int64)
        self.slot[words.transpose([i for i in range(len(dims)) if i not in keep]
                                  + list(keep)).reshape(-1)] = np.arange(n)
        self.diag = np.empty((n, self.dk), dtype=np.complex128)
        self.off_max = 0.0
        self.off_ssq = 0.0

    def add(self, lo: int, block: np.ndarray, mags: np.ndarray, restore: bool) -> None:
        """Score the rows lo ... of a C-contiguous block and its |.|."""
        rows = slice(lo, lo + block.shape[0])
        # flat positions of the diagonal-block entries inside the block
        at = (self.start[rows] - lo * self.n)[:, None] + self.offsets
        self.diag[self.slot[rows]] = block.reshape(-1)[at]
        flat = mags.reshape(-1)
        kept = flat[at] if restore else None
        flat[at] = 0.0
        self.off_max = np.maximum(self.off_max, np.max(flat))  # keeps a NaN
        self.off_ssq += float(np.dot(flat, flat))
        if restore:
            flat[at] = kept

    def result(self) -> tuple[float, float]:
        blocks = self.diag.reshape(self.dc, self.dk, self.dk)
        blocks -= blocks.sum(axis=0) / self.dc
        dev = np.abs(blocks)
        return (float(np.maximum(self.off_max, np.max(dev))),
                sqrt(self.off_ssq + float(np.vdot(dev, dev))))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the Hermitian difference of two states."""
    rho = as_matrix(rho)
    sigma = as_matrix(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shape mismatch {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    diff = (diff + dagger(diff)) / 2.0
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def phase_fix(m: np.ndarray, cutoff: float = 1e-12) -> np.ndarray:
    """Multiply by a global phase so the first entry (row-major scan) with
    modulus above ``cutoff`` becomes real positive.  Canonical representative
    of a phase orbit."""
    m = np.asarray(m, dtype=np.complex128)
    flat = m.ravel()
    idx = np.flatnonzero(np.abs(flat) > cutoff)
    if idx.size == 0:
        return m.copy()
    pivot = flat[idx[0]]
    return m * (abs(pivot) / pivot)
