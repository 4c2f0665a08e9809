"""Reference implementations of dense kernels that the library now computes
without scratch copies, kept as oracles for the property tests in
``test_linalg.py``.
"""
from __future__ import annotations

import numpy as np

from qcablocks import linalg as la


def transposed_localization_defect(a: np.ndarray, dims, region) -> tuple[float, float]:
    """Max-norm and HS norm of a - P(a), P the diagonal-block mean over the
    complement of ``region``, on a transposed (region, complement) copy of
    ``a``: the kernel before the diagonal blocks became an einsum view."""
    a = la.as_matrix(a)
    dims = tuple(int(d) for d in dims)
    region = sorted(set(int(i) for i in region))
    w = len(dims)
    comp = [i for i in range(w) if i not in region]
    dk = int(np.prod([dims[i] for i in region]))
    dc = int(np.prod([dims[i] for i in comp]))
    order = region + comp
    x = a.reshape(dims + dims).transpose([*order, *[w + i for i in order]])
    x = x.reshape(dk, dc, dk, dc)
    ii = np.arange(dc)
    diag = x[:, ii, :, ii]  # (dc, dk, dk): the diagonal blocks
    dev = np.abs(x)
    dev[:, ii, :, ii] = np.abs(diag - diag.sum(axis=0) / dc)
    return float(np.max(dev)), float(np.linalg.norm(dev))


def unitary_verdict(m: np.ndarray, tol: float) -> bool:
    """``max_norm(m† m - I) <= tol`` on the whole n x n product."""
    m = la.as_matrix(m)
    return la.max_norm(la.dagger(m) @ m - np.eye(m.shape[0])) <= tol
