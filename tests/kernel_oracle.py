"""Reference implementations of dense kernels that the library now computes
without scratch copies, in row blocks or in one pass, kept as oracles for
the property tests in ``test_linalg.py``, ``test_verify.py`` and
``test_decompose.py``, and the dense builders of those oracles: the matrix
units of M_n and an operator embedded on some factors.  The locality
oracle ``whole_unit_first_localized`` proves regions by the (s, η) norm
bound (``_unit_bound``), a route independent of the library's intertwiner
bound.
"""
from __future__ import annotations

import numpy as np

from qcablocks import linalg as la
from qcablocks.errors import DimensionMismatch


def matrix_units(n: int):
    """Yield ``(k, l, E_kl)`` over the standard matrix units of M_n."""
    for k in range(n):
        for l in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[k, l] = 1.0
            yield k, l, e


def embed_on_factors(op: np.ndarray, dims, region) -> np.ndarray:
    """Embed an operator acting on the listed factors (in increasing position
    order) into the full space, identity on the complement."""
    op = la.as_matrix(op)
    dims = tuple(int(d) for d in dims)
    region = la._normalize_region(dims, region)
    kept_dims = tuple(dims[i] for i in region)
    dk = int(np.prod(kept_dims)) if kept_dims else 1
    if op.shape != (dk, dk):
        raise DimensionMismatch(f"operator shape {op.shape} does not match region dims {kept_dims}")
    comp = [i for i in range(len(dims)) if i not in region]
    t = op.reshape(kept_dims + kept_dims)
    # Axis bookkeeping: after the outer products the axes are
    # (kept rows..., kept cols..., r_j, c_j for each complement factor j).
    for j in comp:
        t = np.tensordot(t, np.eye(dims[j]), axes=0)
    w = len(dims)
    k = len(region)
    row_axis = {}
    col_axis = {}
    for a, i in enumerate(region):
        row_axis[i] = a
        col_axis[i] = k + a
    for a, j in enumerate(comp):
        row_axis[j] = 2 * k + 2 * a
        col_axis[j] = 2 * k + 2 * a + 1
    order = [row_axis[i] for i in range(w)] + [col_axis[i] for i in range(w)]
    n = int(np.prod(dims))
    return t.transpose(order).reshape(n, n)


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


def two_pass_certify(qca, op, shift: int = 0):
    """The dense certificate in two passes over the column blocks of the
    reconstruction: the overlap of all columns fixes the phase, then the
    max-norm residual at that phase (decompose.certify before its phase
    came from the quiescent column alone)."""
    from qcablocks.decompose import Certification
    from qcablocks.model import _window_columns, window_rotation

    d, w, n = op.alphabet.d, op.width, op.dim
    g = op.dense()
    src = window_rotation(d, w, -shift)

    def pairs():
        for cols in la.row_blocks(n):
            yield _window_columns(qca, w, cols), g[src, cols]

    overlap = sum(complex(np.vdot(target, rec)) for rec, target in pairs())
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    resid = max(la.max_norm(rec - phase * target) for rec, target in pairs())
    return Certification(float(resid), shift, complex(phase))


def unitary_verdict(m: np.ndarray, tol: float) -> bool:
    """``max_norm(m† m - I) <= tol`` on the whole n x n product."""
    m = la.as_matrix(m)
    return la.max_norm(la.dagger(m) @ m - np.eye(m.shape[0])) <= tol


def whole_unit_first_localized(op, cell: int, forward: bool, regions, tol: float):
    """Index of the first region on which every conjugated unit at ``cell``
    is localized, by the generator check with each unit formed whole (the
    dense search before units were streamed in row blocks): T_0l = P_0† P_l
    from the parts of G split by the cell's digit, the transposed-copy
    kernel on each region, the (s, η) norm bound (_unit_bound), and
    every unit with 1 <= k <= l where the bound exceeds tol."""
    g = op.dense()
    d, w, n = op.alphabet.d, op.width, op.dim
    lead = d**cell
    if forward:  # P_k = S_k†, S_k the columns whose cell digit is k
        parts = [la.dagger(g.reshape(n, lead, d, -1)[:, :, k].reshape(n, -1)) for k in range(d)]
    else:  # P_k = R_k, the rows whose cell digit is k
        parts = [g.reshape(lead, d, -1, n)[:, k].reshape(-1, n) for k in range(d)]
    t00 = la.dagger(parts[0]) @ parts[0]  # tested on every region

    def defect(k, l, region):
        t = t00 if k == l == 0 else la.dagger(parts[k]) @ parts[l]
        return transposed_localization_defect(t, (d,) * w, region)

    eig = np.linalg.eigvalsh(parts[0] @ la.dagger(parts[0]))
    s = np.array([np.linalg.norm(p) for p in parts])
    s[0] = np.sqrt(max(eig[-1], 0.0))
    norms = s, float(np.max(np.abs(eig - 1.0)))
    for i, region in enumerate(regions):
        eps = []
        for l in range(d):
            resid, hs = defect(0, l, region)
            if resid > tol:
                break
            eps.append(hs)
        if len(eps) == d and (_unit_bound(norms, np.array(eps)) <= tol or all(
                defect(k, l, region)[0] <= tol for k in range(1, d) for l in range(k, d))):
            return i
    return None


def _unit_bound(norms, eps: np.ndarray) -> float:
    """The (s, η) bound on every unit's defect, maximized over all units,
    from the norms s_k = ||S_k||, η = ||S_0† S_0 - I|| and the generator HS
    defects ε: with T_kl = T_k0 T_0l + S_k (I - S_0† S_0) S_l†,
    ||T_kl - P(T_kl)|| <= s_0 (s_k ε_l + s_l ε_k) + 2 ε_k ε_l + 2 s_k s_l η,
    again without assuming unitarity.  Infinite without norms."""
    if norms is None:
        return np.inf
    s, eta = norms
    se = np.outer(s, eps)
    return float(np.max(s[0] * (se + se.T) + 2 * np.outer(eps, eps)
                        + 2 * eta * np.outer(s, s)))
