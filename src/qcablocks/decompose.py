"""Constructive two-layered block decomposition of a verified radius-1/2
window operator, in matrix-unit coordinates.

Conjugation by the unitary evolution is a *-isomorphism, so the images T_kl
of one cell's matrix units, compressed onto their two-cell patch, are again
matrix units: T_kl T_lm = T_km and Tr T_kl = d·δ_kl (HS-orthogonal, norm²
d).  Each image algebra is a tensor product of its parts on the two patch
cells (Schumacher-Werner), so partial traces of the units onto the shared
cell span that cell's factor, already an algebra.  The pipeline restricts
both unit stacks to the shared cell, splits it with the two-factor theorem
(the recombining unitary v), reads the cell-splitting unitary u off the
induced *-isomorphism onto the middle factors, fixes the quiescent gauge,
and certifies the reconstruction against the input window up to a global
shift and phase.

Conjugation and localization residuals come from the verifier's one
primitive: dense windows conjugate rank-one cell operators as C_x C_y†
(seeded probes for localization, matrix units on the quiescent rows for
the compressed images), backward is forward on the adjoint window, and
one-hot windows are conjugated by reindexing and never densified.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp

from . import linalg as la
from .algebra import (
    Factorization,
    GeneratedAlgebra,
    factor_pair,
    span_algebra,
)
from .errors import (
    IsoSolveFailed,
    NotCommuting,
    NotGenerating,
    NotLocal,
    NotSeparable,
    PreconditionViolated,
    ReconstructionMismatch,
    WindowTooSmall,
)
from .model import (
    Alphabet,
    BlockQCA,
    WindowOperator,
    window_matrix,
)
from .verify import (
    _cell_slices,
    _dense_conjugation,
    _one_hot_columns,
    _unit_conjugation,
    check_shift_invariance,
    check_unitary,
    fast_localization_residual,
)

DEFAULT_CERT_TOL = 1e-7


@dataclass(frozen=True)
class Certification:
    """How well the reconstructed window matches the input: max-norm
    residual after aligning a global cell shift and a global phase."""

    residual: float
    shift: int
    phase: complex


@dataclass(frozen=True)
class CellImages:
    """Compressed images T_kl of the cell-1 and cell-2 matrix units under
    conjugation by the evolution, on their two-cell patches (0,1) and (1,2).
    Each stack, indexed [k, l], is a system of matrix units of a copy of M_d:
    T_kl T_lm = T_km, Tr T_kl = d·δ_kl, and its flattened Gram matrix is d·I."""

    a_units: np.ndarray  # (d, d, d^2, d^2)
    b_units: np.ndarray


def _rotate_rows(op: WindowOperator, steps: int) -> WindowOperator:
    """Compose with the window cyclic shift: output cells are relabeled by
    ``steps`` (content moves left for steps > 0)."""
    if steps == 0:
        return op
    d, w = op.alphabet.d, op.width
    n = op.dim
    idx = np.arange(n, dtype=np.int64)
    rot = idx
    for _ in range(steps % w):
        rot = (rot % d ** (w - 1)) * d + rot // d ** (w - 1)
    # new matrix rows: h[rot(y), :] = g[y, :]
    if op.is_sparse:
        perm = sp.csc_matrix((np.ones(n), (rot, idx)), shape=(n, n), dtype=np.complex128)
        mat = perm @ op.matrix
    else:
        mat = np.empty_like(op.dense())
        mat[rot, :] = op.dense()
    return WindowOperator(op.alphabet, w, mat, op.boundary, op.out_shift)


def _random_cell_vector(rng, d: int) -> np.ndarray:
    """Seeded random unit vector of C^d, one side of a rank-one probe."""
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


def _unit_images(op: WindowOperator, cell: int, rest_cells: tuple[int, int],
                 tol: float, probes: int = 2) -> np.ndarray:
    """Conjugated matrix units G (E_kl ⊗ I) G† at ``cell``, compressed onto
    their two-cell patch.

    Localization on the patch is established through seeded random
    rank-one probes G (|x><y| ⊗ I) G† (dense path: a generic element of the
    image algebra is localized only if the whole algebra is) or per-unit
    sparse checks (one-hot path); the end-to-end reconstruction certificate
    independently covers anything a probe could miss.  Both come from the
    one conjugation routine of their storage format.  The compressed blocks
    are the dense routine applied to the rows of G whose complement cells
    are quiescent, never full conjugations.
    """
    d, w = op.alphabet.d, op.width
    n = op.dim
    patch = tuple(sorted(rest_cells))
    pw = (d ** np.arange(w - 1, -1, -1)).astype(np.int64)
    comp = [i for i in range(w) if i not in patch]
    out = np.zeros((d, d, d * d, d * d), dtype=np.complex128)

    idx = np.arange(n, dtype=np.int64)
    kept_of = ((idx // pw[patch[0]]) % d) * d + (idx // pw[patch[1]]) % d
    rest_of = np.zeros(n, dtype=np.int64)
    for pos in comp:
        rest_of = rest_of * d + (idx // pw[pos]) % d

    if _one_hot_columns(op) is not None:
        unit = _unit_conjugation(op, cell, forward=True)
        for k in range(d):
            for l in range(d):
                t = unit(k, l)
                resid = fast_localization_residual(t, d, w, patch)
                if resid > tol:
                    raise NotLocal(
                        f"image of cell-{cell} unit ({k},{l}) is not localized on "
                        f"cells {patch} (residual {resid:.2e})")
                rows, cols, vals = t
                sel = (rest_of[rows] == 0) & (rest_of[cols] == 0)
                np.add.at(out[k, l], (kept_of[rows[sel]], kept_of[cols[sel]]), vals[sel])
        return out

    mat = op.dense()
    slices = _cell_slices(mat, d, w, cell)
    rng = np.random.default_rng(0xC0FFEE + cell)
    for _ in range(probes):
        x, y = _random_cell_vector(rng, d), _random_cell_vector(rng, d)
        resid = fast_localization_residual(_dense_conjugation(slices, x, y), d, w, patch)
        if resid > tol:
            raise NotLocal(
                f"image of the cell-{cell} algebra is not localized on cells "
                f"{patch} (probe residual {resid:.2e})")
    sub = np.flatnonzero(rest_of == 0)[np.argsort(kept_of[rest_of == 0], kind="stable")]
    patch_slices = _cell_slices(mat[sub, :], d, w, cell)
    eye = np.eye(d)
    for k in range(d):
        for l in range(d):
            out[k, l] = _dense_conjugation(patch_slices, eye[k], eye[l])
    return out


def cell_algebra_images(op: WindowOperator, tol: float = 1e-8) -> CellImages:
    """Compressed images of the cell-1 and cell-2 matrix units under
    forward conjugation G (E_kl ⊗ I) G†, localized on cells (0,1) and (1,2)
    by _unit_images.  Conjugation by a unitary is a *-isomorphism, so each
    stack must be a system of matrix units; NotLocal unless Tr T_kl = d·δ_kl
    on every unit (so the map is nonzero, hence injective on the simple M_d)
    and four seeded identities T_kl T_lm = T_km hold."""
    if op.width < 4:
        raise WindowTooSmall("cell algebra images need a window of at least 4 cells")
    d = op.alphabet.d
    images = CellImages(_unit_images(op, 1, (0, 1), tol), _unit_images(op, 2, (1, 2), tol))
    for units, name in ((images.a_units, "cell 1"), (images.b_units, "cell 2")):
        dev = la.max_norm(np.einsum("klii->kl", units) - d * np.eye(d))
        if dev > d * max(tol, 1e-7):
            raise NotLocal(f"{name} unit traces miss d·δ_kl by {dev:.2e}; the "
                           "evolution does not conjugate the cell algebra faithfully")
        rng = np.random.default_rng(0)
        for _ in range(4):
            k, l, m = rng.integers(0, d, size=3)
            resid = la.max_norm(units[k, l] @ units[l, m] - units[k, m])
            if resid > max(tol, 1e-7):
                raise NotLocal(f"{name} units break T_kl T_lm = T_km (residual {resid:.2e})")
    return images


def shared_cell_algebras(images: CellImages) -> tuple[GeneratedAlgebra, GeneratedAlgebra]:
    """The two image algebras restricted to the shared cell 1: one batched
    partial trace per unit stack, then a d²-vector SVD in dimension d.  An
    image algebra is the tensor product of its parts on the patch cells, so
    these spans are already algebras."""
    d = images.a_units.shape[0]
    # trace out patch cell 0 of the cell-1 images, patch cell 1 of the cell-2 images
    a1 = np.einsum("klxixj->klij", images.a_units.reshape((d,) * 6))
    b1 = np.einsum("klixjx->klij", images.b_units.reshape((d,) * 6))
    return span_algebra(a1.reshape(-1, d, d), d), span_algebra(b1.reshape(-1, d, d), d)


def derive_v(a1: GeneratedAlgebra, b1: GeneratedAlgebra, seed: int = 0,
             tol: float = 1e-8) -> Factorization:
    """Separating unitary for the shared cell: the cell-1 restrictions of
    the two image algebras commute and jointly generate the cell algebra,
    so the two-factor theorem splits them as M_p ⊗ I_q / I_p ⊗ M_q.

    The returned unitary is the recombiner's adjoint: v = dagger(result.u).
    """
    try:
        return factor_pair(a1, b1, seed=seed, tol=tol)
    except (NotCommuting, NotGenerating) as err:
        raise type(err)(
            f"{err} -- the input evolution is not a valid radius-1/2 automaton")


def derive_u(images: CellImages, fact: Factorization, tol: float = 1e-8) -> np.ndarray:
    """Cell-splitting unitary from the induced *-isomorphism.

    Conjugating the cell-1 units by W = dagger(v) on both patch cells gives
    I_p ⊗ phi(E_kl) ⊗ I_q, and phi is a *-isomorphism of M_d onto the middle
    factors M_q ⊗ M_p: conjugation by a unitary u, read off the rank-one
    anchor phi(E_00) and the columns phi(E_k0) u|0>.  W acts one patch leg
    at a time (d^5 per unit, not d^6) on one unit row at a time, so the
    conjugated stack never exists whole.  Each unit's middle-factor
    residual and u's isomorphism residual are checked."""
    p, q = fact.p, fact.q
    d = p * q
    w, wh = fact.u, la.dagger(fact.u)
    phi = np.zeros((d, d, d, d), dtype=np.complex128)
    for k in range(d):
        # row k as (l, i0, i1, j0, j1): W on i0, then i1, then (W†) on j1, j0
        t = w @ images.a_units[k].reshape(d, d, d ** 3)
        t = w @ t.reshape(d * d, d, d * d)
        t = t.reshape(d ** 3, d, d) @ wh
        t = (w.conj() @ t).reshape(d, d * d, d * d)
        for l in range(d):
            resid = la.localization_residual(t[l], (p, q, p, q), {1, 2})
            if resid > max(tol, 1e-7):
                raise IsoSolveFailed(
                    f"conjugated image ({k},{l}) misses the middle factors "
                    f"(residual {resid:.2e})")
        tt = t.reshape(d, p, q, p, q, p, q, p, q)
        phi[k] = tt[:, 0, :, :, 0, 0, :, :, 0].reshape(d, d, d)
    # anchor: phi(E_00) is the rank-one projector onto u|quiescent>
    vals, vecs = np.linalg.eigh(phi[0, 0])
    if abs(vals[-1] - 1.0) > 1e-6:
        raise IsoSolveFailed(
            f"anchor image is not a rank-one projector (top eigenvalue {vals[-1]:.6f})")
    # columns phi(E_k0) u|0>; the polar factor removes their scale and drift
    u = (phi[:, 0] @ vecs[:, -1]).T
    uu, _, vvh = np.linalg.svd(u)
    u = uu @ vvh
    # u E_kl u† = |u_k><u_l|
    worst = la.max_norm(phi - np.einsum("ik,jl->klij", u, u.conj()))
    if worst > max(tol, 1e-7):
        raise IsoSolveFailed(f"isomorphism residual {worst:.2e} exceeds tolerance")
    return u


def fix_quiescent_gauge(u: np.ndarray, v: np.ndarray, alphabet: Alphabet,
                        p: int, q: int, tol: float = 1e-8) -> BlockQCA:
    """Extract the quiescent gauge pair and normalize phases.

    The recombiner's preimage of the quiescent cell must be a product
    vector q1 ⊗ q2 (Schmidt rank one); the splitting unitary's free global
    phase is then fixed so u|q> = |q2>|q1>."""
    d = alphabet.d
    ket_q = np.zeros(d, dtype=np.complex128)
    ket_q[0] = 1.0
    psi = la.dagger(v) @ ket_q
    mat = psi.reshape(p, q)
    uu, s, vh = np.linalg.svd(mat)
    if len(s) > 1 and s[1] > max(tol, 1e-7):
        raise NotSeparable(
            f"recombiner preimage of the quiescent cell has Schmidt spectrum "
            f"{np.round(s, 6)}; expected rank one")
    q1 = uu[:, 0]
    q2 = vh[0, :] * s[0]
    q2 = q2 / np.linalg.norm(q2)
    # canonical phase on q1, compensated on q2 to keep q1 ⊗ q2 = psi
    fixed = la.phase_fix(q1.reshape(-1, 1)).ravel()
    rot = complex(np.vdot(q1, fixed))
    q1 = fixed
    q2 = q2 * np.conj(rot)
    overlap = complex(np.vdot(np.kron(q2, q1), u @ ket_q))
    if abs(abs(overlap) - 1.0) > 1e-6:
        raise IsoSolveFailed(
            f"splitting unitary maps the quiescent cell off the gauge pair "
            f"(overlap modulus {abs(overlap):.6f})")
    u = u * (abs(overlap) / overlap)
    return BlockQCA(alphabet, p, q, u, v, q1, q2)


def certify(qca: BlockQCA, op: WindowOperator,
            offsets: tuple[int, ...] = (-1, 0, 1)) -> Certification:
    """Max-norm residual between the reconstructed window and the input,
    minimized over a global cell shift and a global phase.

    Dense windows are compared entry by entry (exact).  One-hot windows
    beyond the dense cap are certified through per-column overlaps: the
    matrix element of the reconstruction at each target entry is a trace
    of a ring of q x q transfer matrices, evaluated in extended precision,
    and column unitarity turns the overlap defect into a rigorous upper
    bound on the true max-norm residual (see _transfer_certify)."""
    n = op.dim
    hot = _one_hot_columns(op)
    if hot is None or n <= 4096:
        w = op.width
        rec = window_matrix(qca, w, max_dim=max(n, 4096)).dense()
        g = op.dense()
        best = None
        for k in offsets:
            shifted = _rotate_rows(WindowOperator(op.alphabet, w, g, op.boundary), k).dense()
            overlap = complex(np.vdot(shifted, rec))
            phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
            resid = la.max_norm(rec - phase * shifted)
            if best is None or resid < best.residual:
                best = Certification(float(resid), k, complex(phase))
        return best
    return _transfer_certify(qca, op, hot, offsets)


def _transfer_certify(qca: BlockQCA, op: WindowOperator, hot,
                      offsets: tuple[int, ...]) -> Certification:
    """Certify a one-hot window without expanding reconstruction columns.

    For each basis column x with target entry phi_x at row r(x), the
    reconstruction's element <r(x)| (⊗v) P (⊗u) |x> is the trace of a ring
    of per-cell q x q transfer matrices M_i[a, a'] = sum_b u[(a,b), x_i]
    v[r_i, (b, a')], and the column's squared norm is the trace of the ring
    of doubled transfers D_i = sum_r M_i(r) ⊗ conj(M_i(r)).  Every entry of
    the column then differs from the target column by at most

        sqrt(|col|^2 - |t_x|^2) + |t_x - phase phi_x|,

    the first term bounding all off-target entries, the second the target
    itself.  Both traces are evaluated in extended precision, putting the
    bound's floor orders of magnitude below the certification tolerance.
    The reported residual is this rigorous upper bound on the max-norm
    residual, slightly conservative compared to the dense path."""
    d, w, n = op.alphabet.d, op.width, op.dim
    p, q = qca.p, qca.q
    rows, phases = hot
    u3 = np.ascontiguousarray(qca.u.reshape(q, p, d).astype(np.clongdouble))
    v3 = np.ascontiguousarray(qca.v.reshape(d, p, q).astype(np.clongdouble))
    # transfer lookup: M[x, r, a, a'] = sum_b u[(a,b), x] v[r, (b, a')]
    lookup = np.einsum("abx,rbc->xrac", u3, v3)
    # doubled transfer for column norms: D[x] = sum_r M(x,r) (x) conj(M(x,r))
    doubled = np.einsum("xrac,xrbd->xabcd", lookup, lookup.conj()).reshape(d, q * q, q * q)
    idx = np.arange(n, dtype=np.int64)
    pws = (d ** np.arange(w - 1, -1, -1)).astype(np.int64)
    col_digits = (idx[:, None] // pws[None, :]) % d
    nrm = doubled[col_digits[:, 0]]
    for i in range(1, w):
        nrm = np.matmul(nrm, doubled[col_digits[:, i]])
    col_norm2 = np.trace(nrm, axis1=1, axis2=2).real
    del nrm
    best = None
    for k in offsets:
        rot = rows.copy()
        for _ in range(k % w):
            rot = (rot % d ** (w - 1)) * d + rot // d ** (w - 1)
        row_digits = (rot[:, None] // pws[None, :]) % d
        t = lookup[col_digits[:, 0], row_digits[:, 0]]
        for i in range(1, w):
            t = np.matmul(t, lookup[col_digits[:, i], row_digits[:, i]])
        t_x = np.trace(t, axis1=1, axis2=2)
        z = complex(np.sum(np.conj(phases.astype(np.clongdouble)) * t_x))
        phase = z / abs(z) if abs(z) > 1e-12 else 1.0
        off_mass = np.sqrt(np.maximum(0.0, col_norm2 - np.abs(t_x) ** 2))
        target_dev = np.abs(t_x - np.clongdouble(phase) * phases.astype(np.clongdouble))
        resid = float(np.max(off_mass + target_dev))
        if best is None or resid < best.residual:
            best = Certification(resid, k, complex(phase))
    return best


def decompose_certified(op: WindowOperator, seed: int = 0, tol: float = 1e-8,
                        cert_tol: float = DEFAULT_CERT_TOL) -> tuple[BlockQCA, Certification]:
    """Full pipeline with the certification attached."""
    if op.width < 4:
        raise WindowTooSmall("decomposition needs a window of at least 4 cells")
    if not check_unitary(op, max(tol, 1e-9)):
        raise PreconditionViolated("window operator is not unitary")
    # align first: shift invariance is tested in the {0, 1} alignment, where
    # interior images stay clear of the window edge
    norm_op, comp_shift = _normalize_alignment(op, tol)
    if not check_shift_invariance(norm_op, max(tol, 1e-9)):
        raise PreconditionViolated("window operator is not shift invariant")
    images = cell_algebra_images(norm_op, tol)
    a1, b1 = shared_cell_algebras(images)
    fact = derive_v(a1, b1, seed=seed, tol=tol)
    u = derive_u(images, fact, tol=tol)
    v = la.dagger(fact.u)
    qca = fix_quiescent_gauge(u, v, op.alphabet, fact.p, fact.q, tol=tol)
    cert = certify(qca, op)
    if cert.residual > cert_tol:
        raise ReconstructionMismatch(
            f"certification residual {cert.residual:.2e} exceeds {cert_tol:.1e} "
            f"(best shift {cert.shift})")
    return qca, cert


def decompose(op: WindowOperator, seed: int = 0, tol: float = 1e-8,
              cert_tol: float = DEFAULT_CERT_TOL) -> BlockQCA:
    """Two-layered block form of a verified radius-1/2 window operator."""
    qca, _ = decompose_certified(op, seed=seed, tol=tol, cert_tol=cert_tol)
    return qca


def _normalize_alignment(op: WindowOperator, tol: float) -> tuple[WindowOperator, int]:
    """Bring the operator's neighborhood to window offsets {0, 1} by
    composing with a window cyclic shift when it sits at {-1, 0} or {1, 2}
    (hand-written windows may come in any of the three alignments)."""
    d, w = op.alphabet.d, op.width
    cc = (w - 1) // 2

    hot = _one_hot_columns(op)
    if hot is not None:
        unit = _unit_conjugation(op, cc, forward=False)
    else:
        slices = _cell_slices(la.dagger(op.dense()), d, w, cc)

    def localized_on(offsets) -> bool:
        region = tuple(cc + o for o in offsets)
        if min(region) < 0 or max(region) > w - 1:
            return False
        if hot is not None:
            # the unit (l, k) is the adjoint of (k, l), with the same residual
            return all(fast_localization_residual(unit(k, l), d, w, region) <= tol
                       for k, l in combinations_with_replacement(range(d), 2))
        rng = np.random.default_rng(0xA11CE)
        for _ in range(3):
            x, y = _random_cell_vector(rng, d), _random_cell_vector(rng, d)
            if fast_localization_residual(_dense_conjugation(slices, x, y),
                                          d, w, region) > tol:
                return False
        return True

    # composing with the cyclic shift sigma^s relabels outputs so that
    # N -> N + s; pick s moving the found alignment onto {0, 1}.
    for steps, offsets in ((0, (0, 1)), (1, (-1, 0)), (-1, (1, 2))):
        if localized_on(offsets):
            return (_rotate_rows(op, steps) if steps else op), steps
    raise NotLocal(
        "the evolution is not local with a radius-1/2 neighborhood at any "
        "window alignment")
