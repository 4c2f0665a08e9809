"""Constructive two-layered block decomposition of a verified radius-1/2
window operator, in matrix-unit coordinates.

Conjugation by the unitary evolution is a *-isomorphism, so the images T_kl
of one cell's matrix units, compressed onto their two-cell patch, are again
matrix units: T_kl T_lm = T_km and Tr T_kl = d·δ_kl (HS-orthogonal, norm²
d).  The image algebra is a tensor product of its parts on the two patch
cells (Schumacher-Werner), and shift invariance makes every cell's image a
translate of the cell-1 image, so partial traces of the cell-1 images onto
either patch cell give the two algebras that meet on a shared cell.  The
pipeline splits that cell with the two-factor theorem (the recombining
unitary v), reads the cell-splitting unitary u off the induced
*-isomorphism onto the middle factors, fixes the quiescent gauge, and
certifies the reconstruction against the whole input window up to a
global phase, at the one cell shift the alignment chose.

No step needs all d² dense images at once, so they are streamed one row
T_k0 ... T_k(d-1) at a time in two passes: the first takes the partial
traces and the matrix-unit checks, the second (after the split) rebuilds
each row for u.

The window's alignment is chosen by exact gates alone: of the window
rotations by 0, +1 and -1 cells, the first that is shift invariant and
whose compressed images pass the trace and matrix-unit checks is
decomposed; no random probe is drawn, and the certificate compares at
that rotation alone.  Dense windows conjugate the matrix units on their
quiescent-complement rows with the verifier's dense unit primitive;
one-hot windows are conjugated by reindexing and never densified, with
the verifier's exact generator check for localization on the patch.  A
one-hot row is not a dense array but its entries (l, patch_row,
patch_col), each of value 1, read off the preimages of the patch rows
alone (about d per unit): both passes work on the entries, the partial
traces by scatter-adds.  u's pass keeps every row's entries (about d³)
and conjugates only the 2d - 1 generators E_k0 and E_0l, each as the
product of d columns of W ⊗ W; every other unit is shown to be the
product of its two generators on the entries, and its middle-factor
defect is bounded from theirs.
Whatever a gate cannot see, the end-to-end certificate against the whole
window refuses.

Unitarity of a dense window comes from the certificate, not from G†G:
the certificate pass keeps the largest column norms of the reconstruction
R and of its difference E from the phased, rotated window, and
max |G†G - I| <= 2·a·e + e² + ((1 + δ_u)(1 + δ_v))^w - 1, with rounding
terms (_unitarity_bound).  Within tolerance that proves unitarity, in
O(n²) on top of the pass; otherwise, and before any refusal of the
pipeline is re-raised, check_unitary forms the Gram's upper block
triangle and decides.  A one-hot window is checked for injectivity
first, which costs less than its pipeline.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

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
    QCAError,
    ReconstructionMismatch,
    WindowTooSmall,
)
from .model import (
    Alphabet,
    BlockQCA,
    WindowOperator,
    _window_columns,
    window_digits,
    window_rotation,
)
from .verify import (
    _dense_units,
    _first_localized,
    _unit_conjugation,
    check_shift_invariance,
    check_unitary,
)

DEFAULT_CERT_TOL = 1e-7
# window cyclic shifts tried in turn to bring the neighborhood to {0, 1}
ALIGNMENTS = (0, 1, -1)


@dataclass(frozen=True)
class Certification:
    """How well the reconstructed window matches the input rotated by
    ``shift`` cells (_rotate_rows): max-norm residual after aligning a
    global phase.  ``unitarity_bound``, on a dense window, is an upper
    bound on max |G†G - I| read off the same pass (_unitarity_bound);
    None where the pass gives none."""

    residual: float
    shift: int
    phase: complex
    unitarity_bound: float | None = None


def _rotate_rows(op: WindowOperator, steps: int) -> WindowOperator:
    """Compose with the window cyclic shift: output cells are relabeled by
    ``steps`` (content moves left for steps > 0)."""
    if steps == 0:
        return op
    # new matrix rows: h[rot(y), :] = g[y, :]
    d, w = op.alphabet.d, op.width
    if op.is_one_hot:
        mat = window_rotation(d, w, steps, op.matrix)
    else:
        mat = op.matrix[window_rotation(d, w, -steps)]
    return WindowOperator(op.alphabet, op.width, mat, op.boundary, op.out_shift)


def _one_hot_unit_rows(rows: np.ndarray, d: int,
                       w: int) -> Callable[[int], tuple[np.ndarray, ...]]:
    """Row builder k -> entries (l, patch_row, patch_col) of the compressed
    cell-1 unit images T_k0, ..., T_k(d-1) of the one-hot window
    G|x> = |rows[x]>, in coordinate form: T_kl is the sum of
    |patch_row><patch_col| over the entries with that l.

    An entry of T_kl on the patch comes from an input x with cell-1 digit l
    whose image has a quiescent complement, and its partner x_k = x + (k-l)
    digit places, if that image's complement is quiescent too: a 1 at
    (patch of rows[x_k], patch of rows[x]).  Only those inputs are touched
    (d² for a bijective map, so about d entries per unit), never the whole
    window; a merging map repeats a position, and every consumer sums
    repeated entries.  Only the preimages and their digits are kept: each
    call splits the images it reads."""
    # cell 1's digit place is also the size of the output complement (cells
    # 2 ... w-1), so a row splits into patch (//) and complement (%) by it
    pw = d ** (w - 2)
    xs = np.flatnonzero(rows % pw == 0)
    digit = (xs // pw) % d

    def row(k: int) -> tuple[np.ndarray, ...]:
        img = rows[xs + (k - digit) * pw]
        sel = img % pw == 0
        return digit[sel], img[sel] // pw, rows[xs[sel]] // pw

    return row


def _entry_unit(entries: tuple[np.ndarray, ...], l: int, d: int) -> np.ndarray:
    """Dense d² x d² unit T_kl from the entries of its row."""
    ls, i, j = entries
    sel = ls == l
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    np.add.at(out, (i[sel], j[sel]), 1.0)
    return out


def _unit_images(op: WindowOperator, tol: float,
                 shift: int) -> Callable[[int], np.ndarray | tuple]:
    """Row builder k -> row T_k0 ... T_k(d-1) of the conjugated cell-1
    matrix units G (E_kl ⊗ I) G†, compressed onto their two-cell patch
    (0, 1), of the window rotated by ``shift`` cells (_rotate_rows); each
    call rebuilds the row, so the whole stack never exists.  A dense window
    gives a dense (d, d², d²) row, a one-hot window the row's entries
    (_one_hot_unit_rows), the same split as the window's own storage.

    A one-hot window must first pass the verifier's exact generator check
    on the patch (d residuals, the norm bound and, only where it fails,
    every unit), else NotLocal.  A dense window is not checked here: the
    trace and matrix-unit checks of cell_algebra_images, the middle-factor
    and isomorphism residuals of derive_u and the end-to-end certificate
    refuse what is not localized.  Dense rows are the verifier's dense
    units on the d² rows of the rotated G whose complement cells are
    quiescent, gathered from G, so no rotated copy of a dense window
    exists; one-hot entries are read off the preimages of those rows.
    """
    d, w = op.alphabet.d, op.width
    patch = (0, 1)

    if op.is_one_hot:
        op = _rotate_rows(op, shift)
        if _first_localized(_unit_conjugation(op, 1, forward=True), d, w, [patch], tol) is None:
            raise NotLocal(f"image of the cell-1 algebra is not localized on "
                           f"cells {patch}")
        return _one_hot_unit_rows(op.matrix, d, w)

    # rows with a quiescent complement (cells 2 ... w-1 all 0), in patch
    # order: the rotated window's row r is the window's row src[r]
    src = window_rotation(d, w, -shift)
    unit = _dense_units(op.dense()[src[::d ** (w - 2)]], d, d, forward=True)[0]

    def row(k: int) -> np.ndarray:
        return np.stack([unit(k, l)() for l in range(d)])

    return row


@dataclass(frozen=True)
class CellImages:
    """The compressed images T_kl of the cell-1 matrix units, streamed.

    ``row(k)`` rebuilds row k, T_k0 ... T_k(d-1): a dense (d, d², d²)
    array, or for a one-hot window the tuple of entries (l, patch_row,
    patch_col), each of value 1.  ``a1`` and ``b1`` are the (d, d, d, d)
    partial traces of every T_kl over patch leg 0 and over patch leg 1,
    taken while the rows went by."""

    row: Callable[[int], np.ndarray | tuple]
    a1: np.ndarray
    b1: np.ndarray


def cell_algebra_images(op: WindowOperator, tol: float = 1e-8,
                        shift: int = 0) -> CellImages:
    """First pass over the rows of compressed images T_kl of the cell-1
    matrix units under forward conjugation G (E_kl ⊗ I) G†, compressed onto
    patch (0, 1) by _unit_images, with G the window composed with the cyclic
    shift of its outputs by ``shift`` cells (_rotate_rows), read without
    forming it.  One row is held at a time; the pass keeps
    the two partial traces and the units the checks below need.  Dense rows
    are traced by einsum; entry rows add each entry whose two leg-0 (or
    leg-1) indices agree, and only the sampled units are densified.

    Conjugation by a unitary is a *-isomorphism, so the images must be a
    system of matrix units; NotLocal unless Tr T_kl = d·δ_kl on every unit
    (so the map is nonzero, hence injective on the simple M_d) and four
    seeded identities T_kl T_lm = T_km hold."""
    if op.width < 4:
        raise WindowTooSmall("cell algebra images need a window of at least 4 cells")
    d = op.alphabet.d
    row = _unit_images(op, tol, shift)
    rng = np.random.default_rng(0)
    triples = [tuple(rng.integers(0, d, size=3)) for _ in range(4)]
    sampled = {key: None for k, l, m in triples for key in ((k, l), (l, m), (k, m))}
    a1 = np.zeros((d, d, d, d), dtype=np.complex128)
    b1 = np.zeros((d, d, d, d), dtype=np.complex128)
    for k in range(d):
        r = row(k)
        if isinstance(r, tuple):
            ls, i, j = r
            (i0, i1), (j0, j1) = np.divmod(i, d), np.divmod(j, d)
            on0, on1 = i0 == j0, i1 == j1
            np.add.at(a1[k], (ls[on0], i1[on0], j1[on0]), 1.0)
            np.add.at(b1[k], (ls[on1], i0[on1], j0[on1]), 1.0)
            sampled.update({key: _entry_unit(r, key[1], d) for key in sampled if key[0] == k})
        else:
            a1[k] = np.einsum("lxixj->lij", r.reshape((d,) * 5))
            b1[k] = np.einsum("lixjx->lij", r.reshape((d,) * 5))
            sampled.update({key: r[key[1]].copy() for key in sampled if key[0] == k})
        del r  # before the next row is built
    # Tr T_kl is the trace of either partial trace
    dev = la.max_norm(np.einsum("klii->kl", a1) - d * np.eye(d))
    if dev > d * max(tol, 1e-7):
        raise NotLocal(f"cell-1 unit traces miss d·δ_kl by {dev:.2e}; the "
                       "evolution does not conjugate the cell algebra faithfully")
    for k, l, m in triples:
        resid = la.max_norm(sampled[k, l] @ sampled[l, m] - sampled[k, m])
        if resid > max(tol, 1e-7):
            raise NotLocal(f"cell-1 units break T_kl T_lm = T_km (residual {resid:.2e})")
    return CellImages(row, a1, b1)


def shared_cell_algebras(images: CellImages) -> tuple[GeneratedAlgebra, GeneratedAlgebra]:
    """The two commuting algebras on the shared cell 1, read off the cell-1
    unit images: tracing out patch leg 0 leaves the cell-1 image's part on
    cell 1; tracing out leg 1 leaves its part on cell 0, which by shift
    invariance is the cell-2 image's part on cell 1.  An image algebra is
    the tensor product of its parts, so each span (one d²-vector SVD in
    dimension d) is already an algebra."""
    d = images.a1.shape[0]
    return (span_algebra(images.a1.reshape(-1, d, d), d),
            span_algebra(images.b1.reshape(-1, d, d), d))


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
    """Cell-splitting unitary from the induced *-isomorphism: the second
    pass over the unit rows, each rebuilt by ``images.row``.

    Conjugating the cell-1 units by W = dagger(v) on both patch cells gives
    I_p ⊗ phi(E_kl) ⊗ I_q, and phi is a *-isomorphism of M_d onto the middle
    factors M_q ⊗ M_p: conjugation by a unitary u, read off the rank-one
    anchor phi(E_00) and the columns phi(E_k0) u|0>.  W ⊗ W is formed once
    with its rows in (middle q p, outer p q) order of the (p, q, p, q)
    patch, so each conjugated unit is already split into region and
    complement, and phi(E_kl) is its outer-(0, 0) block.

    A dense row takes two matmuls per unit, one row held at a time, and
    every unit's middle-factor residual is checked.  One-hot rows, about d
    entries per unit, are all kept: a *-isomorphism is fixed by the 2d - 1
    generators E_k0 and E_0l, so _one_hot_phi forms and checks only those,
    and every other unit only where the product identity T_kl = T_k0 T_0l
    or the generators' bound (_product_bound) does not decide it.  u's
    isomorphism residual is checked over all d² units."""
    p, q = fact.p, fact.q
    d = p * q
    limit = max(tol, 1e-7)
    ww = la.kron(fact.u, fact.u).reshape(p, q, p, q, d * d)
    ww = ww.transpose(1, 2, 0, 3, 4).reshape(d * d, d * d)
    ww_h = la.dagger(ww)
    rows = [images.row(0)]
    if isinstance(rows[0], tuple):
        phi = _one_hot_phi(rows + [images.row(k) for k in range(1, d)],
                           fact.u, ww, ww_h, limit)
    else:
        phi = np.empty((d, d, d, d), dtype=np.complex128)
        for k in range(d):
            r = rows.pop() if k == 0 else images.row(k)
            for l in range(d):
                phi[k, l], resid, _ = _middle_factor(ww @ r[l] @ ww_h, d)
                _check_middle(resid, k, l, limit)
            del r  # before the next row is built
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
    if worst > limit:
        raise IsoSolveFailed(f"isomorphism residual {worst:.2e} exceeds tolerance")
    return u


def _middle_factor(x: np.ndarray, d: int) -> tuple[np.ndarray, float, float]:
    """phi's block of a conjugated unit x = (W ⊗ W) T_kl (W ⊗ W)†, rows in
    (middle, outer) order: its outer-(0, 0) block, and the max-norm and HS
    defects of x off the middle factors."""
    resid, hs = la.localization_defect(x, (d, d), {0})
    return x[::d, ::d].copy(), resid, hs


def _check_middle(resid: float, k: int, l: int, limit: float) -> None:
    if resid > limit:
        raise IsoSolveFailed(
            f"conjugated image ({k},{l}) misses the middle factors "
            f"(residual {resid:.2e})")


def _product_bound(e: float, gram: float, d: int) -> float:
    """Bound on the computed middle-factor max-norm defect of a one-hot unit
    X_kl = V T_kl V†, V = W ⊗ W as held, whose T_kl = T_k0 T_0l exactly with
    both factors partial permutations; e is the largest computed HS defect
    of a generator, gram the computed ||W†W - I||_HS.

    X_kl = X_k0 X_0l - V T_k0 (V†V - I) T_0l V†.  P, the block mean onto
    the middle factors, is a contraction and a bimodule map over its range,
    so with X = P(X) + D, P(P(X_k0) D_0l) = 0 and ||X_kl - P(X_kl)||_op <=
    2 (1 + η)(ê + η) + 2 ê², for η >= ||V†V - I||_op (so ||X_k0||_op <=
    1 + η) and ê >= every generator's ||D||_op.  Rounding, in units
    ρ = 2 d (d + 2) ε of one computed Gram, Kronecker or unit entry:
    η = 2f + f² + ρ with f = gram + ρ; a computed defect is off by at most
    3ρ per entry, so ê = (1 + d⁴ ε) e + 3 d² ρ (the factor covers a sum of
    d⁴ squares), and 3ρ more separates the exact defect from the computed
    one the exhaustive check reads."""
    eps = np.finfo(float).eps
    rho = 2 * d * (d + 2) * eps
    f = gram + rho
    eta = 2 * f + f * f + rho
    e_hat = (1 + d ** 4 * eps) * e + 3 * d * d * rho
    return 2 * (1 + eta) * (e_hat + eta) + 2 * e_hat * e_hat + 3 * rho


def _one_hot_phi(rows: list[tuple[np.ndarray, ...]], w: np.ndarray, ww: np.ndarray,
                 ww_h: np.ndarray, limit: float) -> np.ndarray:
    """phi(E_kl) of every one-hot unit, each unit's middle-factor defect
    within limit (else IsoSolveFailed naming the first failing unit in (k,
    l) order), from the entry rows of derive_u.

    The 2d - 1 generators X_k0 and X_0l are formed whole, (d², m)(m, d²)
    products of the columns of W ⊗ W and the rows of its adjoint that
    their m entries name, and their defects checked.  Every other unit
    whose T_kl equals T_k0 T_0l exactly (the column -> row maps of the two
    generators composed, compared as sorted keys i·d² + j) is bounded by
    _product_bound and only its phi block, a (d, m)(m, d) product of the
    outer-0 rows, is formed; a unit that fails the identity is formed and
    checked.  Where a generator is no partial permutation or the bound
    exceeds limit, every unit is formed and checked, so each verdict is the
    exhaustive one."""
    d = len(rows)
    n = d * d
    units = {(k, l): (i[ls == l], j[ls == l])
             for k, (ls, i, j) in enumerate(rows) for l in range(d)}
    gens = [(0, l) for l in range(d)] + [(k, 0) for k in range(1, d)]
    formed = {}
    for k, l in gens:
        i, j = units[k, l]
        formed[k, l] = _middle_factor(ww[:, i] @ ww_h[j], d)
    perm = all(np.bincount(a, minlength=n).max() <= 1
               for key in gens for a in units[key])
    e = max(hs for _, _, hs in formed.values())
    gram = la.hs_norm(la.dagger(w) @ w - np.eye(d))
    exact = not perm or _product_bound(e, gram, d) > limit
    w0, w0_h = ww[::d], ww_h[:, ::d]
    phi = np.empty((d, d, d, d), dtype=np.complex128)
    for k in range(d):
        if k and not exact:
            # T_k0 as a map column -> row (-1 where its column is empty)
            i0, j0 = units[k, 0]
            to_row = np.full(n, -1)
            to_row[j0] = i0
        for l in range(d):
            i, j = units[k, l]
            if (k, l) in formed:
                phi[k, l], resid, _ = formed[k, l]
            else:
                if not exact:
                    # T_k0 T_0l: each entry (ib, jb) of T_0l moved to row to_row[ib]
                    ib, jb = units[0, l]
                    img = to_row[ib]
                    hit = img >= 0
                    if np.array_equal(np.sort(img[hit] * n + jb[hit]), np.sort(i * n + j)):
                        phi[k, l] = w0[:, i] @ w0_h[j]
                        continue
                phi[k, l], resid, _ = _middle_factor(ww[:, i] @ ww_h[j], d)
            _check_middle(resid, k, l, limit)
    return phi


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


def certify(qca: BlockQCA, op: WindowOperator, shift: int = 0) -> Certification:
    """Max-norm residual between the reconstructed window and the input
    rotated by ``shift`` cells, minimized over a global phase.

    Dense windows are compared entry by entry (exact) without the
    reconstruction ever existing whole, in one pass: each column block of
    it is rebuilt from its basis inputs (model._window_columns) and compared
    with the same columns of the input, their rows gathered at that
    rotation.  The gauge maps the quiescent column to itself, so its one
    entry fixes the phase, conj(G[src[0], 0]) R[0, 0] normalized, before
    the first block is scored; a residual at any fixed phase bounds the
    phase-minimized one from above, so the certificate never understates
    it.  The same pass keeps the largest column 2-norms of each rebuilt
    block and of its difference from the target, two O(n·b) reductions
    per block, from which _unitarity_bound bounds max |G†G - I| of the
    input.  One-hot windows are never densified: _transfer_certify bounds
    their residual through per-column overlaps, traces of rings of q x q
    transfer matrices in extended precision, and give no unitarity
    bound."""
    if op.is_one_hot:
        return _transfer_certify(qca, op, shift)
    d, w, n = op.alphabet.d, op.width, op.dim
    g = op.dense()
    # the rotated input's row r is the input's row src[r]
    src = window_rotation(d, w, -shift)
    quiescent = _window_columns(qca, w, slice(0, 1))[0, 0]
    overlap = complex(np.conj(g[src[0], 0]) * quiescent)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    resid = rec_norm = err_norm = 0.0
    for cols in la.row_blocks(n):
        rec, target = _window_columns(qca, w, cols), g[src, cols]
        rec_norm = max(rec_norm, _max_column_norm(rec))
        target *= phase
        rec -= target
        resid = max(resid, la.max_norm(rec))
        err_norm = max(err_norm, _max_column_norm(rec))
    bound = _unitarity_bound(qca, w, complex(phase), rec_norm, err_norm)
    return Certification(float(resid), shift, complex(phase), bound)


def _max_column_norm(a: np.ndarray) -> float:
    """Largest column 2-norm of a C-contiguous complex (n, b) block, read
    through its float view, whose columns alternate real and imaginary
    parts, without a temporary of the block's size."""
    sq = np.einsum("ij,ij->j", a.view(np.float64), a.view(np.float64))
    return float(np.sqrt(np.max(sq[0::2] + sq[1::2])))


def _unitarity_bound(qca: BlockQCA, w: int, phase: complex, rec_norm: float,
                     err_norm: float) -> float:
    """Upper bound on max |G†G - I| of the dense window G that certify
    compared with the reconstruction of qca, from the largest computed
    column norms of the rebuilt blocks (rec_norm) and of their differences
    from the phased target (err_norm).

    Let G' be G with its rows rotated, c the phase, R the exact w-cell
    window of the stored u and v, and E = cG' - R, with a and e their
    largest column 2-norms.  A row permutation leaves G†G alone, so
    |c|² G†G = (R + E)†(R + E), and entrywise |<R_i, E_j>| <= a·e and
    |<E_i, E_j>| <= e².  R = (v^⊗w) Π (u^⊗w) with Π a permutation of
    tensor legs; with δ_u = ||u†u - I||_op, (u†u)^⊗w - I and ||u^⊗w||²_op
    are within (1 + δ_u)^w - 1 and (1 + δ_u)^w, likewise for v, so

        max |G†G - I| <= (Δ + 2·a·e + e²) / |c|² + |1/|c|² - 1|,
        Δ = ((1 + δ_u)(1 + δ_v))^w - 1 >= ||R†R - I||_op.

    Rounding, with μ = 2ε for one complex add, multiply or multiply-add and
    γ(k) = kμ / (1 - kμ):
    - each entry of the computed R̂ is a sum of products through at most
      m = (w - 1) + w·d rounded operations (w - 1 Kronecker multiplies, w
      d-term v layers), so |R̂ - R| <= γ(m) |v|^⊗w Π |u|^⊗w entrywise and
      every column of R̂ - R has norm at most ρ = γ(m) (||v||_F ·
      max_x ||u e_x||)^w, with ||v||_F bounding || |v| ||_op;
    - a computed column norm is within a factor κ = 1 + (n + 8)ε of the
      true norm of the computed column (n - 1 additions, the squares and
      the root);
    - Ê = fl(R̂ - fl(cG')) gives ||R̂_x - cG'_x|| <= ê + μ t, with
      ê = κ·err_norm / (1 - ε/2) and t >= ||cG'_x|| solving t <= r̂ + ê + μt,
      r̂ = κ·rec_norm, so e <= ê + μt + ρ and a <= r̂ + ρ;
    - δ from the computed Frobenius norm of fl(u†u) - I plus the Gram's
      own error, γ(d + 1) ||u||_F², each inflated by 1 + d²ε for its norm;
    - |c| lies within 2ε of its computed modulus.
    The factor 2 on ρ covers the rounding of its own norms, and the final
    factor 1 + 32ε that of the bound's arithmetic."""
    eps = float(np.finfo(float).eps)
    mu = 2 * eps
    d = qca.d
    n = d ** w

    def gamma(k: int) -> float:
        return k * mu / (1 - k * mu)

    def defect(m: np.ndarray) -> float:
        gram = la.hs_norm(la.dagger(m) @ m - np.eye(d))
        return (1 + d * d * eps) * (gram + gamma(d + 1) * la.hs_norm(m) ** 2)

    spread = float(np.expm1(w * (np.log1p(defect(qca.u)) + np.log1p(defect(qca.v)))))
    col_u = float(np.max(np.linalg.norm(qca.u, axis=0)))
    rho = 2 * gamma(w - 1 + w * d) * (la.hs_norm(qca.v) * col_u) ** w
    kappa = 1 + (n + 8) * eps
    r_hat = kappa * rec_norm
    e_hat = kappa * err_norm / (1 - eps / 2)
    t = (r_hat + e_hat) / (1 - mu)
    e = e_hat + mu * t + rho
    a = r_hat + rho
    lo, hi = (abs(phase) - 2 * eps) ** 2, (abs(phase) + 2 * eps) ** 2
    bound = (spread + 2 * a * e + e * e) / lo + max(1 / lo - 1, 1 - 1 / hi)
    return bound * (1 + 32 * eps)


def _transfer_certify(qca: BlockQCA, op: WindowOperator, shift: int) -> Certification:
    """Certify a one-hot window, rotated by ``shift`` cells, without
    expanding reconstruction columns.

    For each basis column x, whose target is a 1 at row r(x), the
    reconstruction's element <r(x)| (⊗v) P (⊗u) |x> is the trace of a ring
    of per-cell q x q transfer matrices M_i[a, a'] = sum_b u[(a,b), x_i]
    v[r_i, (b, a')], and the column's squared norm is the trace of the ring
    of doubled transfers D_i = sum_r M_i(r) ⊗ conj(M_i(r)).  Every entry of
    the column then differs from the target column by at most

        sqrt(|col|^2 - |t_x|^2) + |t_x - phase|,

    the first term bounding all off-target entries, the second the target
    itself.  Both traces are evaluated in extended precision, putting the
    bound's floor orders of magnitude below the certification tolerance.
    The reported residual is this rigorous upper bound on the max-norm
    residual, slightly conservative compared to the dense path.  Column and
    row cell digits come from window_digits, one narrow row per cell."""
    d, w, n = op.alphabet.d, op.width, op.dim
    p, q = qca.p, qca.q
    u3 = np.ascontiguousarray(qca.u.reshape(q, p, d).astype(np.clongdouble))
    v3 = np.ascontiguousarray(qca.v.reshape(d, p, q).astype(np.clongdouble))
    # transfer lookup: M[x, r, a, a'] = sum_b u[(a,b), x] v[r, (b, a')]
    lookup = np.einsum("abx,rbc->xrac", u3, v3)
    # doubled transfer for column norms: D[x] = sum_r M(x,r) (x) conj(M(x,r))
    doubled = np.einsum("xrac,xrbd->xabcd", lookup, lookup.conj()).reshape(d, q * q, q * q)
    col_digits = window_digits(np.arange(n), d, w)
    # split each ring at its middle: Tr(L R) = sum_ij L_ij R_ji, with L over
    # all left half-words and R over all right half-words, so the column
    # norms take d^h + d^(w-h) half-ring products and one contraction
    # instead of n full rings
    halves = []
    for length in (w // 2, w - w // 2):
        prod = doubled
        for _ in range(length - 1):
            prod = np.matmul(prod[:, None], doubled[None]).reshape(-1, q * q, q * q)
        halves.append(prod)
    col_norm2 = np.einsum("xij,yji->xy", *halves).real.ravel()
    row_digits = window_digits(window_rotation(d, w, shift, op.matrix), d, w)
    t = lookup[col_digits[0], row_digits[0]]
    for i in range(1, w):
        t = np.matmul(t, lookup[col_digits[i], row_digits[i]])
    t_x = np.trace(t, axis1=1, axis2=2)
    z = complex(np.sum(t_x))
    phase = z / abs(z) if abs(z) > 1e-12 else 1.0
    off_mass = np.sqrt(np.maximum(0.0, col_norm2 - np.abs(t_x) ** 2))
    target_dev = np.abs(t_x - np.clongdouble(phase))
    return Certification(float(np.max(off_mass + target_dev)), shift, complex(phase))


def decompose_certified(op: WindowOperator, seed: int = 0, tol: float = 1e-8,
                        cert_tol: float = DEFAULT_CERT_TOL) -> tuple[BlockQCA, Certification]:
    """Full pipeline with the certification attached: unitarity, the first
    window alignment whose exact gates pass (_aligned_images), the split of
    the shared cell, u, the quiescent gauge, and the certificate against
    the input window at the shift that alignment chose.

    A one-hot window is checked for unitarity (injectivity) first.  A dense
    window runs the pipeline first, and its certificate pass bounds max
    |G†G - I| (_unitarity_bound): within max(tol, 1e-9), unitarity is
    proven and the n x n Gram check is skipped; otherwise, and before any
    refusal of the pipeline (a QCAError, a LinAlgError, or a certificate
    above cert_tol) is re-raised, check_unitary decides, so a non-unitary
    window is refused as such whichever stage noticed first.  Every
    verdict is the one of checking unitarity first, but for a window whose
    Gram defect lies within the Gram check's own rounding of the
    tolerance."""
    if op.width < 4:
        raise WindowTooSmall("decomposition needs a window of at least 4 cells")
    limit = max(tol, 1e-9)
    if op.is_one_hot:
        _require_unitary(op, limit)
    try:
        steps, images = _aligned_images(op, tol)
        a1, b1 = shared_cell_algebras(images)
        fact = derive_v(a1, b1, seed=seed, tol=tol)
        u = derive_u(images, fact, tol=tol)
        v = la.dagger(fact.u)
        qca = fix_quiescent_gauge(u, v, op.alphabet, fact.p, fact.q, tol=tol)
        cert = certify(qca, op, shift=steps)
        if cert.residual > cert_tol:
            raise ReconstructionMismatch(
                f"certification residual {cert.residual:.2e} exceeds {cert_tol:.1e} "
                f"(at shift {cert.shift})")
    except (QCAError, np.linalg.LinAlgError):
        if not op.is_one_hot:
            _require_unitary(op, limit)
        raise
    if not op.is_one_hot and not cert.unitarity_bound <= limit:
        _require_unitary(op, limit)
    return qca, cert


def _require_unitary(op: WindowOperator, tol: float) -> None:
    if not check_unitary(op, tol):
        raise PreconditionViolated("window operator is not unitary") from None


def _aligned_images(op: WindowOperator, tol: float) -> tuple[int, CellImages]:
    """``(steps, images)``: the first alignment that passes the exact gates
    and the cell-1 images of the window rotated by it.

    Hand-written windows may have their neighborhood at window offsets
    {0, 1}, {-1, 0} or {1, 2}; composing with the window cyclic shift by
    ``steps`` cells moves it by ``steps``.  For steps in ALIGNMENTS, the
    rotated window must be shift invariant (tested in the {0, 1}
    alignment, where interior images stay clear of the window edge) and
    pass cell_algebra_images; the first that does is taken, and ``steps``
    is the shift its reconstruction is certified at.  Both checks read the
    rotation through their ``shift`` argument, so no rotated copy of a
    dense window exists.  NotLocal, naming each alignment's failing check,
    when none does."""
    failures = []
    for steps in ALIGNMENTS:
        name = f"alignment {steps:+d}" if steps else "alignment 0"
        if not check_shift_invariance(op, max(tol, 1e-9), shift=steps):
            failures.append(f"{name}: not shift invariant")
            continue
        try:
            return steps, cell_algebra_images(op, tol, shift=steps)
        except NotLocal as err:
            failures.append(f"{name}: {err}")
    raise NotLocal(
        "the evolution is not local with a radius-1/2 neighborhood at any "
        "window alignment (" + "; ".join(failures) + ")")
