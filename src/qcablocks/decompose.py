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

No step needs all d² dense images at once, so a dense window's are
streamed one row T_k0 ... T_k(d-1) at a time in two passes: the first
takes the partial traces and the matrix-unit checks, the second (after
the split) rebuilds each row for u.

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
alone (about d per unit): the partial traces count them, and the
matrix-unit identities compose the units' entry maps, so every gate on a
one-hot window works in integers and nothing is densified.
Whatever a gate cannot see, the end-to-end certificate against the whole
window refuses.

A one-hot window that passed the gates is a block permutation (Kari,
"Representation of reversible cellular automata with block
permutations", Math. Systems Theory 29, 1996), and its block form is read
off the integer diagonals of the first pass (permutation_blocks), with no
split, no second pass and no floating-point factor.  Why the diagonals
hold it, for the window G rotated to the neighborhood {0, 1}, inputs x
and outputs y = G x:

- T_kk is the diagonal 0/1 projector onto S_k = {(y_0, y_1) : x_1 = k, y
  quiescent off the patch}.
- Every T_kl is localized on the patch, so x_1 moves only y_0 and y_1,
  and by shift invariance y_i = δ(x_i, x_{i+1}) for one rule δ; T_kk
  localized makes x_1 a function of (y_0, y_1).  A quiescent complement
  then fixes x_3 ... x_{w-1} to quiescent, and x_0 and x_2 each to a set
  of its own, δ(0, x_0) = 0 and δ(x_2, 0) = 0.  At w >= 4 these are
  different cells, so they vary independently: S_k = A_k × B_k with A_k
  = {δ(x_0, k)} and B_k = {δ(k, x_2)}, and a1[k, k] = |A_k|·1_{B_k},
  b1[k, k] = |B_k|·1_{A_k}, |A_k|·|B_k| = Tr T_kk = d.
- Shift invariance makes the image of E_mm at cell 2 the projector onto
  A_m × B_m on cells (1, 2).  Its product with the image of E_kk at cell
  1 projects onto {x_1 = k, x_2 = m}, of rank n/d², and has cell-1 factor
  B_k ∩ A_m, so B_k ∩ A_m = {δ(k, m)}, one symbol.  Each B_k is a union
  of a1 atoms and each A_m of b1 atoms, and every symbol lies in some
  B_k and some A_m (the T_kk sum to the identity); so a symbol's pair of
  atoms identifies it, and (#a1 atoms)·(#b1 atoms) >= d.
- The one step that leans on the paper's theorem: the atoms' indicators
  span abelian subalgebras of the two shared-cell algebras, which the
  theorem makes the commuting factors M_p ⊗ I_q and I_p ⊗ M_q of the
  cell, so there are at most p a1 atoms and at most q b1 atoms.
- Hence the atoms form a p × q grid of the symbols.  Each B_k is then
  one a1 atom (two would put two symbols of one b1 atom into some
  B_k ∩ A_m), so |B_k| = q, |A_k| = p, and y_1 = v(b(x_1), a(x_2)) with
  b(k) the a1 atom B_k and a(m) the b1 atom A_m.

The route does not rest on this derivation: permutation_blocks refuses
atoms that form no grid, and the certificate then compares the whole
window's column map with the reconstruction's, which is the periodic
quantization of the rule (x, x') -> v(b(x), a(x')), in integers.  Its
residual is exactly 0 or 1, so a one-hot verdict holds at any tol.

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
    ClassicalRule,
    WindowOperator,
    _window_columns,
    quantize,
    window_rotation,
)
from .verify import (
    _dense_units,
    _first_localized,
    _group_ids,
    _unit_conjugation,
    check_shift_invariance,
    check_unitary,
    is_injective,
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
    taken while the rows went by.  For a one-hot window they are int64
    counts of entries, so the diagonals a1[k, k] and b1[k, k], from which
    permutation_blocks reads the block form, are exact integers."""

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
    are traced by einsum and their sampled units multiplied as matrices.
    Entry rows are never densified: np.bincount counts each entry whose two
    leg-0 (or leg-1) indices agree, and a sampled unit is kept as its entry
    map (patch_row, patch_col), whose products are composed in integers
    (_entry_product_defect), so the residual is the max-norm the dense
    product would give, exactly.

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
    a1, b1 = np.zeros((2, d, d, d, d), dtype=np.int64 if op.is_one_hot else np.complex128)
    for k in range(d):
        r = row(k)
        if op.is_one_hot:
            ls, i, j = r
            (i0, i1), (j0, j1) = np.divmod(i, d), np.divmod(j, d)
            on0, on1 = i0 == j0, i1 == j1
            a1[k] = np.bincount((ls[on0] * d + i1[on0]) * d + j1[on0],
                                minlength=d**3).reshape(d, d, d)
            b1[k] = np.bincount((ls[on1] * d + i0[on1]) * d + j0[on1],
                                minlength=d**3).reshape(d, d, d)
            sampled.update({key: (i[ls == key[1]], j[ls == key[1]])
                            for key in sampled if key[0] == k})
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
        if op.is_one_hot:
            resid = _entry_product_defect(sampled[k, l], sampled[l, m], sampled[k, m], d * d)
        else:
            resid = la.max_norm(sampled[k, l] @ sampled[l, m] - sampled[k, m])
        if resid > max(tol, 1e-7):
            raise NotLocal(f"cell-1 units break T_kl T_lm = T_km (residual {resid:.2e})")
    return CellImages(row, a1, b1)


def _entry_product_defect(a, b, c, size: int) -> float:
    """max |A B - C| for the size x size count matrices given by entry maps
    (rows, cols), a repeated entry counting once per repeat, in integers:
    each entry (i, m) of A meets every entry (m, j) of B, and the product
    counts those pairs at (i, j).  Past the trace check a unit T_kl has at
    most Tr T_ll entries, so the pairs are few."""
    (ai, am), (bm, bj), (ci, cj) = a, b, c
    x, y = np.nonzero(am[:, None] == bm)
    keys = np.concatenate([ai[x] * size + bj[y], ci * size + cj])
    signs = np.repeat([1, -1], [len(x), len(ci)])
    return float(np.max(np.abs(np.bincount(_group_ids(keys), weights=signs)), initial=0.0))


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
    """Cell-splitting unitary of a dense window from the induced
    *-isomorphism: the second pass over the dense unit rows, each rebuilt
    by ``images.row`` and held one at a time.

    Conjugating the cell-1 units by W = dagger(v) on both patch cells gives
    I_p ⊗ phi(E_kl) ⊗ I_q, and phi is a *-isomorphism of M_d onto the middle
    factors M_q ⊗ M_p: conjugation by a unitary u, read off the rank-one
    anchor phi(E_00) and the columns phi(E_k0) u|0>.  W ⊗ W is formed once
    with its rows in (middle q p, outer p q) order of the (p, q, p, q)
    patch, so each conjugated unit, two matmuls, is already split into
    region and complement, and phi(E_kl) is its outer-(0, 0) block.  Every
    unit's middle-factor residual and u's isomorphism residual over all d²
    units are checked.  One-hot windows take no such pass: their block
    form is read off the partial traces (permutation_blocks)."""
    p, q = fact.p, fact.q
    d = p * q
    limit = max(tol, 1e-7)
    ww = la.kron(fact.u, fact.u).reshape(p, q, p, q, d * d)
    ww = ww.transpose(1, 2, 0, 3, 4).reshape(d * d, d * d)
    ww_h = la.dagger(ww)
    phi = np.empty((d, d, d, d), dtype=np.complex128)
    for k in range(d):
        r = images.row(k)
        for l in range(d):
            x = ww @ r[l] @ ww_h
            resid = la.localization_defect(x, (d, d), {0})[0]
            if resid > limit:
                raise IsoSolveFailed(
                    f"conjugated image ({k},{l}) misses the middle factors "
                    f"(residual {resid:.2e})")
            phi[k, l] = x[::d, ::d]
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


def permutation_blocks(images: CellImages, alphabet: Alphabet) -> BlockQCA:
    """Block form of a one-hot window that passed the gates, read off the
    integer diagonals of its partial traces, as 0/1 permutations u and v.

    a1[k, k] = p·1_{B_k} and b1[k, k] = q·1_{A_k} (module docstring).  The
    symbols whose diagonal values agree for every k are one atom: the a1
    atoms are the p classes b of v's right input, the b1 atoms the q
    classes a of its left input, and each symbol is the one in its pair
    (b, a), so v(b, a) is that symbol.  u sends x to (a(x), b(x)), the
    atoms holding the supports of b1[x, x] and a1[x, x].  Atoms are
    numbered by their first symbol, so v's preimage of the quiescent symbol
    is (0, 0): the gauge pair is (|0>, |0>), read off with no Schmidt
    decomposition, and it leaves u and v as they are.
    ReconstructionMismatch unless the atoms form a grid and u is a
    permutation; the certificate decides the rest."""
    d = alphabet.d
    diag_a = np.einsum("kkyy->ky", images.a1)
    diag_b = np.einsum("kkyy->ky", images.b1)
    right, left = _atoms(diag_a), _atoms(diag_b)
    p, q = int(right.max()) + 1, int(left.max()) + 1
    pair = right * q + left
    split = left[np.argmax(diag_b, axis=1)] * p + right[np.argmax(diag_a, axis=1)]
    if p * q != d or not (is_injective(pair) and is_injective(split)):
        raise ReconstructionMismatch(
            f"the {p} x {q} atoms of the partial traces form no block "
            f"permutation of the {d} symbols")
    u = np.zeros((d, d), dtype=np.complex128)
    u[split, np.arange(d)] = 1.0
    v = np.zeros((d, d), dtype=np.complex128)
    v[np.arange(d), pair] = 1.0
    q1, q2 = np.zeros(p, dtype=np.complex128), np.zeros(q, dtype=np.complex128)
    q1[0] = q2[0] = 1.0
    return _gauge_phase(u, v, alphabet, q1, q2)


def _atoms(diag: np.ndarray) -> np.ndarray:
    """Atom of each symbol y: symbols whose columns diag[:, y] agree
    exactly share one, numbered in order of their first symbol."""
    ids = {}
    return np.array([ids.setdefault(col.tobytes(), len(ids)) for col in diag.T])


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
    return _gauge_phase(u, v, alphabet, fixed, q2 * np.conj(rot))


def _gauge_phase(u: np.ndarray, v: np.ndarray, alphabet: Alphabet,
                 q1: np.ndarray, q2: np.ndarray) -> BlockQCA:
    """The block automaton with u's free global phase fixed so that
    u|q> = |q2>|q1>; IsoSolveFailed where u maps the quiescent cell off
    the gauge pair."""
    ket_q = np.zeros(alphabet.d, dtype=np.complex128)
    ket_q[0] = 1.0
    overlap = complex(np.vdot(np.kron(q2, q1), u @ ket_q))
    if abs(abs(overlap) - 1.0) > 1e-6:
        raise IsoSolveFailed(
            f"splitting unitary maps the quiescent cell off the gauge pair "
            f"(overlap modulus {abs(overlap):.6f})")
    return BlockQCA(alphabet, len(q1), len(q2), u * (abs(overlap) / overlap), v, q1, q2)


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
    input.

    A one-hot window against 0/1 permutations u and v (permutation_blocks)
    is never densified: the reconstruction then permutes the basis too, as
    the periodic quantization of the rule (x, x') -> v(b(x), a(x')), and
    its column map is compared with the rotated window's in O(n·w) integer
    work, so the residual is exactly 0.0, or 1.0 where a column differs,
    at phase 1, with no unitarity bound (injectivity is checked apart).
    Against any other block pair a one-hot window is compared densely, as
    a dense window would be."""
    if op.is_one_hot:
        split, join = _column_map(qca.u), _column_map(qca.v)
        if split is not None and join is not None:
            a, b = np.divmod(split, qca.p)
            rule = ClassicalRule(op.alphabet, join[b[:, None] * qca.q + a[None, :]])
            rec = quantize(rule, op.width, "periodic").matrix
            same = np.array_equal(rec, window_rotation(op.alphabet.d, op.width, shift, op.matrix))
            return Certification(0.0 if same else 1.0, shift, 1.0 + 0j)
        op = WindowOperator(op.alphabet, op.width, op.dense(), op.boundary, op.out_shift)
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


def _column_map(m: np.ndarray) -> np.ndarray | None:
    """Row of each column's one entry if m is exactly a 0/1 matrix with one
    1 per column, else None."""
    rows = np.argmax(np.abs(m), axis=0)
    exact = np.zeros(m.shape, dtype=m.dtype)
    exact[rows, np.arange(m.shape[1])] = 1
    return rows if np.array_equal(m, exact) else None


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


def decompose_certified(op: WindowOperator, seed: int = 0, tol: float = 1e-8,
                        cert_tol: float = DEFAULT_CERT_TOL) -> tuple[BlockQCA, Certification]:
    """Full pipeline with the certification attached: unitarity, the first
    window alignment whose exact gates pass (_aligned_images), the split of
    the shared cell, u, the quiescent gauge, and the certificate against
    the input window at the shift that alignment chose.

    A one-hot window is checked for unitarity (injectivity) first, and
    after the gates its block form is read off the partial traces as 0/1
    permutations (permutation_blocks), which the integer certificate
    compares exactly: the verdict holds at any tol, and the seed is not
    used.  A dense
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
        if op.is_one_hot:
            qca = permutation_blocks(images, op.alphabet)
        else:
            fact = derive_v(*shared_cell_algebras(images), seed=seed, tol=tol)
            u = derive_u(images, fact, tol=tol)
            qca = fix_quiescent_gauge(u, la.dagger(fact.u), op.alphabet, fact.p, fact.q,
                                      tol=tol)
        del images  # before the certificate pass
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
