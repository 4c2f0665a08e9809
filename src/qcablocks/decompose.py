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

The window's alignment is chosen by exact gates alone: of the window
rotations by 0, +1 and -1 cells, the first that is shift invariant and
passes its gate is decomposed; no random probe is drawn, and the
certificate compares at that rotation alone.  A dense window's gate is
the trace and matrix-unit checks of its compressed images, which it
conjugates on its quiescent-complement rows with the verifier's dense
unit primitive and holds as one (d, d, d², d²) stack for the split and
u: d^6 entries, at most 1/d² of the d^(2w) window at w >= 4.  A one-hot
window's gate is the verifier's exact generator check for localization
on the patch, by reindexing, and it forms no image: what passes is
decomposed from its d x d rule table (_rule_table).  Whatever a gate
cannot see, the end-to-end certificate against the whole window refuses.

A one-hot window that passed its gate is a block permutation (Kari,
"Representation of reversible cellular automata with block
permutations", Math. Systems Theory 29, 1996), and its block form is read
off its rule table δ (permutation_blocks), with no split, no image and no
floating-point factor.  Why the table holds it, for the permutation
window G rotated to the neighborhood {0, 1}, inputs x and outputs y = G x:

- The generator check implies the dense gates.  A 0/1 unit's residual is
  exactly 0 or at least 1/2 (verify._coo_localization_residual), so below
  tol 1/2 T_00 and every generator T_0l are exactly X ⊗ I off the patch,
  and so is every T_kl = T_k0 T_0l = T_0k† T_0l (G†G = I).  The X_kl are
  then matrix units, the compressed images themselves, with Tr X_kl =
  Tr(E_kl ⊗ I)/d^(w-2) = d·δ_kl: the trace check and every identity
  T_kl T_lm = T_km hold, and are not tested.
- T_kk is the diagonal 0/1 projector onto S_k = {(y_0, y_1) : x_1 = k, y
  quiescent off the patch}.
- Every T_kl is localized on the patch, so x_1 moves only y_0 and y_1,
  and by shift invariance y_i = δ(x_i, x_{i+1}) for one rule δ, read as
  δ(a, b) = y_0 at x = (a, b, 0, ..., 0); T_kk localized makes x_1 a
  function of (y_0, y_1).  A quiescent complement then fixes x_3 ...
  x_{w-1} to quiescent, and x_0 and x_2 each to a set of its own, δ(0,
  x_0) = 0 and δ(x_2, 0) = 0.  At w >= 4 these are different cells, so
  they vary independently: S_k = A_k × B_k with A_k = {δ(x_0, k)}, column
  k of δ, and B_k = {δ(k, x_2)}, row k, and |A_k|·|B_k| = Tr T_kk = d.
- The partial traces of the images over patch legs 0 and 1 would read
  a1[k, k] = |A_k|·1_{B_k} and b1[k, k] = |B_k|·1_{A_k}, and A_k and B_k
  are not empty, so symbols with equal a1 diagonals are those in the same
  rows of δ, and with equal b1 diagonals those in the same columns: the
  row atoms and column atoms of the table are the atoms of the partial
  traces.
- Shift invariance makes the image of E_mm at cell 2 the projector onto
  A_m × B_m on cells (1, 2).  Its product with the image of E_kk at cell
  1 projects onto {x_1 = k, x_2 = m}, of rank n/d², and has cell-1 factor
  B_k ∩ A_m, so B_k ∩ A_m = {δ(k, m)}, one symbol.  Each B_k is a union
  of row atoms and each A_m of column atoms, and every symbol lies in
  some B_k and some A_m (the T_kk sum to the identity); so a symbol's
  pair of atoms identifies it, and (#row atoms)·(#column atoms) >= d.
- The one step that leans on the paper's theorem: the atoms' indicators
  span abelian subalgebras of the two shared-cell algebras, which the
  theorem makes the commuting factors M_p ⊗ I_q and I_p ⊗ M_q of the
  cell, so there are at most p row atoms and at most q column atoms.
- Hence the atoms form a p × q grid of the symbols.  Each B_k is then
  one row atom (two would put two symbols of one column atom into some
  B_k ∩ A_m), so |B_k| = q, |A_k| = p, and y_1 = v(b(x_1), a(x_2)) with
  b(k) the row atom B_k and a(m) the column atom A_m.

The route does not rest on this derivation: permutation_blocks refuses
atoms that form no grid, and the certificate then compares the whole
window's column map with the reconstruction's, which is the periodic
quantization of the rule (x, x') -> v(b(x), a(x')), in integers.  Its
residual is exactly 0 or 1, so a one-hot verdict holds at any tol below 1/2.

Unitarity of a dense window comes from the certificate, not from G†G:
the certificate pass keeps the largest column norms of the reconstruction
R and of its difference E from the phased, rotated window, and
max |G†G - I| <= 2·a·e + e² + ((1 + δ_u)(1 + δ_v))^w - 1, with rounding
terms (_unitarity_bound).  Within tol that proves unitarity, in
O(n²) on top of the pass; otherwise, and before any refusal of the
pipeline is re-raised, check_unitary forms the Gram's upper block
triangle and decides.  A one-hot window is checked for injectivity
first, which costs less than its pipeline.
"""
from __future__ import annotations

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
    is_injective,
    quantize,
    window_rotation,
)
from .verify import (
    _dense_units,
    _first_localized,
    _unit_conjugation,
    check_shift_invariance,
    check_unitary,
)

# window cyclic shifts tried in turn to bring the neighborhood to {0, 1}
ALIGNMENTS = (0, 1, -1)


@dataclass(frozen=True)
class Certification:
    """How well the reconstructed window matches the input rotated by
    ``shift`` cells (_rotate_rows): max-norm residual after aligning a
    global phase, at most decompose_certified's tol.  ``unitarity_bound``,
    on a dense window, bounds max |G†G - I| from the same pass
    (_unitarity_bound); None where the pass gives none."""

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


def cell_algebra_images(op: WindowOperator, tol: float = 1e-8,
                        shift: int = 0) -> np.ndarray:
    """The (d, d, d², d²) stack of compressed images T_kl of the cell-1
    matrix units under forward conjugation G (E_kl ⊗ I) G†, compressed onto
    patch (0, 1), with G the window composed with the cyclic shift of its
    outputs by ``shift`` cells (_rotate_rows), read without forming it.
    The window is taken as dense (a one-hot one is densified, within
    WindowOperator.dense's cap); a one-hot window's own gate is _rule_table.

    Each T_kl is the verifier's dense unit on the d² rows of the rotated G
    whose complement cells (2 ... w-1) are quiescent, gathered from G, so
    no rotated copy exists.

    Conjugation by a unitary is a *-isomorphism, so the images must be a
    system of matrix units; NotLocal unless Tr T_kl = d·δ_kl on every unit
    (so the map is nonzero, hence injective on the simple M_d) and four
    seeded identities T_kl T_lm = T_km hold.  Localization is not checked
    here: these checks, the middle-factor and isomorphism residuals of
    derive_u and the end-to-end certificate refuse what is not localized."""
    if op.width < 4:
        raise WindowTooSmall("cell algebra images need a window of at least 4 cells")
    d, w = op.alphabet.d, op.width
    # rows with a quiescent complement, in patch order: the rotated
    # window's row r is the window's row src[r]
    src = window_rotation(d, w, -shift)
    unit = _dense_units(op.dense()[src[::d ** (w - 2)]], d, d, forward=True)[0]
    units = np.array([[unit(k, l)() for l in range(d)] for k in range(d)])
    dev = la.max_norm(np.einsum("klii->kl", units) - d * np.eye(d))
    if dev > d * tol:
        raise NotLocal(f"cell-1 unit traces miss d·δ_kl by {dev:.2e}; the "
                       "evolution does not conjugate the cell algebra faithfully")
    rng = np.random.default_rng(0)
    for k, l, m in (tuple(rng.integers(0, d, size=3)) for _ in range(4)):
        resid = la.max_norm(units[k, l] @ units[l, m] - units[k, m])
        if resid > tol:
            raise NotLocal(f"cell-1 units break T_kl T_lm = T_km (residual {resid:.2e})")
    return units


def _rule_table(op: WindowOperator, tol: float, shift: int) -> np.ndarray:
    """The gate of a one-hot window at one alignment, and the d x d rule
    table δ of what passes.

    The window rotated by ``shift`` cells (_rotate_rows) must pass the
    verifier's exact generator check for localization on the patch (0, 1):
    T_00 and the d - 1 generators T_0l, then their norm bound, else
    NotLocal.  δ[a, b] is then output cell 0 of the rotated column map at
    the input (a, b, 0, ..., 0), d² lookups.  The trace and matrix-unit
    checks of a dense window hold on what passes at tol below 1/2 (module
    docstring), so they are not repeated; at any tol the certificate
    refuses a table that does not rebuild the window.  The window must be
    injective, which decompose_certified counts first."""
    d, w = op.alphabet.d, op.width
    op = _rotate_rows(op, shift)
    patch = (0, 1)
    if _first_localized(_unit_conjugation(op, 1, forward=True), d, w, [patch], tol) is None:
        raise NotLocal(f"image of the cell-1 algebra is not localized on cells {patch}")
    # the input (a, b, 0, ..., 0) is (a·d + b)·d^(w-2), and output cell 0
    # the leading digit of its image
    return (op.matrix[np.arange(d * d) * d ** (w - 2)] // d ** (w - 1)).reshape(d, d)


def shared_cell_algebras(images: np.ndarray) -> tuple[GeneratedAlgebra, GeneratedAlgebra]:
    """The two commuting algebras on the shared cell 1, read off the cell-1
    image stack: tracing out patch leg 0 leaves the cell-1 image's part on
    cell 1; tracing out leg 1 leaves its part on cell 0, which by shift
    invariance is the cell-2 image's part on cell 1.  An image algebra is
    the tensor product of its parts, so each span (one d²-vector SVD in
    dimension d) is already an algebra."""
    d = images.shape[0]
    t = images.reshape((d,) * 6)
    return (span_algebra(np.einsum("klxixj->klij", t).reshape(-1, d, d), d),
            span_algebra(np.einsum("klixjx->klij", t).reshape(-1, d, d), d))


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


def derive_u(images: np.ndarray, fact: Factorization, tol: float = 1e-8) -> np.ndarray:
    """Cell-splitting unitary of a dense window from the induced
    *-isomorphism on its cell-1 image stack (cell_algebra_images).

    Conjugating the cell-1 units by W = dagger(v) on both patch cells gives
    I_p ⊗ phi(E_kl) ⊗ I_q, and phi is a *-isomorphism of M_d onto the middle
    factors M_q ⊗ M_p: conjugation by a unitary u, read off the rank-one
    anchor phi(E_00) and the columns phi(E_k0) u|0>.  W ⊗ W is formed once
    with its rows in (middle q p, outer p q) order of the (p, q, p, q)
    patch, so each conjugated unit, two matmuls, is already split into
    region and complement, and phi(E_kl) is its outer-(0, 0) block.  Every
    unit's middle-factor residual and u's isomorphism residual over all d²
    units are checked.  One-hot windows form no images: their block form
    is read off their rule table (permutation_blocks)."""
    p, q = fact.p, fact.q
    d = p * q
    ww = la.kron(fact.u, fact.u).reshape(p, q, p, q, d * d)
    ww = ww.transpose(1, 2, 0, 3, 4).reshape(d * d, d * d)
    ww_h = la.dagger(ww)
    phi = np.empty((d, d, d, d), dtype=np.complex128)
    for k in range(d):
        for l in range(d):
            x = ww @ images[k, l] @ ww_h
            resid = la.localization_defect(x, (d, d), {0})[0]
            if resid > tol:
                raise IsoSolveFailed(
                    f"conjugated image ({k},{l}) misses the middle factors "
                    f"(residual {resid:.2e})")
            phi[k, l] = x[::d, ::d]
    # anchor: phi(E_00) is the rank-one projector onto u|quiescent>
    vals, vecs = np.linalg.eigh(phi[0, 0])
    miss = abs(vals[-1] - 1.0)
    if miss > d * tol:
        raise IsoSolveFailed(
            f"anchor image is not a rank-one projector (top eigenvalue misses 1 "
            f"by {miss:.2e}, above {d * tol:.2e})")
    # columns phi(E_k0) u|0>; the polar factor removes their scale and drift
    u = (phi[:, 0] @ vecs[:, -1]).T
    uu, _, vvh = np.linalg.svd(u)
    u = uu @ vvh
    # u E_kl u† = |u_k><u_l|
    worst = la.max_norm(phi - np.einsum("ik,jl->klij", u, u.conj()))
    if worst > tol:
        raise IsoSolveFailed(f"isomorphism residual {worst:.2e} exceeds tolerance")
    return u


def permutation_blocks(table: np.ndarray, alphabet: Alphabet) -> BlockQCA:
    """Block form of a one-hot window that passed its gate, read off its
    rule table δ (_rule_table) as 0/1 permutations u and v.

    B_k = {δ(k, x)} is row k of δ and A_k = {δ(x, k)} column k (module
    docstring).  The symbols that lie in the same rows B_k are one atom:
    these row atoms are the p classes b of v's right input.  Likewise the
    column atoms, by the columns A_k, are the q classes a of its left
    input, and each symbol is the one in its pair (b, a), so v(b, a) is
    that symbol.  u sends x to (a(x), b(x)), the atoms holding A_x and B_x,
    read at their first (least) symbols.  Atoms are numbered by their first symbol,
    so v's preimage of the quiescent symbol is (0, 0): the gauge pair is
    (|0>, |0>), read off with no Schmidt decomposition, and it leaves u and
    v as they are.  ReconstructionMismatch unless the atoms form a grid and
    u is a permutation; the certificate decides the rest."""
    d = alphabet.d
    ks = np.arange(d)
    right, left = _atoms(table), _atoms(table.T)
    p, q = int(right.max()) + 1, int(left.max()) + 1
    pair = right * q + left
    split = left[table.min(axis=0)] * p + right[table.min(axis=1)]
    if p * q != d or not (is_injective(pair) and is_injective(split)):
        raise ReconstructionMismatch(
            f"the {p} x {q} atoms of the rule table form no block "
            f"permutation of the {d} symbols")
    u = np.zeros((d, d), dtype=np.complex128)
    u[split, ks] = 1.0
    v = np.zeros((d, d), dtype=np.complex128)
    v[ks, pair] = 1.0
    q1, q2 = np.zeros(p, dtype=np.complex128), np.zeros(q, dtype=np.complex128)
    q1[0] = q2[0] = 1.0
    return _gauge_phase(u, v, alphabet, q1, q2, tol=0.0)


def _atoms(table: np.ndarray) -> np.ndarray:
    """Atom of each symbol: symbols that lie in the same rows of ``table``
    share one, numbered in order of their first symbol."""
    d = len(table)
    member = np.zeros((d, d), dtype=bool)  # member[k, y]: y in row k
    member[np.arange(d)[:, None], table] = True
    ids = {}
    return np.array([ids.setdefault(col.tobytes(), len(ids)) for col in member.T])


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
    if len(s) > 1 and s[1] > tol:
        raise NotSeparable(
            f"recombiner preimage of the quiescent cell has second Schmidt "
            f"value {s[1]:.2e}, above {tol:.2e}; expected rank one")
    q1 = uu[:, 0]
    q2 = vh[0, :] * s[0]
    q2 = q2 / np.linalg.norm(q2)
    # canonical phase on q1, compensated on q2 to keep q1 ⊗ q2 = psi
    fixed = la.phase_fix(q1.reshape(-1, 1)).ravel()
    rot = complex(np.vdot(q1, fixed))
    return _gauge_phase(u, v, alphabet, fixed, q2 * np.conj(rot), tol)


def _gauge_phase(u: np.ndarray, v: np.ndarray, alphabet: Alphabet,
                 q1: np.ndarray, q2: np.ndarray, tol: float) -> BlockQCA:
    """The block automaton with u's free global phase fixed so that
    u|q> = |q2>|q1>; IsoSolveFailed where the overlap modulus misses 1 by
    more than tol (a 0/1 pair from permutation_blocks reads exactly 1)."""
    ket_q = np.zeros(alphabet.d, dtype=np.complex128)
    ket_q[0] = 1.0
    overlap = complex(np.vdot(np.kron(q2, q1), u @ ket_q))
    miss = abs(abs(overlap) - 1.0)
    if miss > tol:
        raise IsoSolveFailed(
            f"splitting unitary maps the quiescent cell off the gauge pair "
            f"(overlap modulus misses 1 by {miss:.2e}, above {tol:.2e})")
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


def decompose_certified(op: WindowOperator, seed: int = 0,
                        tol: float = 1e-8) -> tuple[BlockQCA, Certification]:
    """Full pipeline with the certification attached: unitarity, the first
    window alignment whose exact gates pass (_aligned_images), the split of
    the shared cell, u, the quiescent gauge, and the certificate against
    the input window at the shift that alignment chose.

    A one-hot window is checked for unitarity (injectivity) first, and
    after its gate its block form is read off its rule table as 0/1
    permutations (permutation_blocks), which the integer certificate
    compares exactly: the verdict holds at any tol below 1/2, and the seed
    is not used.  A dense window runs the pipeline first, and its
    certificate pass bounds max |G†G - I| (_unitarity_bound): within tol,
    unitarity is proven and the n x n Gram check is skipped; otherwise,
    and before any refusal of the pipeline (a QCAError, a LinAlgError, or
    a certificate above tol) is re-raised, check_unitary decides, so a
    non-unitary window is refused as such whichever stage noticed first.
    Every verdict is the one of checking unitarity first, but for a window
    whose Gram defect lies within the Gram check's own rounding of tol.
    Every check compares with tol, with no floor (u's anchor eigenvalue at
    d·tol, the operator-norm room of a d x d matrix within tol entrywise),
    so a returned certificate is at most tol."""
    if op.width < 4:
        raise WindowTooSmall("decomposition needs a window of at least 4 cells")
    if op.is_one_hot:
        _require_unitary(op, tol)
    try:
        steps, gated = _aligned_images(op, tol)
        if op.is_one_hot:
            qca = permutation_blocks(gated, op.alphabet)
        else:
            fact = derive_v(*shared_cell_algebras(gated), seed=seed, tol=tol)
            u = derive_u(gated, fact, tol=tol)
            qca = fix_quiescent_gauge(u, la.dagger(fact.u), op.alphabet, fact.p, fact.q,
                                      tol=tol)
        del gated  # before the certificate pass
        cert = certify(qca, op, shift=steps)
        if cert.residual > tol:
            raise ReconstructionMismatch(
                f"certification residual {cert.residual:.2e} exceeds {tol:.1e} "
                f"(at shift {cert.shift})")
    except (QCAError, np.linalg.LinAlgError):
        if not op.is_one_hot:
            _require_unitary(op, tol)
        raise
    if not op.is_one_hot and not cert.unitarity_bound <= tol:
        _require_unitary(op, tol)
    return qca, cert


def _require_unitary(op: WindowOperator, tol: float) -> None:
    if not check_unitary(op, tol):
        raise PreconditionViolated("window operator is not unitary") from None


def _aligned_images(op: WindowOperator, tol: float) -> tuple[int, np.ndarray]:
    """``(steps, gated)``: the first alignment that passes the exact gates,
    and the array the gate read off the window rotated by it: the
    (d, d, d², d²) cell-1 image stack of a dense window
    (cell_algebra_images), the d x d rule table of a one-hot one
    (_rule_table).

    Hand-written windows may have their neighborhood at window offsets
    {0, 1}, {-1, 0} or {1, 2}; composing with the window cyclic shift by
    ``steps`` cells moves it by ``steps``.  For steps in ALIGNMENTS, the
    rotated window must be shift invariant (tested in the {0, 1}
    alignment, where interior images stay clear of the window edge) and
    pass its gate; the first that does is taken, and ``steps``
    is the shift its reconstruction is certified at.  Both checks read the
    rotation through their ``shift`` argument, so no rotated copy of a
    dense window exists.  NotLocal, naming each alignment's failing check,
    when none does."""
    gate = _rule_table if op.is_one_hot else cell_algebra_images
    failures = []
    for steps in ALIGNMENTS:
        name = f"alignment {steps:+d}" if steps else "alignment 0"
        if not check_shift_invariance(op, tol, shift=steps):
            failures.append(f"{name}: not shift invariant")
            continue
        try:
            return steps, gate(op, tol, shift=steps)
        except NotLocal as err:
            failures.append(f"{name}: {err}")
    raise NotLocal(
        "the evolution is not local with a radius-1/2 neighborhood at any "
        "window alignment (" + "; ".join(failures) + ")")
