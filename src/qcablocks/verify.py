"""Finite-window verification of the automaton axioms: unitarity,
shift invariance, locality (neighborhood search), the inverse-locality
mirror, and signalling witnesses.

Verdicts concern the window presentation; inference to the infinite line
is sound only where the window leaves slack, so the neighborhood search
restricts itself to regions with a boundary margin (one cell for truncated
windows, none for periodic ones) and callers see ``WindowTooSmall`` when a
requested radius cannot be tested soundly.

Every locality verdict asks one question: is the conjugated cell operator
G† (E_kl ⊗ I) G (backward) or G (E_kl ⊗ I) G† (forward) supported on a
region R?  A window is a dense matrix or a one-hot column map (see
WindowOperator); each format has one forward conjugation routine, and the
backward direction is the forward one on the adjoint window.  Dense windows
conjugate a rank-one cell operator |x><y| as C_x C_y†, with C_x the
x-weighted sum of the column slices of G by the cell's digit; one-hot
windows (quantized classical rules) only reindex entries, so windows far
beyond the dense cap stay cheap, and their adjoint is the inverse column
map with conjugated phases.  fast_localization_residual is the one residual
entry point for both formats.

The residual is adjoint-invariant (the projection onto M_R ⊗ I commutes
with † and so does the max-norm), and G† E_lk G is the adjoint of
G† E_kl G, so only the units with k <= l are tested.  The neighborhood
search streams them, dropping each candidate region at its first failing
unit; the verdict stays exhaustive and exact.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from . import linalg as la
from .errors import (
    PreconditionViolated,
    WindowTooSmall,
)
from .model import (
    Alphabet,
    BlockQCA,
    ClassicalRule,
    Configuration,
    SparseState,
    WindowOperator,
    apply_block,
    apply_window,
    fit_offset,
    restrict_state,
)


@dataclass(frozen=True)
class Witness:
    """Two states with equal restrictions on the context cells whose images
    are measurably different at the probe cell."""

    state_a: SparseState
    state_b: SparseState
    cell: int
    trace_distance: float
    context: tuple[int, ...] = ()


@dataclass(frozen=True)
class NeighborhoodReport:
    """Result of the locality analysis at one output cell.

    ``neighborhood`` is the smallest input-cell offset interval (relative
    to the probed output cell, in true-cell coordinates) on which every
    conjugated single-cell matrix unit is localized, or None when the
    operator is not local within the tested radius."""

    is_local: bool
    neighborhood: tuple[int, int] | None
    witness: Witness | None
    tested_radius: int
    cell: int


# ------------------------------------------------------------------ helpers

def _cell_powers(d: int, w: int) -> np.ndarray:
    return (d ** np.arange(w - 1, -1, -1)).astype(np.int64)


# ------------------------------------------------------------ unitarity

def check_unitary(op: WindowOperator, tol: float = la.DEFAULT_TOL) -> bool:
    """Whether the window matrix is unitary within tol."""
    if op.is_one_hot:
        rows, phases = op.matrix
        if np.max(np.abs(np.abs(phases) - 1.0)) > tol:
            return False
        return len(np.unique(rows)) == op.dim
    return la.is_unitary(op.dense(), tol)


# ------------------------------------------------------ shift invariance

def check_shift_invariance(op: WindowOperator, tol: float = la.DEFAULT_TOL) -> bool:
    """Compare the action on configurations supported on the interior with
    the one-cell-shifted action.  Columns for words on cells [1, w-2] are
    matched against shifted columns for the same words on [2, w-1]."""
    w, d = op.width, op.alphabet.d
    if w < 3:
        raise WindowTooSmall("shift invariance needs a window of at least 3 cells")
    n = op.dim
    interior = np.arange(d ** (w - 2), dtype=np.int64) * d  # words on cells [1, w-2]
    shifted_cols = interior // d  # same words moved one cell right
    rows = np.arange(n, dtype=np.int64)
    last_digit = rows % d
    movable = last_digit == 0

    if op.is_one_hot:
        f, phases = op.matrix
        img = f[interior]
        img_shift = f[shifted_cols]
        ok_support = np.all(img % d == 0)
        if not ok_support:
            return False
        if not np.array_equal(img // d, img_shift):
            return False
        return float(np.max(np.abs(phases[interior] - phases[shifted_cols]))) <= tol

    mat = op.dense()
    cols = mat[:, interior]
    cols_shift = mat[:, shifted_cols]
    leak = float(np.max(np.abs(cols[~movable, :]))) if np.any(~movable) else 0.0
    if leak > tol:
        return False
    expected = np.zeros_like(cols_shift)
    expected[rows[movable] // d, :] = cols[movable, :]
    return float(np.max(np.abs(expected - cols_shift))) <= tol


# ------------------------------------------------- conjugated cell units

def _cell_slices(mat: np.ndarray, d: int, w: int, cell: int) -> np.ndarray:
    """The column slices G[:, cell digit = k], k < d, of a matrix whose
    columns index the d^w window, stacked into shape (d, rows, d^(w-1))."""
    r = mat.shape[0]
    t = mat.reshape(r, d**cell, d, d ** (w - 1 - cell)).transpose(2, 0, 1, 3)
    return np.ascontiguousarray(t).reshape(d, r, -1)


def _dense_conjugation(slices: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """C_x C_y† with C_x = Σ_k x_k G[:, cell digit = k], which is
    G (|x><y| ⊗ I) G†: a matrix unit E_kl is x = e_k, y = e_l, a rank-one
    probe is a random pair.  Restricting G to some rows restricts the
    result to the same rows and columns."""
    cx = np.tensordot(x, slices, 1)
    cy = np.tensordot(y, slices, 1)
    return cx @ la.dagger(cy)


def _one_hot_conjugation(rows: np.ndarray, phases: np.ndarray, d: int, w: int,
                         cell: int, k: int, l: int):
    """COO triple of G (E_kl ⊗ I) G† for the one-hot window
    G|x> = phases[x] |rows[x]>.  Conjugation only reindexes: the inputs with
    cell digit k come in rest order, and each one's partner with digit l
    is the same index moved by (l - k) digit places."""
    pw = d ** (w - 1 - cell)
    idx = np.arange(d**w, dtype=np.int64)
    src_k = idx[(idx // pw) % d == k]
    src_l = src_k + (l - k) * pw
    return rows[src_k], rows[src_l], phases[src_k] * np.conj(phases[src_l])


def _one_hot_adjoint(rows: np.ndarray, phases: np.ndarray):
    """The adjoint of a one-hot window in the same (rows, phases) form: the
    inverse column map with conjugated phases.  Exists only for a bijective
    column map."""
    n = len(rows)
    if len(np.unique(rows)) != n:
        raise PreconditionViolated(
            "locality analysis needs a unitary window; this one-hot "
            "operator is not injective")
    inv = np.empty(n, dtype=np.int64)
    inv[rows] = np.arange(n, dtype=np.int64)
    return inv, np.conj(phases[inv])


def _unit_conjugation(op: WindowOperator, cell: int, forward: bool):
    """Function (k, l) -> conjugated matrix unit E_kl at ``cell``: forward
    G (E_kl ⊗ I) G†, backward G† (E_kl ⊗ I) G.  One-hot windows give COO
    triples, others dense arrays."""
    d, w = op.alphabet.d, op.width
    if op.is_one_hot:
        rows, phases = op.matrix if forward else _one_hot_adjoint(*op.matrix)
        return lambda k, l: _one_hot_conjugation(rows, phases, d, w, cell, k, l)
    mat = op.dense()
    slices = _cell_slices(mat if forward else la.dagger(mat), d, w, cell)
    eye = np.eye(d)
    return lambda k, l: _dense_conjugation(slices, eye[k], eye[l])


def _adjoint(entry):
    """Adjoint of a conjugated unit in either format."""
    if isinstance(entry, tuple):
        rows, cols, vals = entry
        return cols, rows, np.conj(vals)
    return la.dagger(entry)


def fast_localization_residual(t, d: int, w: int, region) -> float:
    """Max-norm localization residual of an operator on the d^w window,
    given dense (``linalg.localization_residual``) or as a COO triple
    (rows, cols, vals) (sparse kernel).  It is adjoint-invariant: the
    projection onto M_region ⊗ I commutes with † and so does the max-norm."""
    if isinstance(t, tuple):
        return _coo_localization_residual(*t, d, w, tuple(region))
    return la.localization_residual(t, (d,) * w, region)


def _coo_localization_residual(rows, cols, vals, d: int, w: int,
                               region: tuple[int, ...]) -> float:
    """Max-norm distance from M_region ⊗ I for a sparse operator given in
    COO form over the d^w window space."""
    region = tuple(sorted(region))
    pw = _cell_powers(d, w)
    comp = [i for i in range(w) if i not in region]
    dc = d ** len(comp)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.complex128)
    if len(vals) == 0:
        return 0.0

    def split(ix):
        kept = np.zeros(len(ix), dtype=np.int64)
        rest = np.zeros(len(ix), dtype=np.int64)
        for pos in region:
            kept = kept * d + (ix // pw[pos]) % d
        for pos in comp:
            rest = rest * d + (ix // pw[pos]) % d
        return kept, rest

    rk, rc = split(rows)
    ck, cc = split(cols)
    diag = rc == cc
    dk = d ** len(region)
    keys = rk * dk + ck
    dkeys = keys[diag]
    uniq, inverse = np.unique(dkeys, return_inverse=True)
    sums = (np.bincount(inverse, weights=vals[diag].real)
            + 1j * np.bincount(inverse, weights=vals[diag].imag))
    counts = np.bincount(inverse)
    b_vals = sums / dc
    # deviation of present entries from the M ⊗ I pattern
    expected = np.zeros(len(vals), dtype=np.complex128)
    pos = np.searchsorted(uniq, keys)
    pos_ok = (pos < len(uniq))
    match = np.zeros(len(vals), dtype=bool)
    match[pos_ok] = uniq[pos[pos_ok]] == keys[pos_ok]
    sel = diag & match
    expected[sel] = b_vals[pos[sel]]
    resid = float(np.max(np.abs(vals - expected)))
    # pattern entries of M ⊗ I with no data present
    missing = counts < dc
    if np.any(missing):
        resid = max(resid, float(np.max(np.abs(b_vals[missing]))))
    return resid


# ------------------------------------------------------------ neighborhood

def _boundary_margin(op: WindowOperator) -> int:
    return 0 if op.boundary == "periodic" else 1


def default_center(op: WindowOperator) -> int:
    return (op.width - 1) // 2


def max_testable_radius(op: WindowOperator, cell: int | None = None) -> int:
    """Largest radius whose candidate regions stay inside the window with
    the boundary margin."""
    cc = default_center(op) if cell is None else cell
    margin = _boundary_margin(op)
    return min(cc - margin, op.width - 1 - margin - cc - 1)


def _candidate_intervals(max_radius: int):
    lo_min, hi_max = -max_radius, max_radius + 1
    for width in range(1, hi_max - lo_min + 2):
        for lo in range(lo_min, hi_max - width + 2):
            yield (lo, lo + width - 1)


def neighborhood(op: WindowOperator, max_radius: int = 1,
                 tol: float = la.DEFAULT_TOL, cell: int | None = None,
                 make_witness: bool = True) -> NeighborhoodReport:
    """Smallest offset interval N within [-max_radius, max_radius+1] such
    that every conjugated matrix unit at the probed output cell is
    localized on it; reports a non-locality witness otherwise.

    Offsets are relative to the probed output cell in true coordinates
    (the operator's out_shift relabel is compensated).  Only proper
    subintervals of the window count: localization on the whole window is
    vacuous and can never support a locality claim.
    """
    cc = default_center(op) if cell is None else cell
    if max_radius < 0:
        raise PreconditionViolated("max_radius must be nonnegative")
    if max_radius > max_testable_radius(op, cc):
        raise WindowTooSmall(
            f"radius {max_radius} exceeds the testable slack "
            f"{max_testable_radius(op, cc)} for a width-{op.width} "
            f"{op.boundary} window probed at cell {cc}")
    d, w = op.alphabet.d, op.width
    unit = _unit_conjugation(op, cc, forward=False)
    # a candidate covering the whole window is vacuous: every operator is
    # "localized" there, so it can never support a locality claim
    candidates = sorted((c for c in _candidate_intervals(max_radius)
                         if cc + c[0] >= 0 and cc + c[1] <= w - 1
                         and c[1] - c[0] + 1 < w),
                        key=lambda c: (c[1] - c[0], c[0]))
    alive = candidates
    # units stream outer, each dropping the candidates it fails on; the
    # unit (l, k) is the adjoint of (k, l) and has the same residuals
    for k, l in combinations_with_replacement(range(d), 2):
        if not alive:
            break
        t = unit(k, l)
        alive = [c for c in alive
                 if fast_localization_residual(t, d, w, range(cc + c[0], cc + c[1] + 1))
                 <= tol]
    probe_cell = cc + op.out_shift
    if alive:
        lo, hi = alive[0]
        return NeighborhoodReport(
            True, (lo - op.out_shift, hi - op.out_shift), None, max_radius, probe_cell)
    witness = None
    if make_witness:
        units = {kl: unit(*kl) for kl in combinations_with_replacement(range(d), 2)}
        # demonstrate the failure on a tested region: widest first, so the
        # witness states agree on as much of the window as possible
        for lo, hi in sorted(candidates, key=lambda c: c[0] - c[1]):
            region = range(cc + lo, cc + hi + 1)
            witness = _nonlocality_witness(op, cc, units, region, tol)
            if witness is not None:
                break
    return NeighborhoodReport(False, None, witness, max_radius, probe_cell)


def check_inverse_locality(op: WindowOperator, interval: tuple[int, int],
                           tol: float = la.DEFAULT_TOL, cell: int | None = None) -> bool:
    """Mirror property: if backward conjugation lands in N, forward
    conjugation of every unit must land in -N (true-cell offsets)."""
    cc = default_center(op) if cell is None else cell
    d, w = op.alphabet.d, op.width
    lo, hi = interval
    # translate true offsets to window offsets for the forward direction:
    # forward probes an input cell and looks at output cells, so the window
    # region is mirrored and shifted by out_shift.
    wlo, whi = -hi + op.out_shift, -lo + op.out_shift
    if cc + wlo < 0 or cc + whi > w - 1:
        raise WindowTooSmall(
            f"mirrored region [{wlo}, {whi}] does not fit the window at cell {cc}")
    region = range(cc + wlo, cc + whi + 1)
    unit = _unit_conjugation(op, cc, forward=True)
    return all(fast_localization_residual(unit(k, l), d, w, region) <= tol
               for k, l in combinations_with_replacement(range(d), 2))


# ------------------------------------------------------- witness machinery

def _window_basis_state(alphabet: Alphabet, d: int, w: int, index: int,
                        amps: dict[int, complex] | None = None) -> SparseState:
    terms = {}
    items = amps.items() if amps is not None else [(index, 1.0)]
    for ix, amp in items:
        word = [(ix // d ** (w - 1 - i)) % d for i in range(w)]
        terms[Configuration.make(0, word)] = amp
    return SparseState(alphabet, terms)


def _entries_to_blocks(entry, d, w, region):
    """Group operator entries by their region (row, col) pattern; values are
    dicts over the complement indices."""
    region = tuple(sorted(region))
    comp = [i for i in range(w) if i not in region]
    pw = _cell_powers(d, w)
    if isinstance(entry, tuple):
        rows, cols, vals = entry
    else:
        rows, cols = np.nonzero(np.abs(entry) > 1e-14)
        vals = entry[rows, cols]

    def split(ix):
        kept = 0
        rest = 0
        for pos in region:
            kept = kept * d + (ix // pw[pos]) % d
        for pos in comp:
            rest = rest * d + (ix // pw[pos]) % d
        return kept, rest

    blocks: dict[tuple[int, int], dict[tuple[int, int], complex]] = defaultdict(dict)
    for r, c, v in zip(rows, cols, vals):
        (rk, rc), (ck, cc2) = split(int(r)), split(int(c))
        blocks[(rk, ck)][(rc, cc2)] = blocks[(rk, ck)].get((rc, cc2), 0.0) + v
    return blocks, comp


def _comp_index_to_window(index: int, comp: list[int], region, d: int, w: int,
                          kept_index: int) -> int:
    """Window basis index with the given complement and region digit values."""
    digits = [0] * w
    rdigits = []
    ki = kept_index
    for _ in region:
        rdigits.append(ki % d)
        ki //= d
    for pos, dig in zip(sorted(region), reversed(rdigits)):
        digits[pos] = dig
    ci = index
    cdigits = []
    for _ in comp:
        cdigits.append(ci % d)
        ci //= d
    for pos, dig in zip(comp, reversed(cdigits)):
        digits[pos] = dig
    out = 0
    for dig in digits:
        out = out * d + dig
    return out


def _nonlocality_witness(op: WindowOperator, cc: int, units, region,
                         tol: float) -> Witness | None:
    """Construct a state pair with equal restrictions on the tested region
    whose images differ at the probed cell, from a block of a conjugated
    Hermitian probe that is not a multiple of the identity.  ``units`` maps
    (k, l) with k <= l to the backward-conjugated matrix unit."""
    d, w = op.alphabet.d, op.width
    region = tuple(sorted(region))
    dc = d ** (w - len(region))
    # Hermitian probes: diagonal units and Hermitian/anti-Hermitian
    # combinations of off-diagonal ones; the unit (l, k) is the adjoint of
    # (k, l).
    combos = [[(1.0, entry)] for (k, l), entry in units.items() if k == l]
    for (k, l), entry in units.items():
        if k < l:
            partner = _adjoint(entry)
            combos.append([(0.5, entry), (0.5, partner)])
            combos.append([(0.5j, entry), (-0.5j, partner)])

    def merge(parts):
        if isinstance(parts[0][1], tuple):
            rows = np.concatenate([p[1][0] for p in parts])
            cols = np.concatenate([p[1][1] for p in parts])
            vals = np.concatenate([np.asarray(p[1][2]) * p[0] for p in parts])
            return rows, cols, vals
        return sum(p[0] * p[1] for p in parts)

    for parts in combos:
        t = merge(parts)
        blocks, comp = _entries_to_blocks(t, d, w, region)
        for (rk, ck), block in blocks.items():
            cand = _block_witness_vectors(block, dc)
            if cand is None:
                continue
            x_vec, y_vec = cand
            amps_a = {}
            amps_b = {}
            for (m_idx, amp) in x_vec.items():
                wa = _comp_index_to_window(m_idx, comp, region, d, w, rk)
                amps_a[wa] = amps_a.get(wa, 0.0) + amp / np.sqrt(2)
                wb = _comp_index_to_window(m_idx, comp, region, d, w, ck)
                amps_a[wb] = amps_a.get(wb, 0.0) + amp / np.sqrt(2)
            for (m_idx, amp) in y_vec.items():
                wa = _comp_index_to_window(m_idx, comp, region, d, w, rk)
                amps_b[wa] = amps_b.get(wa, 0.0) + amp / np.sqrt(2)
                wb = _comp_index_to_window(m_idx, comp, region, d, w, ck)
                amps_b[wb] = amps_b.get(wb, 0.0) + amp / np.sqrt(2)
            if rk == ck:
                amps_a = {k2: v * np.sqrt(2) / 2 for k2, v in amps_a.items()}
                amps_b = {k2: v * np.sqrt(2) / 2 for k2, v in amps_b.items()}
            state_a = _window_basis_state(op.alphabet, d, w, 0, amps_a).normalized()
            state_b = _window_basis_state(op.alphabet, d, w, 0, amps_b).normalized()
            context = tuple(region)
            ra = restrict_state(state_a, context)
            rb = restrict_state(state_b, context)
            if la.max_norm(ra - rb) > 1e-10:
                continue
            probe = cc + op.out_shift
            img_a = apply_window(op, state_a, offset=0, strict=False)
            img_b = apply_window(op, state_b, offset=0, strict=False)
            dist = la.trace_distance(restrict_state(img_a, {probe}),
                                     restrict_state(img_b, {probe}))
            if dist > tol:
                return Witness(state_a, state_b, probe, float(dist), context)
    return None


def _block_witness_vectors(block: dict[tuple[int, int], complex], dc: int):
    """Two complement-space unit vectors with different expectations of the
    given block, if the block is not a multiple of the identity."""
    # diagonal spread
    diag = {m: v for (m, m2), v in block.items() if m == m2}
    present = len(diag)
    vals = list(diag.values())
    if present < dc and any(abs(v) > 1e-10 for v in vals):
        m_nonzero = max(diag, key=lambda m: abs(diag[m]))
        missing = next(m for m in range(dc) if m not in diag)
        return {m_nonzero: 1.0}, {missing: 1.0}
    if vals and (max(v.real for v in vals) - min(v.real for v in vals)) > 1e-10:
        hi = max(diag, key=lambda m: diag[m].real)
        lo = min(diag, key=lambda m: diag[m].real)
        return {hi: 1.0}, {lo: 1.0}
    # off-diagonal entry: superpose the two involved basis vectors
    for (m, m2), v in block.items():
        if m != m2 and abs(v) > 1e-10:
            phase = np.conj(v) / abs(v)
            return ({m: 1 / np.sqrt(2), m2: phase / np.sqrt(2)},
                    {m: 1 / np.sqrt(2), m2: -phase / np.sqrt(2)})
    return None


# --------------------------------------------------------------- signalling

def detect_signalling(evolution, state_a: SparseState, state_b: SparseState,
                      probe_cell: int, context_cells,
                      tol: float = la.DEFAULT_TOL) -> Witness | None:
    """Trace distance at the probe cell between the images of two states
    whose restrictions to the context cells coincide.

    Returns a Witness when the distance exceeds tol (a locality violation),
    None otherwise.  ``evolution`` may be a WindowOperator, a BlockQCA, or a
    ClassicalRule (applied by linear extension).
    """
    context = tuple(sorted(int(c) for c in context_cells))
    ra = restrict_state(state_a, context)
    rb = restrict_state(state_b, context)
    defect = la.max_norm(ra - rb)
    if defect > tol:
        raise PreconditionViolated(
            f"context restrictions differ by {defect:.2e} > tol")

    if isinstance(evolution, WindowOperator):
        offset = fit_offset(evolution, [state_a.support(), state_b.support()],
                            extra_cells=list(context) + [probe_cell])
        img_a = apply_window(evolution, state_a, offset)
        img_b = apply_window(evolution, state_b, offset)
    elif isinstance(evolution, BlockQCA):
        img_a = apply_block(state_a, evolution)
        img_b = apply_block(state_b, evolution)
    elif isinstance(evolution, ClassicalRule):
        img_a = evolution.apply(state_a)
        img_b = evolution.apply(state_b)
    else:
        raise PreconditionViolated(f"cannot evolve with a {type(evolution).__name__}")
    dist = la.trace_distance(restrict_state(img_a, {probe_cell}),
                             restrict_state(img_b, {probe_cell}))
    if dist > tol:
        return Witness(state_a, state_b, probe_cell, float(dist), context)
    return None


# ------------------------------------------------------- block-native path

def block_conjugated_unit(g: BlockQCA, e: np.ndarray, forward: bool) -> np.ndarray:
    """Conjugation of a single-cell operator through one step of a block
    automaton, computed on the minimal two-cell patch.

    Backward (G† e G): result acts on input cells (c, c+1).
    Forward (G e G†): result acts on output cells (c-1, c).
    """
    u, v, p, q = g.u, g.v, g.p, g.q
    if forward:
        y = u @ e @ la.dagger(u)  # on (a_c, b_c), dims (q, p)
        emb = la.embed_on_factors(y, (p, q, p, q), {1, 2})
        vv = la.kron(v, v)
        return vv @ emb @ la.dagger(vv)
    x = la.dagger(v) @ e @ v  # on (b_c, a_{c+1}), dims (p, q)
    emb = la.embed_on_factors(x, (q, p, q, p), {1, 2})
    uu = la.kron(u, u)
    return la.dagger(uu) @ emb @ uu


def block_neighborhood(g: BlockQCA, tol: float = la.DEFAULT_TOL) -> NeighborhoodReport:
    """Neighborhood of a block automaton from the analytic two-cell
    conjugation: always a subset of {0, 1}."""
    d = g.d
    best = None
    for cand in [(0, 0), (1, 1), (0, 1)]:
        ok = True
        for _, _, e in la.matrix_units(d):
            t = block_conjugated_unit(g, e, forward=False)
            region = set(range(cand[0], cand[1] + 1))
            if la.localization_residual(t, (d, d), region) > tol:
                ok = False
                break
        if ok:
            best = cand
            break
    if best is None:
        # cannot happen for a well-formed block automaton
        return NeighborhoodReport(False, None, None, 1, 0)
    return NeighborhoodReport(True, best, None, 1, 0)


def block_inverse_locality(g: BlockQCA, interval: tuple[int, int],
                           tol: float = la.DEFAULT_TOL) -> bool:
    """Forward conjugations land in -N; computed on the two-cell patch
    covering output cells (c-1, c)."""
    d = g.d
    lo, hi = interval
    # target region -N intersected with the patch cells {-1, 0}
    region = set()
    for off in range(-hi, -lo + 1):
        if off in (-1, 0):
            region.add(off + 1)  # patch coordinates: cell c-1 -> 0, cell c -> 1
    for _, _, e in la.matrix_units(d):
        t = block_conjugated_unit(g, e, forward=True)
        if la.localization_residual(t, (d, d), region) > tol:
            return False
    return True
