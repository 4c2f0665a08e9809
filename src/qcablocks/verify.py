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
WindowOperator).  Dense windows conjugate a matrix unit from the parts of
G split by the cell's digit: forward T_kl = S_k S_l† with S_k the columns
of G whose cell digit is k, backward T_kl = R_k† R_l with R_k its rows
whose cell digit is k, so neither direction copies or conjugates the whole
window.  A dense unit is never held whole either: it is produced one row
block at a time and scored on every candidate region in the same pass
(linalg.localization_defects), so T_00 is formed once for all regions;
the other generators are bounded from the parts of G alone (below).
One-hot windows (quantized classical rules) are basis permutations: their
conjugations only reindex, with every value 1, and read just the n/d
inputs a unit needs, so windows far beyond the dense cap stay cheap; their
backward direction is the forward one on the adjoint, the inverse column
map.  fast_localization_residual is the one residual entry point for
both formats, and takes a list of regions for both.

Locality on R needs every unit T_kl = P_k† P_l within tol of P(T_kl) in
the max-norm, with P_k = S_k† (backward R_k) an (n/d) x n matrix whose
columns are the window words and P the diagonal-block mean over the
complement C of R (a contraction and an M_R-bimodule map); T_lk = T_kl†
has the same defect, so the units with k <= l suffice.  T_00 is formed
once and tested on every region.  On a survivor, a dense window bounds
every other unit without forming it, from the intertwiners Y_k =
Tr_C(T_0k)/d_C and the remainders Δ_k = P_k - P_0 (Y_k ⊗ I_C), with Y_0 = I
and Δ_0 = 0, both (n/d) x n:

    T_kl = (Y_k ⊗ I)† T_00 (Y_l ⊗ I) + (P_0 (Y_k ⊗ I))† Δ_l
           + Δ_k† P_0 (Y_l ⊗ I) + Δ_k† Δ_l.

P takes the first term to (Y_k ⊗ I)† P(T_00) (Y_l ⊗ I), and ||X - P(X)||_max
<= 2 ||X||_max, so by Cauchy-Schwarz, without assuming unitarity,

    ||T_kl - P(T_kl)||_max <= y_k y_l ε_0 + 2 (a_k δ_l + a_l δ_k + δ_k δ_l),

with y_k, a_k and δ_k the largest column 2-norms of Y_k, P_0 (Y_k ⊗ I) and
Δ_k, and ε_0 the HS norm of T_00 - P(T_00) (the T_00 pass returns it).
This costs n·d_R·n/d multiply-adds per k where forming T_0k costs n³/d.  A
local window has Δ_k = 0, since P_k = P_0 T_0k when P_0 P_0† = I.  A
one-hot window forms its generators T_0l instead, n/d entries each, and
the first above tol refutes R; a permutation has S_0† S_0 = I, so T_kl =
T_k0 T_0l, and splitting each factor X into P(X) and X - P(X) bounds every
unit by 2e + 2e², e the largest generator HS defect.  A bound within tol
proves R; otherwise, and for a merging one-hot map, which has no bound,
the units with k <= l, generators first, decide, so every verdict is the
exhaustive one.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

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
    SparseState,
    WindowOperator,
    apply_block,
    apply_window,
    fit_offset,
    restrict_state,
    window_digits,
    window_index,
    window_rotation,
    window_split,
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

def is_injective(idx: np.ndarray) -> bool:
    """Whether the nonnegative integers ``idx`` are pairwise distinct, so a
    one-hot column map of n inputs into n rows is a permutation.  Counted
    by np.bincount: np.unique imports numpy.ma on first use."""
    return len(idx) == 0 or int(np.bincount(idx).max()) <= 1


# ------------------------------------------------------------ unitarity

def check_unitary(op: WindowOperator, tol: float = la.DEFAULT_TOL) -> bool:
    """Whether the window matrix is unitary within tol."""
    if op.is_one_hot:
        return is_injective(op.matrix)
    return la.is_unitary(op.dense(), tol)


# ------------------------------------------------------ shift invariance

def check_shift_invariance(op: WindowOperator, tol: float = la.DEFAULT_TOL,
                           shift: int = 0) -> bool:
    """Compare the action on configurations supported on the interior with
    the one-cell-shifted action.  Columns for words on cells [1, w-2] are
    matched against shifted columns for the same words on [2, w-1].

    ``shift`` tests the window composed with the cyclic shift of its output
    cells by that many cells (content moves left for shift > 0): only the
    compared columns are read, with their rows rotated, so no rotated copy
    of the window exists."""
    w, d = op.width, op.alphabet.d
    if w < 3:
        raise WindowTooSmall("shift invariance needs a window of at least 3 cells")
    interior = np.arange(d ** (w - 2), dtype=np.int64) * d  # words on cells [1, w-2]
    shifted_cols = interior // d  # same words moved one cell right

    if op.is_one_hot:
        # the rotation is applied to the n/d² images compared, not built
        img = window_rotation(d, w, shift, op.matrix[interior])
        return bool(np.all(img % d == 0)) and np.array_equal(
            img // d, window_rotation(d, w, shift, op.matrix[shifted_cols]))

    mat = op.dense()
    rows = np.arange(op.dim, dtype=np.int64)
    movable = rows % d == 0
    # the rotated window's row r is the window's row src[r]
    src = window_rotation(d, w, -shift)
    cols = mat[:, interior][src]
    cols_shift = mat[:, shifted_cols][src]
    leak = float(np.max(np.abs(cols[~movable, :]))) if np.any(~movable) else 0.0
    if leak > tol:
        return False
    expected = np.zeros_like(cols_shift)
    expected[rows[movable] // d, :] = cols[movable, :]
    return float(np.max(np.abs(expected - cols_shift))) <= tol


# ------------------------------------------------- conjugated cell units

def _one_hot_conjugation(rows: np.ndarray, d: int, w: int, cell: int, k: int, l: int):
    """COO triple of G (E_kl ⊗ I) G† for the one-hot window G|x> = |rows[x]>:
    entries 1 at (rows[x], rows[x']) for each input x with cell digit k and
    its partner x' with digit l, the same index moved by (l - k) digit
    places.  The n/d inputs with digit k are generated from their place
    values in increasing order (higher cells, then lower ones), so no
    window-length array is built."""
    pw = d ** (w - 1 - cell)
    src_k = ((np.arange(d**cell, dtype=np.int64)[:, None] * d + k) * pw
             + np.arange(pw, dtype=np.int64)).ravel()
    src_l = src_k + (l - k) * pw
    return rows[src_k], rows[src_l], np.ones(len(src_k), dtype=np.int64)


def _one_hot_adjoint(rows: np.ndarray) -> np.ndarray:
    """The adjoint of a one-hot window, again a column map: the inverse of
    ``rows``.  Exists only for a bijective column map."""
    n = len(rows)
    if not is_injective(rows):
        raise PreconditionViolated(
            "locality analysis needs a unitary window; this one-hot "
            "operator is not injective")
    inv = np.empty(n, dtype=np.int64)
    inv[rows] = np.arange(n, dtype=np.int64)
    return inv


def _dense_units(mat: np.ndarray, d: int, lead: int, forward: bool):
    """Unit conjugation from the parts of ``mat`` split by one digit of size
    d, with ``lead`` the size of the index before it, as _unit_conjugation's
    (unit, verdict) pair.  Both directions are T_kl = P_k† P_l: forward
    T_kl = S_k S_l† with S_k the columns whose digit is k and P_k = S_k†;
    backward T_kl = R_k† R_l with R_k the rows whose digit is k and P_k =
    R_k.  ``unit(k, l)`` copies P_l once (forward: the conjugate of S_l,
    used transposed) and returns rows -> those rows of T_kl, P_k[:, rows]†
    P_l, each call reading its slice of P_k from ``mat`` (no argument: the
    whole unit).  The verdict proves a region where the intertwiner bound
    (_intertwiner_bound) is within tol and leaves it undecided otherwise."""
    r, c = mat.shape
    split = mat.reshape(r, lead, d, -1) if forward else mat.reshape(lead, d, -1, c)
    tail = (c if forward else r) // (lead * d)
    blocks = la.row_blocks(lead * tail)

    def parts_rows(rows):  # P_k[rows] for every k, as (d, rows, columns)
        i = np.arange(rows.start, rows.stop)
        at = (i // tail * d + np.arange(d)[:, None]) * tail + i % tail
        return np.conj(mat[:, at].transpose(1, 2, 0)) if forward else mat[at]

    def adjoint_rows(k, rows):  # P_k[:, rows]†
        if forward:
            return split[rows, :, k].reshape(-1, c // d)
        return np.conj(split[:, k, :, rows]).reshape(r // d, -1).T

    def unit(k, l):
        right = (np.conj(split[:, :, l]).reshape(r, -1).T if forward
                 else np.ascontiguousarray(split[:, l]).reshape(-1, c))  # P_l
        return lambda rows=slice(None): adjoint_rows(k, rows) @ right

    def verdict(w, region, eps0, tol):
        return _intertwiner_bound(parts_rows, blocks, d, w, region, eps0) <= tol or None

    return unit, verdict


def _intertwiner_bound(parts_rows, blocks, d: int, w: int, region, eps0: float) -> float:
    """Upper bound on the max-norm defect T_kl - P(T_kl) on ``region`` of
    every unit but T_00, without forming any: the bound of the module
    docstring, from Y_k = Tr_C(T_0k)/d_C and Δ_k = P_k - P_0 (Y_k ⊗ I_C), with
    ε_0 = ``eps0`` T_00's HS defect.  ``parts_rows(rows)`` gathers the rows
    of every P_k in one of ``blocks``; the columns of P are the d^w window
    words.  Two passes over the row blocks, the first summing every Y_k, the
    second the column norms of P_0 (Y_k ⊗ I) and Δ_k, so no (n/d) x n array
    is held; a block is read with its columns ordered (region, complement),
    and n·d_R·n/d multiply-adds per pass and k do what forming T_0k does in
    n³/d."""
    region = sorted(set(region))
    comp = [i for i in range(w) if i not in region]
    dr, dc = d ** len(region), d ** len(comp)
    axes = [0, *(2 + i for i in region), 1, *(2 + i for i in comp)]

    def gather(rows):  # P_k[rows] as (k, region column, row · complement column)
        return parts_rows(rows).reshape(d, -1, *(d,) * w).transpose(axes).reshape(d, dr, -1)

    def column_sq(a):  # squared column norms of such rows, (..., region, complement)
        return np.sum((a.real**2 + a.imag**2).reshape(*a.shape[:-1], -1, dc), axis=-2)

    yt = np.zeros((d, dr, dr), dtype=np.complex128)  # Y_k^T
    for rows in blocks:
        p = gather(rows)
        yt[1:] += p[1:] @ np.conj(p[0]).T
    yt /= dc
    yt[0] = np.eye(dr)
    asq, dsq = np.zeros((2, d, dr, dc))  # of P_0 (Y_k ⊗ I) and Δ_k
    for rows in blocks:
        p = gather(rows)
        p0y = yt @ p[0]
        asq += column_sq(p0y)
        dsq += column_sq(p - p0y)
    y = np.sqrt(np.max(np.sum(yt.real**2 + yt.imag**2, axis=2), axis=1))  # columns of Y_k
    a, dl = np.sqrt(np.max(asq, axis=(1, 2))), np.sqrt(np.max(dsq, axis=(1, 2)))
    bound = eps0 * np.outer(y, y) + 2 * (np.outer(a, dl) + np.outer(dl, a) + np.outer(dl, dl))
    bound[0, 0] = 0.0  # T_00's own defect is known exactly
    return float(np.max(bound))


def _unit_conjugation(op: WindowOperator, cell: int, forward: bool):
    """Conjugated matrix units at ``cell`` as a pair (unit, verdict).
    ``unit`` maps (k, l) to T_kl, forward G (E_kl ⊗ I) G† or backward G†
    (E_kl ⊗ I) G: a COO triple for a one-hot window, otherwise a function of
    a row slice (_dense_units) that yields the unit's rows, so no dense unit
    need exist whole.  ``verdict(w, region, ε_0, tol)`` decides a region on
    which T_00 is localized with HS defect ε_0: True when every unit is
    within tol, False when one is not, None when the units must decide."""
    d, w = op.alphabet.d, op.width
    if not op.is_one_hot:
        return _dense_units(op.dense(), d, d**cell, forward)
    rows = op.matrix if forward else _one_hot_adjoint(op.matrix)
    bijective = not forward or is_injective(rows)  # _one_hot_adjoint admits only bijections

    def unit(k, l):
        t = _one_hot_conjugation(rows, d, w, cell, k, l)
        if bijective:
            return t
        # a merging map sends several input pairs to one entry: add them up
        keys = t[0] * len(rows) + t[1]
        ids = _group_ids(keys)
        entry = np.empty(ids.max() + 1, dtype=np.int64)
        entry[ids] = keys
        return *np.divmod(entry, len(rows)), np.bincount(ids)

    def verdict(w, region, eps0, tol):
        if not bijective:
            return None  # a merging map has no bound
        # the generators are n/d entries each: formed, not bounded
        e = eps0
        for l in range(1, d):
            [(resid, hs)] = fast_localization_residual(unit(0, l), d, w, [region])
            if resid > tol:
                return False  # a generator is itself a unit: the region fails
            e = max(e, hs)
        return 2 * e + 2 * e * e <= tol or None

    return unit, verdict


def fast_localization_residual(t, d: int, w: int, regions) -> list[tuple[float, float]]:
    """Localization defect of an operator on the d^w window on every region
    in ``regions``, in one pass over t: the max-norm of t - P(t), which
    verdicts compare with tol, and its HS norm, which bounds the operator
    norm.  A dense t is a function of a row slice (_dense_units), streamed in
    linalg.row_blocks through linalg.localization_defects, so only one row
    block of it exists at a time; a COO triple (rows, cols, vals) goes to
    the sparse kernel, which splits its indices into digits once for all
    regions.  Both norms are adjoint-invariant: the projection P onto
    M_region ⊗ I commutes with †."""
    if isinstance(t, tuple):
        return _coo_localization_residual(*t, d, w, regions)
    return la.localization_defects(((rows.start, t(rows)) for rows in la.row_blocks(d**w)),
                                   (d,) * w, regions)


def _coo_localization_residual(rows, cols, vals, d: int, w: int,
                               regions) -> list[tuple[float, float]]:
    """Max-norm and HS norm of t - P(t) on each region for a one-hot unit t
    over the d^w window space, in COO form: distinct positions, each holding
    a count (1, or the number of input pairs a merging map sends there).

    P(t) is the complement-diagonal mean: the entries whose row and column
    digits agree on every complement cell (one per-entry mask of agreeing
    cells, made once for all regions) are grouped by their region pattern
    (row, column), and a group of c entries summing to S of its d_C
    positions has mean B = S/d_C.  Its entries deviate by v - B, its d_C - c
    absent positions by B, and entries off the complement diagonal by v.
    Groups are counted by np.bincount over the d_R² patterns where that key
    space is at most the entry count, else by sorting.  Where every count
    is 1 (a bijective map) both norms come from the group counts alone;
    nothing is complex.

    A 0/1 unit (a partial permutation, say) reads exactly 0 or at least 1/2:
    an entry off the complement diagonal reads 1, and a group holding c of
    its d_C positions reads max(1 - c/d_C, c/d_C), which is 0 at c = d_C
    and at least 1/2 for 0 < c < d_C."""
    vals = np.asarray(vals)
    if len(vals) == 0:
        return [(0.0, 0.0) for _ in regions]
    row_digits, col_digits = window_digits(rows, d, w), window_digits(cols, d, w)
    agree = row_digits == col_digits
    ones = bool(np.all(vals == 1))
    out = []
    for region in regions:
        region = sorted(set(region))
        dr, dc = d ** len(region), d ** (w - len(region))
        on = np.ones(len(vals), dtype=bool)
        for cell in set(range(w)) - set(region):
            on &= agree[cell]
        # the region pattern (row, column) of each entry on the diagonal
        keys = np.zeros(len(vals), dtype=np.int64)
        for digits in (row_digits, col_digits):
            for cell in region:
                keys *= d
                keys += digits[cell]
        keys = keys[on]
        # a group per pattern (empty ones included), or per pattern present
        ids = keys if dr * dr <= len(vals) else _group_ids(keys)
        counts = np.bincount(ids)
        missing = dc - counts
        if ones:
            mean = counts / dc
            off_max, off_sq = float(len(keys) < len(vals)), len(vals) - len(keys)
            dev = np.abs(1 - mean[counts > 0])
            dev_sq = np.sum(counts * (1 - mean) ** 2)
        else:
            mean = np.bincount(ids, weights=vals[on]) / dc
            off = vals[~on].astype(np.float64)
            off_max, off_sq = np.max(off, initial=0.0), np.sum(off**2)
            dev = np.abs(vals[on] - mean[ids])
            dev_sq = np.sum(dev**2)
        resid = max(off_max, np.max(dev, initial=0.0), np.max(mean[missing > 0], initial=0.0))
        out.append((float(resid), float(np.sqrt(off_sq + dev_sq + np.sum(missing * mean**2)))))
    return out


def _group_ids(keys: np.ndarray) -> np.ndarray:
    """Group index of each key, groups numbered in key order (np.unique's
    inverse, without the numpy.ma import np.unique makes)."""
    order = np.argsort(keys, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(np.concatenate(([True], np.diff(keys[order]) != 0))) - 1
    return inverse


def _first_localized(units, d: int, w: int, regions, tol: float) -> int | None:
    """Index of the first region on which every conjugated unit is
    localized within tol, or None; ``units`` is a (unit, verdict) pair from
    _unit_conjugation.  T_00 is formed once and tested on every region in
    one pass.  On each survivor in turn the verdict decides, and where it
    cannot, the units T_kl with k <= l, generators first, are formed one
    alive at a time and scored until one fails."""
    unit, verdict = units
    rest = [(k, l) for k in range(d) for l in range(max(k, 1), d)]
    for i, (resid, eps0) in enumerate(fast_localization_residual(unit(0, 0), d, w, regions)):
        local = resid <= tol and verdict(w, regions[i], eps0, tol)
        if local is None:
            local = all(fast_localization_residual(unit(k, l), d, w, [regions[i]])[0][0] <= tol
                        for k, l in rest)
        if local:
            return i
    return None


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
    vacuous and can never support a locality claim.  _first_localized
    decides: on a local window one residual pass over T_00 and the
    intertwiner bound (dense) or d residual passes (one-hot permutation);
    only the witness of a non-local verdict needs whole units, built one
    probe at a time.
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
    units = _unit_conjugation(op, cc, forward=False)
    # a candidate covering the whole window is vacuous: every operator is
    # "localized" there, so it can never support a locality claim
    candidates = sorted((c for c in _candidate_intervals(max_radius)
                         if cc + c[0] >= 0 and cc + c[1] <= w - 1
                         and c[1] - c[0] + 1 < w),
                        key=lambda c: (c[1] - c[0], c[0]))
    # localization is monotone in the region, so the first candidate in
    # (width, lo) order that passes is the smallest
    found = _first_localized(units, d, w, [range(cc + lo, cc + hi + 1)
                                           for lo, hi in candidates], tol)
    probe_cell = cc + op.out_shift
    if found is not None:
        lo, hi = candidates[found]
        return NeighborhoodReport(
            True, (lo - op.out_shift, hi - op.out_shift), None, max_radius, probe_cell)
    witness = None
    if make_witness:
        # demonstrate the failure on a tested region: widest first, so the
        # witness states agree on as much of the window as possible
        for lo, hi in sorted(candidates, key=lambda c: c[0] - c[1]):
            region = range(cc + lo, cc + hi + 1)
            witness = _nonlocality_witness(op, cc, units[0], region, tol)
            if witness is not None:
                break
    return NeighborhoodReport(False, None, witness, max_radius, probe_cell)


def check_inverse_locality(op: WindowOperator, interval: tuple[int, int],
                           tol: float = la.DEFAULT_TOL, cell: int | None = None) -> bool:
    """Mirror property: if backward conjugation lands in N, forward
    conjugation of every unit must land in -N (true-cell offsets), decided
    by _first_localized on that one region: for a dense window one residual
    pass over T_00 and the intertwiner bound when it holds, for a one-hot
    permutation d residual passes, T_00 and the generators."""
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
    return _first_localized(_unit_conjugation(op, cc, forward=True),
                            d, w, [region], tol) is not None


# ------------------------------------------------------- witness machinery

def _window_state(alphabet: Alphabet, w: int, amps: dict[int, complex]) -> SparseState:
    """The state sum amps[ix] |ix> of window basis vectors, cell 0 at
    position 0."""
    return SparseState._from_arrays(
        alphabet, np.zeros(len(amps), dtype=np.int64),
        window_digits(list(amps), alphabet.d, w).T,
        np.array(list(amps.values()), dtype=np.complex128))


def _entries_to_blocks(entry, d, w, region):
    """Group the entries of a COO operator by their region (row, col)
    pattern, in order of first entry; values are dicts over the complement
    indices."""
    rows, cols, vals = entry
    rk, rc = window_split(window_digits(rows, d, w), d, region)
    ck, cc = window_split(window_digits(cols, d, w), d, region)
    blocks: dict[tuple[int, int], dict[tuple[int, int], complex]] = defaultdict(dict)
    for a, b, c, e, v in zip(rk.tolist(), rc.tolist(), ck.tolist(), cc.tolist(), vals):
        blocks[(a, c)][(b, e)] = blocks[(a, c)].get((b, e), 0.0) + v
    return blocks.items()


def _dense_blocks(t: np.ndarray, d: int, w: int, region):
    """The region blocks of a dense operator as _entries_to_blocks gives them,
    read off one transposed (region row, region col, complement row,
    complement col) copy of t in (region row, region col) order; blocks
    without entries are skipped."""
    comp = [i for i in range(w) if i not in region]
    dk, dc = d ** len(region), d ** len(comp)
    x = t.reshape((d,) * (2 * w)).transpose(
        [*region, *(w + i for i in region), *comp, *(w + i for i in comp)])
    x = x.reshape(dk, dk, dc, dc)
    for rk in range(dk):
        for ck in range(dk):
            m, m2 = np.nonzero(np.abs(x[rk, ck]) > 1e-14)
            if len(m):
                yield (rk, ck), dict(zip(zip(m.tolist(), m2.tolist()),
                                         x[rk, ck, m, m2].tolist()))


def _hermitian_probes(unit, d: int):
    """The Hermitian probes of the witness search, in its order, each built
    from its unit only when reached: the diagonal units T_kk, then for
    k < l the two probes c T_kl + (c T_kl)† with c = 1/2 and c = i/2.  A
    probe is a COO triple or a dense array, as the units are."""
    for k in range(d):
        t = unit(k, k)
        t = t if isinstance(t, tuple) else t()
        yield t
    for k in range(d):
        for l in range(k + 1, d):
            for scale in (0.5, 0.5j):
                t = unit(k, l)
                if isinstance(t, tuple):
                    rows, cols, vals = t
                    vals = np.asarray(vals) * scale
                    yield (np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                           np.concatenate([vals, np.conj(vals)]))
                    continue
                t = t()
                t *= scale
                probe = np.conj(t.T)
                probe += t
                del t  # the probe is the one dense copy held while it is tried
                yield probe


def _nonlocality_witness(op: WindowOperator, cc: int, unit, region,
                         tol: float) -> Witness | None:
    """Construct a state pair with equal restrictions on the tested region
    whose images differ at the probed cell, from a block of a conjugated
    Hermitian probe that is not a multiple of the identity.  ``unit`` maps
    (k, l) to the backward-conjugated matrix unit (_unit_conjugation); the
    probes are built from it one at a time (_hermitian_probes).  A state's
    window indices are joined from its region and complement indices by
    the model's window-basis codec."""
    d, w = op.alphabet.d, op.width
    region = tuple(sorted(region))
    comp = [i for i in range(w) if i not in region]
    dc = d ** len(comp)
    for t in _hermitian_probes(unit, d):
        blocks = (_entries_to_blocks(t, d, w, region) if isinstance(t, tuple)
                  else _dense_blocks(t, d, w, region))
        for (rk, ck), block in blocks:
            cand = _block_witness_vectors(block, dc)
            if cand is None:
                continue
            states = []
            for vec in cand:
                # the window index of each (complement m, region kept) pair,
                # m in the order of vec, kept running over (rk, ck)
                digits = np.empty((w, 2 * len(vec)), dtype=np.int64)
                digits[list(region)] = window_digits([rk, ck] * len(vec), d, len(region))
                digits[comp] = window_digits(np.repeat(list(vec), 2), d, len(comp))
                amps = {}
                for ix, amp in zip(window_index(digits, d).tolist(),
                                   (a for a in vec.values() for _ in range(2))):
                    amps[ix] = amps.get(ix, 0.0) + amp / np.sqrt(2)
                if rk == ck:
                    amps = {k2: v * np.sqrt(2) / 2 for k2, v in amps.items()}
                states.append(_window_state(op.alphabet, w, amps).normalized())
            state_a, state_b = states
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

def _block_patch_units(g: BlockQCA):
    """Backward unit conjugation of one step of a block automaton on its
    minimal patch: with X = (I_q ⊗ v ⊗ I_p)(u ⊗ u) from input cells
    (c, c+1) to (a_c, output cell c, b_{c+1}) and X_k its rows whose output
    digit is k, G† E_kl G = X_k† X_l on the input patch (_dense_units)."""
    x = la.kron(np.eye(g.q), g.v, np.eye(g.p)) @ la.kron(g.u, g.u)
    return _dense_units(x, g.d, g.q, forward=False)


def block_neighborhood(g: BlockQCA, tol: float = la.DEFAULT_TOL) -> NeighborhoodReport:
    """Neighborhood of a block automaton from the two-cell patch
    conjugation: the first of {0}, {1}, {0, 1} (always localized) on which
    every unit is, by _first_localized."""
    cands = [(0, 0), (1, 1), (0, 1)]
    found = _first_localized(_block_patch_units(g), g.d, 2,
                             [range(lo, hi + 1) for lo, hi in cands], tol)
    return NeighborhoodReport(True, cands[found], None, 1, 0)
