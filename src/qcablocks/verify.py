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

Locality on R needs every unit T_kl = S_k S_l† (backward S_k = R_k†)
within tol of P(T_kl) in the max-norm, P the
diagonal-block mean (a contraction and an M_R-bimodule map), yet only the
d generators T_0l are examined, and of those a dense window forms only
T_00 whole.  Write T_kl = P_k† P_l, P_k = S_k† (backward R_k) an (n/d) x n
matrix whose columns are the window words.  With C the complement of R
and d_C its dimension, the intertwiner of generator l is Y_l = Tr_C(T_0l)/d_C and Δ_l = P_l -
P_0 (Y_l ⊗ I_C), again (n/d) x n; then T_0l = P_0† Δ_l + T_00 (Y_l ⊗
I_C), and as P(X (Y ⊗ I)) = P(X)(Y ⊗ I), with E_0 = T_00 - P(T_00),

    T_0l - P(T_0l) = (F - P(F)) + E_0 (Y_l ⊗ I_C),   F = P_0† Δ_l.

No unitarity is assumed.  By Cauchy-Schwarz and ||P(F)||_max <= ||F||_max,

    ||T_0l - P(T_0l)||_max <= 2 c_0 δ_l + ε_0 y_l,
    ||T_0l - P(T_0l)||_HS  <= s_0 ||Δ_l||_HS + ε_0 ||Y_l||,

with c_0, δ_l and y_l the largest column 2-norms of P_0, Δ_l and Y_l, ε_0
the HS norm of E_0 (the T_00 pass returns it) and s_0 = ||P_0||.  Both
cost n·d_R·n/d per generator where forming T_0l costs n³/d; a generator
whose max-norm bound exceeds tol is formed and scored exactly, so
refutations stay exact.  A local window has Δ_l = 0, since P_l = P_0 T_0l
when P_0 P_0† = I.  With ε_l the HS norm of T_0l - P(T_0l) (or its
bound), s_k = ||S_k|| and η = ||S_0† S_0 - I||, the identity T_kl = T_k0
T_0l + S_k (I - S_0† S_0) S_l† gives, again without assuming unitarity,

    ||T_kl - P(T_kl)|| <= s_0 (s_k ε_l + s_l ε_k) + 2 ε_k ε_l + 2 s_k s_l η,

which bounds the max-norm.  A generator above tol refutes R, a bound
within tol proves it, and otherwise the units with k <= l decide (T_lk =
T_kl† has the same residual), so every verdict is the exhaustive one.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache

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
    return rows[src_k], rows[src_l], np.ones(len(src_k), dtype=np.complex128)


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
    d, with ``lead`` the size of the index before it.  Both directions are
    T_kl = P_k† P_l: forward T_kl = S_k S_l† with S_k the columns whose
    digit is k and P_k = S_k†; backward T_kl = R_k† R_l with R_k the rows
    whose digit is k and P_k = R_k.  ``unit(k, l)`` copies P_l once (forward:
    the conjugate of S_l, used transposed) and returns rows -> those rows of
    T_kl, P_k[:, rows]† P_l, each call reading its slice of P_k from ``mat``
    (no argument: the whole unit).  ``norms()`` gives the unit bound's
    norms: η = ||S_0† S_0 - I|| and s_0 = ||S_0|| from the one Gram P_0 P_0†
    = S_0† S_0, and for k > 0 the Frobenius norm of P_k, which bounds
    ||S_k||, summed over row blocks of P_k.  ``bounds(w, region, ε_0)``
    bounds the generators' defects on a region without forming them
    (_generator_bounds)."""
    r, c = mat.shape
    split = mat.reshape(r, lead, d, -1) if forward else mat.reshape(lead, d, -1, c)
    tail = (c if forward else r) // (lead * d)
    blocks = la.row_blocks(lead * tail)

    def part(k):  # P_k
        if forward:
            return np.conj(split[:, :, k]).reshape(r, -1).T
        return np.ascontiguousarray(split[:, k]).reshape(-1, c)

    def parts_rows(rows):  # P_k[rows] for every k, as (d, rows, columns)
        i = np.arange(rows.start, rows.stop)
        at = (i // tail * d + np.arange(d)[:, None]) * tail + i % tail
        return np.conj(mat[:, at].transpose(1, 2, 0)) if forward else mat[at]

    def adjoint_rows(k, rows):  # P_k[:, rows]†
        if forward:
            return split[rows, :, k].reshape(-1, c // d)
        return np.conj(split[:, k, :, rows]).reshape(r // d, -1).T

    def unit(k, l):
        right = part(l)
        return lambda rows=slice(None): adjoint_rows(k, rows) @ right

    @cache
    def norms():
        p0 = part(0)
        eig = np.linalg.eigvalsh(p0 @ la.dagger(p0))
        s = np.sqrt(sum(np.sum(p.real**2 + p.imag**2, axis=(1, 2))
                        for p in map(parts_rows, blocks)))
        s[0] = np.sqrt(max(eig[-1], 0.0))
        return s, float(np.max(np.abs(eig - 1.0)))

    def bounds(w, region, eps0):
        return _generator_bounds(parts_rows, blocks, d, w, region, eps0, norms()[0][0])

    return unit, norms, bounds


def _generator_bounds(parts_rows, blocks, d: int, w: int, region,
                      eps0: float, s0: float) -> list[tuple[float, float]]:
    """Upper bounds (max-norm, HS norm) on the defect T_0l - P(T_0l) of each
    generator l = 1 ... d-1 on ``region``, without forming T_0l: the
    intertwiner identity of the module docstring, from Y_l = Tr_C(T_0l)/d_C
    and Δ_l = P_l - P_0 (Y_l ⊗ I_C), with ε_0 = ``eps0`` T_00's HS defect
    and s_0 = ||P_0||.  ``parts_rows(rows)`` gathers the rows of every P_k
    in one of ``blocks``; the columns of P are the d^w window words.  Two
    passes over the row blocks, the first summing every Y_l, the second
    Δ_l's column norms, so no (n/d) x n array is held; a block is read with
    its columns ordered (region, complement), and n·d_R·n/d multiply-adds
    per pass and generator do what forming T_0l does in n³/d."""
    region = sorted(set(region))
    comp = [i for i in range(w) if i not in region]
    dr, dc = d ** len(region), d ** len(comp)
    axes = [0, *(2 + i for i in region), 1, *(2 + i for i in comp)]

    def gather(rows):  # P_k[rows] as (k, region column, row · complement column)
        return parts_rows(rows).reshape(d, -1, *(d,) * w).transpose(axes).reshape(d, dr, -1)

    def column_sq(a):  # squared column norms of such rows, (..., region, complement)
        return np.sum((a.real**2 + a.imag**2).reshape(*a.shape[:-1], -1, dc), axis=-2)

    yt = np.zeros((d - 1, dr, dr), dtype=np.complex128)  # Y_l^T
    col0 = np.zeros((dr, dc))  # of P_0
    for rows in blocks:
        p = gather(rows)
        col0 += column_sq(p[0])
        yt += p[1:] @ np.conj(p[0]).T
    yt /= dc
    dsq = np.zeros((d - 1, dr, dc))  # of Δ_l
    for rows in blocks:
        p = gather(rows)
        dsq += column_sq(p[1:] - yt @ p[0])
    c0 = np.sqrt(np.max(col0))
    out = []
    for y, dl in zip(yt, dsq):
        y_col = np.sqrt(np.max(np.sum(y.real**2 + y.imag**2, axis=1)))  # columns of Y_l
        out.append((float(2 * c0 * np.sqrt(np.max(dl)) + eps0 * y_col),
                    float(s0 * np.sqrt(np.sum(dl)) + eps0 * np.linalg.norm(y, 2))))
    return out


def _unit_conjugation(op: WindowOperator, cell: int, forward: bool):
    """Conjugated matrix units at ``cell`` as a function (k, l) -> T_kl,
    forward G (E_kl ⊗ I) G† or backward G† (E_kl ⊗ I) G, and the norms of
    the generator bound.  One-hot windows give COO triples, others a
    function of a row slice (_dense_units) that yields the unit's rows, so
    no dense unit need exist whole."""
    d, w = op.alphabet.d, op.width
    if not op.is_one_hot:
        return _dense_units(op.dense(), d, d**cell, forward)
    rows = op.matrix if forward else _one_hot_adjoint(op.matrix)

    @cache
    def norms():
        # a permutation has S_k† S_k = I for every k, so s = 1 and η = 0
        # exactly; a merging map gets no bound
        return (np.ones(d), 0.0) if is_injective(rows) else None

    # its generators are n/d entries each: formed, not bounded
    return (lambda k, l: _one_hot_conjugation(rows, d, w, cell, k, l)), norms, None


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
    """Max-norm and HS norm of t - P(t) on each region for a sparse operator
    t given in COO form, without duplicate entries, over the d^w window
    space."""
    vals = np.asarray(vals, dtype=np.complex128)
    if len(vals) == 0:
        return [(0.0, 0.0) for _ in regions]
    row_digits, col_digits = window_digits(rows, d, w), window_digits(cols, d, w)
    out = []
    for region in regions:
        dk = d ** len(set(region))
        dc = d**w // dk
        rk, rc = window_split(row_digits, d, region)
        ck, cc = window_split(col_digits, d, region)
        diag = rc == cc
        # the entries on the complement diagonal, grouped by region pattern
        inverse = _group_ids(rk[diag] * dk + ck[diag])
        sums = (np.bincount(inverse, weights=vals[diag].real)
                + 1j * np.bincount(inverse, weights=vals[diag].imag))
        counts = np.bincount(inverse)
        b_vals = sums / dc
        # deviation of present entries from the M ⊗ I pattern
        expected = np.zeros(len(vals), dtype=np.complex128)
        expected[diag] = b_vals[inverse]
        dev = np.abs(vals - expected)
        # pattern entries of M ⊗ I with no data present: dc - count per block
        missing = dc - counts
        absent = np.abs(b_vals[missing > 0])
        resid = max(float(np.max(dev)), float(np.max(absent, initial=0.0)))
        out.append((resid, float(np.sqrt(np.sum(dev**2) + np.sum(missing * np.abs(b_vals) ** 2)))))
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
    localized within tol, or None; ``units`` is a (unit, norms, bounds)
    triple from _unit_conjugation.  T_00 is formed once and tested on every
    region in one pass.  On each survivor in turn, a dense window's
    generators T_01 ... T_0(d-1) are bounded from the intertwiner
    (_generator_bounds) and only a generator whose max-norm bound exceeds
    tol is formed, one alive at a time, and scored exactly; one-hot
    generators are always formed.  The unit bound or, where it exceeds
    tol, the units with 1 <= k <= l decide the rest."""
    unit, norms, bounds = units
    eps0 = {i: hs for i, (resid, hs)
            in enumerate(fast_localization_residual(unit(0, 0), d, w, regions))
            if resid <= tol}
    for i, e0 in eps0.items():
        survivor = [regions[i]]
        eps = [e0]
        for l, (resid, hs) in enumerate(bounds(w, regions[i], e0) if bounds
                                        else [(np.inf, np.inf)] * (d - 1), 1):
            if not resid <= tol:  # not proved by the bound: form T_0l
                [(resid, hs)] = fast_localization_residual(unit(0, l), d, w, survivor)
                if resid > tol:
                    break  # a generator is itself a unit: the region fails
            eps.append(hs)
        if len(eps) == d and (_unit_bound(norms(), np.array(eps)) <= tol or all(
                fast_localization_residual(unit(k, l), d, w, survivor)[0][0] <= tol
                for k in range(1, d) for l in range(k, d))):
            return i
    return None


def _unit_bound(norms, eps: np.ndarray) -> float:
    """The bound of the module docstring, maximized over all units, from the
    norms (s, η) and the generator defects ε; infinite without norms."""
    if norms is None:
        return np.inf
    s, eta = norms
    se = np.outer(s, eps)
    return float(np.max(s[0] * (se + se.T) + 2 * np.outer(eps, eps)
                        + 2 * eta * np.outer(s, s)))


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
    decides: on a local dense window one residual pass, over T_00, when
    the bounds hold; only the witness of a non-local verdict needs whole
    units, built one probe at a time.
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
    pass over T_00 and the generator bounds when they hold, for a one-hot
    window d residuals and the unit bound."""
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
    every unit is, by the generator check of _first_localized."""
    cands = [(0, 0), (1, 1), (0, 1)]
    found = _first_localized(_block_patch_units(g), g.d, 2,
                             [range(lo, hi + 1) for lo, hi in cands], tol)
    return NeighborhoodReport(True, cands[found], None, 1, 0)
