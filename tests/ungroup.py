"""Ungrouping, the inverse of model.group_cells, which only the tests use:
a grouped state or window read back over its base alphabet."""
from qcablocks.errors import DimensionMismatch, PreconditionViolated
from qcablocks.model import Alphabet, SparseState, WindowOperator, window_digits


def ungroup_cells(x, base: Alphabet, s: int):
    """Inverse of :func:`group_cells` for states and window operators."""
    if isinstance(x, WindowOperator):
        return ungrouped(x, base, s)
    if isinstance(x, SparseState):
        return _ungroup_state(x, base, s)
    raise PreconditionViolated(f"cannot ungroup a {type(x).__name__}")


def ungrouped(op: WindowOperator, base: Alphabet, s: int) -> WindowOperator:
    """Inverse of WindowOperator.grouped: view each cell as s cells over the
    base alphabet."""
    if base.d ** s != op.alphabet.d:
        raise DimensionMismatch(
            f"cell dimension {op.alphabet.d} is not {base.d}^{s}")
    return WindowOperator(base, op.width * s, op.matrix, op.boundary,
                          op.out_shift * s)


def _ungroup_state(state: SparseState, base: Alphabet, s: int) -> SparseState:
    """Each supercell symbol read back as its s base cells (window_digits)."""
    if base.d ** s != state.alphabet.d:
        raise DimensionMismatch(
            f"cell dimension {state.alphabet.d} is not {base.d}^{s}")
    m, width = state.words.shape
    words = window_digits(state.words, base.d, s).transpose(1, 2, 0)
    return SparseState._from_arrays(base, state.starts * s, words.reshape(m, width * s),
                                    state.amps)
