"""JSON wire formats: matrix literals, automaton spec files, state files,
algebra specs, and verification/decomposition reports.

Matrix literal: {"rows": r, "cols": c, "entries": [[re, im], ...]} in
row-major order.  All other formats build on it.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import DimensionMismatch, PreconditionViolated
from .model import (
    Alphabet,
    BlockQCA,
    ClassicalRule,
    SparseState,
    WindowOperator,
    config_from_cells,
)


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch("matrix literal requires a 2-D array")
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "entries": [[float(x.real), float(x.imag)] for x in m.ravel()],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        entries = obj["entries"]
    except (KeyError, TypeError) as err:
        raise PreconditionViolated(f"malformed matrix literal: {err}") from None
    if len(entries) != rows * cols:
        raise DimensionMismatch(
            f"matrix literal has {len(entries)} entries, expected {rows * cols}")
    flat = np.array([complex(re, im) for re, im in entries], dtype=np.complex128)
    return flat.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=np.complex128)]


def vector_from_json(obj) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj], dtype=np.complex128)


def alphabet_to_json(a: Alphabet) -> dict:
    return {"symbols": list(a.symbols), "quiescent": a.quiescent}


def alphabet_from_json(obj: dict) -> Alphabet:
    return Alphabet(tuple(obj["symbols"]), obj["quiescent"])


# ------------------------------------------------------------- automaton spec

def rule_to_json(rule: ClassicalRule) -> dict:
    a = rule.alphabet
    delta = []
    for x in range(a.d):
        for y in range(a.d):
            delta.append([a.symbol(x), a.symbol(y), a.symbol(int(rule.table[x, y]))])
    return {"alphabet": alphabet_to_json(a), "kind": "classical", "delta": delta}


def block_to_json(g: BlockQCA) -> dict:
    return {
        "alphabet": alphabet_to_json(g.alphabet),
        "kind": "block",
        "p": g.p,
        "q": g.q,
        "u": matrix_to_json(g.u),
        "v": matrix_to_json(g.v),
        "q1": vector_to_json(g.q1),
        "q2": vector_to_json(g.q2),
    }


def window_to_json(op: WindowOperator) -> dict:
    if op.is_one_hot:
        raise PreconditionViolated(
            "window spec files carry dense matrices; this operator is a one-hot column map")
    return {
        "alphabet": alphabet_to_json(op.alphabet),
        "kind": "window",
        "w": op.width,
        "matrix": matrix_to_json(op.dense()),
        "boundary": op.boundary,
        "out_shift": op.out_shift,
    }


def qca_from_json(obj: dict):
    """Parse an automaton spec into a ClassicalRule, BlockQCA,
    WindowOperator, or the 2-D marker dict."""
    try:
        kind = obj["kind"]
    except (KeyError, TypeError):
        raise PreconditionViolated("spec file has no 'kind' field") from None
    if kind == "classical2d":
        if obj.get("rule") != "kari" or int(obj.get("bits", 0)) != 9:
            raise PreconditionViolated(
                "the only supported 2-D automaton is the nine-bit 'kari' rule")
        return {"kind": "classical2d", "bits": 9, "rule": "kari"}
    try:
        alphabet = alphabet_from_json(obj["alphabet"])
    except (KeyError, TypeError) as err:
        raise PreconditionViolated(f"malformed alphabet: {err}") from None
    if kind == "classical":
        delta = {}
        for x, y, z in obj["delta"]:
            delta[(x, y)] = z
        return ClassicalRule.from_mapping(alphabet, delta)
    if kind == "block":
        return BlockQCA(
            alphabet,
            int(obj["p"]),
            int(obj["q"]),
            matrix_from_json(obj["u"]),
            matrix_from_json(obj["v"]),
            vector_from_json(obj["q1"]),
            vector_from_json(obj["q2"]),
        )
    if kind == "window":
        return WindowOperator(
            alphabet,
            int(obj["w"]),
            matrix_from_json(obj["matrix"]),
            obj.get("boundary", "truncated"),
            int(obj.get("out_shift", 0)),
        )
    raise PreconditionViolated(f"unknown spec kind {kind!r}")


def qca_to_json(x) -> dict:
    if isinstance(x, ClassicalRule):
        return rule_to_json(x)
    if isinstance(x, BlockQCA):
        return block_to_json(x)
    if isinstance(x, WindowOperator):
        return window_to_json(x)
    raise PreconditionViolated(f"cannot serialize a {type(x).__name__}")


# -------------------------------------------------------------------- states

def state_to_json(state: SparseState) -> dict:
    terms = []
    for config, amp in sorted(state.terms.items(),
                              key=lambda item: (item[0].start, item[0].word)):
        cells = {str(pos): sym for pos, sym in config.cells(state.alphabet).items()}
        terms.append({"cells": cells, "amp": [float(amp.real), float(amp.imag)]})
    return {"alphabet": alphabet_to_json(state.alphabet), "terms": terms}


def state_from_json(obj: dict, alphabet: Alphabet | None = None) -> SparseState:
    if alphabet is None:
        try:
            alphabet = alphabet_from_json(obj["alphabet"])
        except (KeyError, TypeError):
            raise PreconditionViolated(
                "state file carries no alphabet and none was supplied") from None
    terms = {}
    for term in obj["terms"]:
        cells = {int(pos): sym for pos, sym in term["cells"].items()}
        re, im = term["amp"]
        config = config_from_cells(alphabet, cells)
        terms[config] = terms.get(config, 0.0) + complex(re, im)
    return SparseState(alphabet, terms)


# ------------------------------------------------------------------- algebra

def algebra_spec_from_json(obj: dict):
    """Returns (n, generators) from {"n": int, "generators": [literal, ...]};
    every generator must be n x n."""
    try:
        n = int(obj["n"])
        gens = [matrix_from_json(g) for g in obj["generators"]]
    except (KeyError, TypeError, ValueError) as err:
        raise PreconditionViolated(f"malformed algebra spec: {err}") from None
    for k, g in enumerate(gens):
        if g.shape != (n, n):
            raise DimensionMismatch(f"generator {k} has shape {g.shape}, expected ({n}, {n})")
    return n, gens


def algebra_spec_to_json(n: int, generators) -> dict:
    return {"n": int(n), "generators": [matrix_to_json(g) for g in generators]}


# ------------------------------------------------------------------- reports

def verification_report(unitary: bool, shift_invariant: bool,
                        neighborhood=None, witness=None, status: str = "local") -> dict:
    report = {
        "unitary": bool(unitary),
        "shift_invariant": bool(shift_invariant),
        "neighborhood": list(neighborhood) if neighborhood is not None else None,
        "witness": witness,
        "status": status,
    }
    return report


def witness_to_json(witness) -> dict:
    return {
        "state_a": state_to_json(witness.state_a),
        "state_b": state_to_json(witness.state_b),
        "cell": int(witness.cell),
        "context": list(witness.context),
        "trace_distance": float(witness.trace_distance),
    }


def decomposition_to_json(qca: BlockQCA, certification) -> dict:
    out = block_to_json(qca)
    out["certification"] = {
        "residual": float(certification.residual),
        "shift": int(certification.shift),
    }
    return out


def dump(obj: Any, path=None) -> str:
    text = json.dumps(obj, indent=1)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load(path) -> Any:
    with open(path) as fh:
        return json.load(fh)
