"""Command-line front door: load automaton spec files, verify the axioms,
decompose, simulate, and probe for signalling.

Exit codes: 0 all checks pass / operation succeeded, 1 a check failed or a
structured error occurred, 2 malformed input.  Every path prints a JSON
report.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import linalg as la
from . import serialize as ser
from .algebra import close, factor_one, factorization_residual
from .decompose import decompose_certified
from .errors import DimensionMismatch, NotLocal, PreconditionViolated, QCAError
from .model import (
    BlockQCA,
    ClassicalRule,
    SparseState,
    WindowOperator,
    apply_block,
    apply_window,
    fit_offset,
    is_injective,
    quantize,
    window_matrix,
)
from .verify import (
    block_neighborhood,
    check_shift_invariance,
    check_unitary,
    detect_signalling,
    max_testable_radius,
    neighborhood,
)


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=1)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# What a loader raises on a file that cannot be read or does not describe a
# valid object: a wrong entry count, a shape that disagrees with a declared
# size and an unknown symbol are malformed input (exit 2), not a failed check.
_MALFORMED = (OSError, json.JSONDecodeError, PreconditionViolated, DimensionMismatch,
              KeyError, TypeError, ValueError)


def _load_spec(path: str):
    try:
        obj = ser.load(path)
        return ser.qca_from_json(obj)
    except _MALFORMED as err:
        raise _ParseFailure(f"cannot load spec {path}: {err}") from None


def _load_state(path: str, alphabet=None) -> SparseState:
    try:
        return ser.state_from_json(ser.load(path), alphabet)
    except _MALFORMED as err:
        raise _ParseFailure(f"cannot load state {path}: {err}") from None


def _load_algebra(path: str):
    try:
        return ser.algebra_spec_from_json(ser.load(path))
    except _MALFORMED as err:
        raise _ParseFailure(f"cannot load algebra spec {path}: {err}") from None


class _ParseFailure(Exception):
    pass


def _as_window(spec, window: int, boundary: str) -> WindowOperator:
    if isinstance(spec, WindowOperator):
        return spec
    if isinstance(spec, ClassicalRule):
        return quantize(spec, window, boundary)
    if isinstance(spec, BlockQCA):
        return window_matrix(spec, window)
    raise _ParseFailure("this command needs a one-dimensional automaton spec")


# ----------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    spec = _load_spec(args.file)
    if isinstance(spec, dict):
        raise _ParseFailure("verify handles one-dimensional specs only")
    if isinstance(spec, BlockQCA):
        report_n = block_neighborhood(spec, args.tol)
        # the constructor only checks its own gauge tolerance
        unitary = la.is_unitary(spec.u, args.tol) and la.is_unitary(spec.v, args.tol)
        shift_inv = True  # one repeated block pair is shift invariant
        status = "local" if report_n.is_local else "nonlocal"
        rep = ser.verification_report(unitary, shift_inv, report_n.neighborhood,
                                      None, status)
        _emit(rep, args.out)
        return 0 if (unitary and report_n.is_local) else 1
    op = _as_window(spec, args.window, args.boundary)
    unitary = check_unitary(op, args.tol)
    shift_inv = check_shift_invariance(op, args.tol)
    radius = min(args.max_radius, max_testable_radius(op))
    status = "inconclusive"
    hood = None
    witness_json = None
    if unitary and shift_inv and radius >= 1:
        rep = neighborhood(op, max_radius=radius, tol=args.tol)
        if rep.is_local:
            status = "local"
            hood = rep.neighborhood
        elif rep.witness is not None:
            status = "nonlocal"
            witness_json = ser.witness_to_json(rep.witness)
        else:
            status = "nonlocal"
    report = ser.verification_report(unitary, shift_inv, hood, witness_json, status)
    _emit(report, args.out)
    return 0 if (unitary and shift_inv and status == "local") else 1


# -------------------------------------------------------------- decompose

def cmd_decompose(args) -> int:
    spec = _load_spec(args.file)
    if isinstance(spec, dict):
        raise _ParseFailure("decompose handles one-dimensional specs only")
    if isinstance(spec, ClassicalRule):
        op = quantize(spec, args.window, "periodic")
        if not check_unitary(op, args.tol):
            # the configurations supported on the window are the columns of
            # a one-cell-wider truncated window with a quiescent last cell;
            # their rows hold every cell of the image, both spills included
            rows = quantize(spec, args.window + 1).matrix[::spec.alphabet.d]
            if not is_injective(rows):
                raise NotLocal(
                    "the rule is not injective on finite configurations of a "
                    f"{args.window}-cell window, so its linear extension is "
                    "not unitary")
            raise NotLocal(
                "the rule's ring quantization is not unitary: the rule is "
                "bijective only through unbounded borders, so its linear "
                "extension is not a local automaton")
    else:
        op = _as_window(spec, args.window, "periodic")
    qca, cert = decompose_certified(op, seed=args.seed, tol=args.tol)
    _emit(ser.decomposition_to_json(qca, cert), args.out)
    return 0


# --------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    spec = _load_spec(args.file)
    if isinstance(spec, dict):
        raise _ParseFailure("simulate handles one-dimensional specs only")
    alphabet = spec.alphabet
    state = _load_state(args.state, alphabet)
    for _ in range(args.steps):
        if isinstance(spec, ClassicalRule):
            state = spec.apply(state)
        elif isinstance(spec, BlockQCA):
            state = apply_block(state, spec)
        else:
            offset = fit_offset(spec, [state.support()])
            state = apply_window(spec, state, offset)
    _emit(ser.state_to_json(state), args.out)
    return 0


# ----------------------------------------------------------------- signal

def cmd_signal(args) -> int:
    spec = _load_spec(args.file)
    if isinstance(spec, dict):
        raise _ParseFailure("signal handles one-dimensional specs only")
    evolution = spec
    if isinstance(spec, ClassicalRule) and args.window > 0 and args.use_window:
        evolution = quantize(spec, args.window)
    state_a = _load_state(args.state_a, spec.alphabet)
    state_b = _load_state(args.state_b, spec.alphabet)
    context = [int(c) for c in args.context.split(",")]
    try:
        witness = detect_signalling(evolution, state_a, state_b, args.probe,
                                    context, tol=args.tol)
    except PreconditionViolated as err:
        # unequal context restrictions make the probe meaningless
        _emit({"error": "PreconditionViolated", "message": str(err)}, args.out)
        return 2
    found = witness is not None
    report = {
        "probe": args.probe,
        "context": context,
        "trace_distance": witness.trace_distance if found else 0.0,
        "witness": found,
    }
    _emit(report, args.out)
    return 1 if found else 0


# ----------------------------------------------------------- algebra-factor

def cmd_algebra_factor(args) -> int:
    n, gens = _load_algebra(args.file)
    alg = close(gens, n)
    fact = factor_one(alg, seed=args.seed, tol=args.tol)
    report = {
        "n": n,
        "algebra_dimension": alg.dimension,
        "p": fact.p,
        "q": fact.q,
        "u": ser.matrix_to_json(fact.u),
        "residual": factorization_residual(alg, fact.u, fact.p, fact.q),
    }
    _emit(report, args.out)
    return 0


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qca",
        description="Simulate, verify, and block-decompose one-dimensional "
                    "quantum cellular automata.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--window", type=int, default=6,
                       help="finite window width in cells (default 6)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="max-norm tolerance of every check and verdict (default 1e-9)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all randomized steps (default 0)")
        p.add_argument("--out", default=None,
                       help="write the JSON report here instead of stdout")

    p = sub.add_parser("verify", help="check unitarity, shift invariance, locality")
    p.add_argument("file")
    p.add_argument("--max-radius", type=int, default=3,
                   help="largest neighborhood radius to test (default 3, "
                        "clipped to the window slack)")
    p.add_argument("--boundary", choices=["truncated", "periodic"],
                   default="truncated",
                   help="window closure for classical rules (default truncated; "
                        "use periodic for structurally reversible rules)")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="compute the two-layered block form")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("simulate", help="evolve a state file")
    p.add_argument("file")
    p.add_argument("--state", required=True, help="input state JSON file")
    p.add_argument("--steps", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("signal", help="test a state pair for signalling")
    p.add_argument("file")
    p.add_argument("--state-a", required=True, dest="state_a")
    p.add_argument("--state-b", required=True, dest="state_b")
    p.add_argument("--probe", type=int, required=True, help="probe cell index")
    p.add_argument("--context", required=True,
                   help="comma-separated context cell indices")
    p.add_argument("--use-window", action="store_true", dest="use_window",
                   help="evolve through the quantized window instead of the "
                        "exact linear extension")
    common(p)
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("algebra-factor",
                       help="factor a generated matrix algebra as one tensor factor")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_algebra_factor)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ParseFailure as err:
        _emit({"error": "ParseFailure", "message": str(err)}, getattr(args, "out", None))
        return 2
    except QCAError as err:
        _emit({"error": type(err).__name__, "message": str(err)},
              getattr(args, "out", None))
        return 1


if __name__ == "__main__":
    sys.exit(main())
