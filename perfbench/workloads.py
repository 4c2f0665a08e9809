"""The four benchmark workloads: seeded inputs, the timed task and the
untimed correctness check of each.

Every input is built here from the benchmark's own numpy generator (Haar
blocks, symbol relabellings, basis configurations), so edits to
``qcablocks.rand`` or ``qcablocks.gallery`` cannot change what is measured.
The program is called only through module attributes (``qm.apply_block``,
never a name bound at import), so the span recorder in ``tracer.py`` sees
the benchmark's own calls too.

A workload object has three parts:

* ``build(rng)`` -- set-up: spec loading, input generation, window
  construction.  Returns the pool of task items; tasks cycle through it.
* ``task(item)`` -- one closed-loop task, timed.
* ``check(item, output)`` -- list of failure messages (empty when the task
  passed), including the independent-route gates.  Never timed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qcablocks.cli as qcli
import qcablocks.decompose as qdec
import qcablocks.model as qm
import qcablocks.serialize as qser
import qcablocks.verify as qver

CERT_TOL = 1e-7  # decompose_certified's default certificate bound
GATE_TOL = 1e-6  # agreement of two evolution routes on basis states
SIGNAL_TOL = 1e-9  # detect_signalling's default tolerance
NORM_TOL = 1e-9

# ------------------------------------------------------------ seeded inputs

def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    phases of R's diagonal moved into Q."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(z)
    diag = np.diag(r)
    return qmat * (diag / np.abs(diag))


def unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _frame(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """A unitary whose first column is exactly the unit vector x."""
    n = len(x)
    m = np.concatenate([x[:, None], rng.standard_normal((n, n - 1))
                        + 1j * rng.standard_normal((n, n - 1))], axis=1)
    qmat, r = np.linalg.qr(m)
    diag = np.diag(r)
    return qmat * (diag / np.abs(diag))


def unitary_mapping(rng: np.random.Generator, source: np.ndarray,
                    target: np.ndarray) -> np.ndarray:
    """Random unitary sending the unit vector ``source`` to ``target``."""
    n = len(source)
    mid = np.eye(n, dtype=np.complex128)
    if n > 1:
        mid[1:, 1:] = haar_unitary(rng, n - 1)
    return _frame(rng, target) @ mid @ _frame(rng, source).conj().T


def haar_block(rng: np.random.Generator, p: int, q: int) -> qm.BlockQCA:
    """Random block automaton of cell dimension p*q with an exact quiescent
    gauge: u|q> = |q2>|q1> and v(|q1>|q2>) = |q>."""
    d = p * q
    q1, q2 = unit_vector(rng, p), unit_vector(rng, q)
    ket_q = np.zeros(d, dtype=np.complex128)
    ket_q[0] = 1.0
    u = unitary_mapping(rng, ket_q, np.kron(q2, q1))
    v = unitary_mapping(rng, np.kron(q1, q2), ket_q)
    alphabet = qm.Alphabet(tuple(str(i) for i in range(1, d)), "q")
    return qm.BlockQCA(alphabet, p, q, u, v, q1, q2)


def partitioned_rule_spec(rng: np.random.Generator, p: int, q: int) -> dict:
    """Spec of a reversible radius-1/2 classical rule on d = p*q symbols:
    split each cell by a permutation into (a, b) in [q] x [p], then write
    tau(b_i, a_{i+1}) into cell i.  Both permutations fix the quiescent
    symbol, so the rule preserves quiescence."""
    d = p * q
    split = np.concatenate([[0], 1 + rng.permutation(d - 1)])
    join = np.concatenate([[0], 1 + rng.permutation(d - 1)])
    names = ["q"] + [str(i) for i in range(1, d)]
    delta = []
    for x in range(d):
        for y in range(d):
            b = split[x] % p
            a = split[y] // p
            delta.append([names[x], names[y], names[join[b * q + a]]])
    return {"kind": "classical", "alphabet": {"symbols": names[1:], "quiescent": "q"},
            "delta": delta}


def symbol_relabelling(rng: np.random.Generator, spec: dict) -> dict:
    """A random permutation of the non-quiescent symbols of a spec."""
    symbols = list(spec["alphabet"]["symbols"])
    return dict(zip(symbols, (symbols[j] for j in rng.permutation(len(symbols)))))


def relabel_rule(spec: dict, rename: dict) -> dict:
    """The rule conjugated by a symbol permutation: (x, y, z) -> (s(x), s(y), s(z)).
    Reversibility, the radius and the quiescent symbol are unchanged."""
    out = dict(spec)
    out["delta"] = [[rename.get(x, x) for x in triple] for triple in spec["delta"]]
    return out


def relabel_state(state: dict, rename: dict) -> dict:
    out = dict(state)
    out["terms"] = [{"cells": {pos: rename.get(sym, sym) for pos, sym in t["cells"].items()},
                     "amp": t["amp"]} for t in state["terms"]]
    return out


def random_word(rng: np.random.Generator, d: int, width: int) -> list[int]:
    """Basis word of ``width`` non-quiescent cells.  (A quiescent cell would
    let the exact gauge prune terms, so the work per word would vary.)"""
    return [int(x) for x in rng.integers(1, d, size=width)]


def basis_state(alphabet: qm.Alphabet, start: int, word) -> qm.SparseState:
    return qm.SparseState(alphabet, {qm.Configuration.make(start, word): 1.0})


def short_configs(rng: np.random.Generator, alphabet: qm.Alphabet, count: int,
                  lo: int, hi: int) -> list[qm.SparseState]:
    """Basis states of support width 1 or 2 starting in [lo, hi]."""
    return [basis_state(alphabet, int(rng.integers(lo, hi + 1)),
                        random_word(rng, alphabet.d, 1 + k % 2))
            for k in range(count)]


# ------------------------------------------------------------- workloads

@dataclass
class Workload:
    """Shared plumbing: root of the checkout, the size ("full" is measured,
    "small" is the fastest variant on the same code path, for the
    benchmark's own tests) and per-run scratch state."""

    root: Path
    size: str = "full"
    memo: dict = field(default_factory=dict)

    def close(self) -> None:
        """Release what ``build`` created outside memory."""


@dataclass
class DecomposeOneHot(Workload):
    """decompose_certified on the ring quantization of a relabelled
    reversible rule: the grouped Toffoli (d=16, window dim 65536) at full
    size, a random partitioned rule (d=4, dim 256) at small size."""

    width: int = 4
    pool: int = 2

    def build(self, rng):
        if self.size == "full":
            spec = qser.load(self.root / "specs" / "toffoli_grouped.json")
            expect = (8, 2)
        else:
            expect = (2, 2)
            spec = partitioned_rule_spec(rng, *expect)
        items = []
        for _ in range(self.pool):
            rule = qser.qca_from_json(relabel_rule(spec, symbol_relabelling(rng, spec)))
            items.append({
                "rule": rule,
                "op": qm.quantize(rule, self.width, "periodic"),
                "seed": int(rng.integers(0, 2**31)),
                "expect": expect,
                "probes": short_configs(rng, rule.alphabet, 6, -3, 3),
            })
        return items

    def task(self, item):
        return qdec.decompose_certified(item["op"], seed=item["seed"])

    def check(self, item, output):
        qca, cert = output
        fails = []
        if (qca.p, qca.q) != item["expect"]:
            fails.append(f"split (p, q) = {(qca.p, qca.q)}, expected {item['expect']}")
        if not cert.residual <= CERT_TOL:
            fails.append(f"certificate {cert.residual:.2e} > {CERT_TOL:.0e}")
        # independent route: the block form on the line against the rule's
        # own linear extension, up to the certified shift and phase
        rule = item["rule"]
        for state in item["probes"]:
            got = qm.apply_block(state, qca)
            want = qm.shift(rule.apply(state), cert.shift)
            want = qm.SparseState(want.alphabet,
                                  {c: a * cert.phase for c, a in want.terms.items()})
            gap = got.distance(want)
            if not gap <= GATE_TOL:
                fails.append(f"apply_block differs from the rule on "
                             f"{next(iter(state.terms))} by {gap:.2e}")
        return fails


@dataclass
class LocalityDense(Workload):
    """neighborhood, then check_inverse_locality, then decompose_certified on
    the dense w=4 window of a Haar-random block automaton; the items
    alternate between the two splits of the cell dimension."""

    width: int = 4

    def splits(self):
        return [(2, 3), (3, 2)] if self.size == "full" else [(2, 2)]

    def build(self, rng):
        items = []
        for p, q in self.splits():
            g = haar_block(rng, p, q)
            items.append({"op": qm.window_matrix(g, self.width),
                          "seed": int(rng.integers(0, 2**31)), "expect": (p, q)})
        return items

    def task(self, item):
        op = item["op"]
        rep = qver.neighborhood(op, max_radius=1)
        if not rep.is_local:
            return {"neighborhood": None}
        inverse = qver.check_inverse_locality(op, rep.neighborhood)
        out = {"neighborhood": rep.neighborhood, "inverse": inverse}
        if inverse:
            out["qca"], out["cert"] = qdec.decompose_certified(op, seed=item["seed"])
        return out

    def check(self, item, output):
        if output["neighborhood"] != (0, 1):
            return [f"neighborhood {output['neighborhood']}, expected (0, 1)"]
        if not output["inverse"]:
            return ["inverse locality fails on the found neighborhood"]
        qca, cert = output["qca"], output["cert"]
        fails = []
        if not cert.residual <= CERT_TOL:
            fails.append(f"certificate {cert.residual:.2e} > {CERT_TOL:.0e}")
        # independent route: the split found must be the generator's
        if (qca.p, qca.q) != item["expect"]:
            fails.append(f"split (p, q) = {(qca.p, qca.q)}, expected {item['expect']}")
        return fails


@dataclass
class EvolveBlock(Workload):
    """detect_signalling on a Haar-random d=6 block automaton with two basis
    configurations of support width 5 (3 at small size) that differ in one
    cell outside the two input cells the probe reads."""

    pool: int = 2
    probe: int = 0
    context: tuple = (0, 1)

    def build(self, rng):
        p, q = (2, 3) if rng.integers(0, 2) == 0 else (3, 2)
        g = haar_block(rng, p, q)
        width = 5 if self.size == "full" else 3
        items = []
        for _ in range(self.pool):
            word_a = random_word(rng, g.d, width)
            word_b = list(word_a)
            pos = int(rng.integers(2, width))
            word_b[pos] = int((word_a[pos] - 1 + rng.integers(1, g.d - 1)) % (g.d - 1) + 1)
            items.append({"g": g, "a": basis_state(g.alphabet, 0, word_a),
                          "b": basis_state(g.alphabet, 0, word_b)})
        self.memo["probes"] = short_configs(rng, g.alphabet, 6, 1, 1)
        return items

    def task(self, item):
        return qver.detect_signalling(item["g"], item["a"], item["b"],
                                      self.probe, self.context, tol=SIGNAL_TOL)

    def check(self, item, output):
        fails = []
        if output is not None:
            fails.append(f"signalling witness with trace distance "
                         f"{output.trace_distance:.2e}")
        fails += self._image_norms(item)
        fails += self._oracle_gate(item["g"])
        return fails

    def _image_norms(self, item):
        key = ("norms", id(item))
        if key not in self.memo:
            fails = []
            for name in ("a", "b"):
                norm = qm.apply_block(item[name], item["g"]).norm()
                if not abs(norm - 1.0) <= NORM_TOL:
                    fails.append(f"image of state {name} has norm {norm:.12f}")
            self.memo[key] = fails
        return self.memo[key]

    def _oracle_gate(self, g):
        """apply_block against apply_window on the dense w=4 window, on
        basis states of support <= 2 inside the window's slack."""
        key = ("oracle", id(g))
        if key not in self.memo:
            window = qm.window_matrix(g, 4)
            fails = []
            for state in self.memo["probes"]:
                gap = qm.apply_block(state, g).distance(qm.apply_window(window, state))
                if not gap <= GATE_TOL:
                    fails.append(f"apply_block differs from apply_window on "
                                 f"{next(iter(state.terms))} by {gap:.2e}")
            self.memo[key] = fails
        return self.memo[key]


# One command of the CLI session: its argv (spec names are resolved in the
# temp directory) and what its report must say.
CLI_SESSION = [
    (("verify", "@xor.json", "--window", "8"), "nonlocal"),
    (("verify", "@toffoli.json", "--window", "8", "--boundary", "periodic"), [0, 2]),
    (("verify", "@toffoli_grouped.json", "--window", "4", "--boundary", "periodic"), [0, 1]),
    (("verify", "@swap.json"), [0, 1]),
    (("simulate", "@shift.json", "--state", "@excitation.json", "--steps", "3"), "shifted"),
    (("signal", "@xor.json", "--state-a", "@xor_plus.json", "--state-b", "@xor_minus.json",
      "--probe", "0", "--context", "0,1"), "witness"),
]
SMALL_SESSION = [CLI_SESSION[i] for i in (0, 3, 4, 5)]
SPEC_FILES = {"xor.json": True, "toffoli.json": True, "toffoli_grouped.json": True,
              "swap.json": False, "shift.json": False}  # name -> classical
STATE_FILES = ("excitation.json", "xor_plus.json", "xor_minus.json")


@dataclass
class VerifySpecs(Workload):
    """One task is a CLI session: in-process ``qcablocks.cli.main`` on a fixed
    list of commands over relabelled copies of the shipped specs."""

    def build(self, rng):
        tmp = self.root / ".perfbench-out" / f"specs-{os.getpid()}"
        tmp.mkdir(parents=True, exist_ok=True)
        self.memo["tmp"] = tmp
        renames = {}
        for name, classical in SPEC_FILES.items():
            spec = qser.load(self.root / "specs" / name)
            if classical:
                renames[name] = symbol_relabelling(rng, spec)
                spec = relabel_rule(spec, renames[name])
            qser.dump(spec, tmp / name)
        for name in STATE_FILES:
            state = qser.load(self.root / "specs" / "states" / name)
            if name.startswith("xor"):
                state = relabel_state(state, renames["xor.json"])
            qser.dump(state, tmp / name)
        session = CLI_SESSION if self.size == "full" else SMALL_SESSION
        argvs = [[str(tmp / a[1:]) if a.startswith("@") else a for a in argv]
                 for argv, _ in session]
        return [{"argvs": argvs, "expect": [e for _, e in session]}]

    def close(self) -> None:
        tmp = self.memo.pop("tmp", None)
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    def task(self, item):
        out = []
        for argv in item["argvs"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = qcli.main(argv)
            out.append((code, buf.getvalue()))
        return out

    def check(self, item, output):
        fails = []
        for argv, expect, (code, text) in zip(item["argvs"], item["expect"], output):
            why = _cli_mismatch(expect, code, json.loads(text))
            if why:
                fails.append(f"{argv[0]} {Path(argv[1]).name}: {why}")
        return fails


def _cli_mismatch(expect, code: int, report: dict) -> str | None:
    if isinstance(expect, list):
        if code != 0 or report.get("status") != "local" or report.get("neighborhood") != expect:
            return f"exit {code}, report {report}, expected local {expect}"
    elif expect == "nonlocal":
        wit = report.get("witness")
        if code != 1 or report.get("status") != "nonlocal" or not wit \
                or not wit["trace_distance"] > SIGNAL_TOL:
            return f"exit {code}, status {report.get('status')}, expected a witness"
    elif expect == "shifted":
        # the shift moves the excitation at cell 3 one cell left per step
        if code != 0 or report.get("terms") != [{"cells": {"0": "1"}, "amp": [1.0, 0.0]}]:
            return f"exit {code}, terms {report.get('terms')}, expected one excitation at 0"
    elif expect == "witness":
        if code != 1 or report.get("witness") is not True \
                or not abs(report.get("trace_distance", 0.0) - 1.0) <= SIGNAL_TOL:
            return f"exit {code}, report {report}, expected trace distance 1"
    return None


WORKLOADS = {
    "decompose_onehot": DecomposeOneHot,
    "locality_dense": LocalityDense,
    "evolve_block": EvolveBlock,
    "verify_specs": VerifySpecs,
}
