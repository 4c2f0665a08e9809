"""Command-line behavior: subcommands, exit codes, report shapes."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qcablocks import serialize as ser
from qcablocks.cli import main
from qcablocks.rand import conjugated_factor_generators

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")


def spec(name):
    return os.path.join(SPEC_DIR, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_verify_xor_nonlocal(capsys):
    code, report = run(capsys, "verify", spec("xor.json"), "--window", "8")
    assert code == 1
    assert report["status"] == "nonlocal"
    assert report["unitary"] and report["shift_invariant"]
    assert report["witness"]["trace_distance"] > 1e-9


def test_verify_shift_local(capsys):
    code, report = run(capsys, "verify", spec("shift.json"))
    assert code == 0
    assert report["status"] == "local"
    lo, hi = report["neighborhood"]
    assert 0 <= lo <= hi <= 1


def test_verify_swap_window_local(capsys):
    code, report = run(capsys, "verify", spec("swap.json"), "--window", "4")
    assert code == 0
    assert report["status"] == "local"


def test_verify_block_checks_unitarity_at_requested_tol(tmp_path, capsys):
    # scaling a non-quiescent column of u leaves the gauge exact and makes u
    # unitary only to ~4e-7, inside the constructor's gauge tolerance 1e-6
    from qcablocks import linalg as la
    from qcablocks.gallery import swap_qca
    from qcablocks.model import BlockQCA
    g = swap_qca()
    u = g.u.copy()
    u[:, 1] *= 1 + 2e-7
    loose = BlockQCA(g.alphabet, g.p, g.q, u, g.v, g.q1, g.q2)
    assert 1e-7 < la.max_norm(la.dagger(u) @ u - np.eye(g.d)) < 1e-6
    path = tmp_path / "loose.json"
    ser.dump(ser.qca_to_json(loose), path)
    code, report = run(capsys, "verify", str(path), "--tol", "1e-12")
    assert code == 1
    assert report["unitary"] is False
    code, report = run(capsys, "verify", str(path), "--tol", "1e-5")
    assert code == 0
    assert report["unitary"] is True and report["status"] == "local"


def test_verify_shipped_block_exact_at_tight_tol(capsys):
    code, report = run(capsys, "verify", spec("swap.json"), "--tol", "1e-12")
    assert code == 0
    assert report["unitary"] is True
    assert report["status"] == "local"


def test_verify_missing_file_exit_2(capsys):
    code, report = run(capsys, "verify", spec("missing.json"))
    assert code == 2
    assert report["error"] == "ParseFailure"


def test_verify_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run(capsys, "verify", str(bad))
    assert code == 2


def test_decompose_toffoli_grouped(tmp_path, capsys):
    out = tmp_path / "dec.json"
    code = main(["decompose", spec("toffoli_grouped.json"), "--window", "4",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out.read_text())
    assert report["certification"]["residual"] <= 1e-7
    assert report["p"] * report["q"] == 16
    # the output re-verifies as a local block automaton
    code2, report2 = run(capsys, "verify", str(out))
    assert code2 == 0
    assert report2["status"] == "local"
    lo, hi = report2["neighborhood"]
    assert 0 <= lo <= hi <= 1


def test_decompose_xor_not_local(capsys):
    code, report = run(capsys, "decompose", spec("xor.json"), "--window", "4")
    assert code == 1
    assert report["error"] == "NotLocal"


def test_decompose_xor_names_unbounded_borders(capsys):
    # XOR is injective on finite configurations: its truncated window is a
    # permutation, and only the ring loses unitarity
    code, report = run(capsys, "decompose", spec("xor.json"), "--window", "4")
    assert code == 1
    assert "bijective only through unbounded borders" in report["message"]


def test_decompose_mirrored_xor_names_unbounded_borders(tmp_path, capsys):
    # the XOR mirrored left to right, δ(q, x) = q: injective on finite
    # configurations through the image cell that spills over the right
    # edge of the window, which the truncated window does not keep
    from qcablocks.model import ClassicalRule
    from qcablocks.rand import default_alphabet
    rule = ClassicalRule(default_alphabet(3), np.array([[0, 0, 0], [1, 1, 2], [2, 2, 1]]))
    path = tmp_path / "mirrored_xor.json"
    ser.dump(ser.qca_to_json(rule), path)
    code, report = run(capsys, "decompose", str(path), "--window", "4")
    assert code == 1
    assert "bijective only through unbounded borders" in report["message"]


def test_decompose_constant_rule_is_not_injective(tmp_path, capsys):
    # delta = q sends every configuration to the quiescent one
    from qcablocks.model import ClassicalRule
    from qcablocks.rand import default_alphabet
    rule = ClassicalRule(default_alphabet(3), np.zeros((3, 3), dtype=np.int64))
    path = tmp_path / "constant.json"
    ser.dump(ser.qca_to_json(rule), path)
    code, report = run(capsys, "decompose", str(path), "--window", "4")
    assert code == 1
    assert report["error"] == "NotLocal"
    assert "not injective on finite configurations of a 4-cell window" in report["message"]
    assert "unbounded borders" not in report["message"]


def test_simulate_shift_displaces_support(capsys):
    code, report = run(capsys, "simulate", spec("shift.json"),
                       "--state", spec("states/excitation.json"), "--steps", "3")
    assert code == 0
    assert report["terms"][0]["cells"] == {"0": "1"}


def test_simulate_zero_steps_echoes(capsys):
    code, report = run(capsys, "simulate", spec("shift.json"),
                       "--state", spec("states/excitation.json"), "--steps", "0")
    assert code == 0
    original = ser.load(spec("states/excitation.json"))
    assert report["terms"] == original["terms"]


def test_simulate_vacuum_stays_vacuum(tmp_path, capsys):
    from qcablocks.gallery import swap_qca
    from qcablocks.model import SparseState
    vac = tmp_path / "vacuum.json"
    vac.write_text(json.dumps(ser.state_to_json(
        SparseState.vacuum(swap_qca().alphabet))))
    code, report = run(capsys, "simulate", spec("swap.json"),
                       "--state", str(vac), "--steps", "5")
    assert code == 0
    assert report["terms"] == [{"cells": {}, "amp": [1.0, 0.0]}]


def test_block_spec_with_wrong_entry_count_exit_2(tmp_path, capsys):
    obj = ser.load(spec("swap.json"))
    del obj["u"]["entries"][-1]
    path = tmp_path / "swap_short.json"
    ser.dump(obj, path)
    for command in ("verify", "decompose"):
        code, report = run(capsys, command, str(path))
        assert code == 2
        assert report["error"] == "ParseFailure"
        assert "entries" in report["message"]


def test_state_symbol_outside_alphabet_exit_2(capsys):
    # excitation.json names symbol "1"; the swap block's symbols are 01, 10, 11
    code, report = run(capsys, "simulate", spec("swap.json"),
                       "--state", spec("states/excitation.json"))
    assert code == 2
    assert report["error"] == "ParseFailure"
    assert "unknown symbol '1'" in report["message"]


def test_simulate_kind_mismatch_exit_2(capsys):
    code, report = run(capsys, "simulate", spec("kari.json"),
                       "--state", spec("states/excitation.json"))
    assert code == 2


def test_signal_xor_fixture(capsys):
    code, report = run(capsys, "signal", spec("xor.json"),
                       "--state-a", spec("states/xor_plus.json"),
                       "--state-b", spec("states/xor_minus.json"),
                       "--probe", "0", "--context", "0,1")
    assert code == 1
    assert report["trace_distance"] == pytest.approx(1.0, abs=1e-9)


def test_signal_block_control_no_witness(tmp_path, capsys):
    # the same fixtures adapted to the shift automaton produce no signal:
    # encode the two branches over the shift alphabet
    from qcablocks.gallery import shift_qca
    from qcablocks.model import SparseState, config_from_cells
    g = shift_qca()
    zeros = config_from_cells(g.alphabet, {})
    ones = config_from_cells(g.alphabet, {1: "1", 2: "1", 3: "1"})
    amp = 1 / np.sqrt(2)
    plus = tmp_path / "p.json"
    minus = tmp_path / "m.json"
    plus.write_text(json.dumps(ser.state_to_json(
        SparseState(g.alphabet, {zeros: amp, ones: amp}))))
    minus.write_text(json.dumps(ser.state_to_json(
        SparseState(g.alphabet, {zeros: amp, ones: -amp}))))
    code, report = run(capsys, "signal", spec("shift.json"),
                       "--state-a", str(plus), "--state-b", str(minus),
                       "--probe", "0", "--context", "0,1")
    assert code == 0
    assert report["trace_distance"] <= 1e-9


def test_signal_mismatched_context_exit_2(tmp_path, capsys):
    from qcablocks.gallery import xor_ca
    from qcablocks.model import SparseState
    rule = xor_ca()
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(ser.state_to_json(
        SparseState.from_cells(rule.alphabet, {1: "0"}))))
    b.write_text(json.dumps(ser.state_to_json(
        SparseState.from_cells(rule.alphabet, {1: "1"}))))
    code, report = run(capsys, "signal", spec("xor.json"),
                       "--state-a", str(a), "--state-b", str(b),
                       "--probe", "0", "--context", "1,2")
    assert code == 2


def test_algebra_factor_roundtrip(tmp_path, capsys):
    gens, _ = conjugated_factor_generators(2, 3, seed=17)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(ser.algebra_spec_to_json(6, gens)))
    code, report = run(capsys, "algebra-factor", str(path))
    assert code == 0
    assert (report["p"], report["q"]) == (2, 3)
    assert report["residual"] <= 1e-8


def test_algebra_factor_nontrivial_center_exit_1(tmp_path, capsys):
    diag = np.diag([1.0, 0.0]).astype(complex)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(ser.algebra_spec_to_json(2, [diag])))
    code, report = run(capsys, "algebra-factor", str(path))
    assert code == 1
    assert report["error"] == "NontrivialCenter"


@pytest.mark.parametrize("spec_obj", [
    {"n": "two", "generators": []},
    {"n": 1, "generators": [{"rows": 1, "cols": 1, "entries": [[1, 0, 0]]}]},
    # a matrix literal with the wrong entry count
    {"n": 2, "generators": [{"rows": 2, "cols": 2, "entries": [[1, 0]]}]},
    # generators whose shape disagrees with "n"
    {"n": 3, "generators": [ser.matrix_to_json(np.eye(2))]},
])
def test_algebra_factor_malformed_spec_exit_2(tmp_path, capsys, spec_obj):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(spec_obj))
    code, report = run(capsys, "algebra-factor", str(path))
    assert code == 2
    assert report["error"] == "ParseFailure"


def test_decompose_honours_tol(tmp_path, capsys):
    # scaling a non-quiescent column of u by 1 + 1e-9 keeps the gauge exact
    # and leaves the w=4 window unitary only to ~8e-9: inside the library
    # default 1e-8, outside the CLI default --tol 1e-9
    from qcablocks.gallery import swap_qca
    from qcablocks.model import BlockQCA, window_matrix
    from qcablocks.verify import check_unitary
    g = swap_qca()
    u = g.u.copy()
    u[:, 1] *= 1 + 1e-9
    loose = BlockQCA(g.alphabet, g.p, g.q, u, g.v, g.q1, g.q2)
    op = window_matrix(loose, 4)
    assert check_unitary(op, 1e-8) and not check_unitary(op, 1e-9)
    path = tmp_path / "loose.json"
    ser.dump(ser.qca_to_json(loose), path)
    code, report = run(capsys, "decompose", str(path), "--window", "4")
    assert code == 1
    assert report["error"] == "PreconditionViolated"
    code, report = run(capsys, "decompose", str(path), "--window", "4", "--tol", "1e-8")
    assert code == 0
    assert report["certification"]["residual"] <= 1e-7


def test_reports_are_deterministic_given_seed(capsys):
    code1, rep1 = run(capsys, "decompose", spec("swap.json"), "--window", "4",
                      "--seed", "5")
    code2, rep2 = run(capsys, "decompose", spec("swap.json"), "--window", "4",
                      "--seed", "5")
    assert code1 == code2 == 0
    assert rep1 == rep2


@pytest.mark.parametrize("argv", [
    ["verify", "xor.json", "--window", "8"],
    ["decompose", "toffoli_grouped.json", "--window", "4"],
])
def test_commands_do_not_import_numpy_ma(argv):
    # np.unique imports numpy.ma on first use (about 25 ms per process);
    # bijectivity and grouping go through np.bincount and argsort instead
    script = ("import contextlib, io, sys\n"
              "from qcablocks.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    main(sys.argv[1:])\n"
              "print('numpy.ma' in sys.modules)\n")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    args = [argv[0], spec(argv[1])] + argv[2:]
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["verify", "toffoli_grouped.json", "--window", "4", "--boundary", "periodic"],
    ["verify", "xor.json", "--window", "8"],
    ["decompose", "toffoli_grouped.json", "--window", "4"],
])
def test_one_hot_commands_count_injectivity_once(monkeypatch, capsys, argv):
    # unitarity, then the neighborhood search or the decomposer, all read
    # the window's one injectivity count
    from qcablocks import model
    counted = []

    def spy(idx):
        counted.append(len(idx))
        return model_is_injective(idx)

    model_is_injective = model.is_injective
    monkeypatch.setattr(model, "is_injective", spy)
    main([argv[0], spec(argv[1])] + argv[2:])
    capsys.readouterr()
    assert len(counted) == 1, counted
