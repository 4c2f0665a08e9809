"""Round-trips through the JSON wire formats and the shipped spec files."""
import json
import os

import numpy as np
import pytest

from gallery_specs import write_gallery_specs
from random_inputs import random_block_qca, random_sparse_state
from qcablocks import serialize as ser
from qcablocks.errors import DimensionMismatch, PreconditionViolated
from qcablocks.gallery import swap_qca, toffoli_ca, xor_ca
from qcablocks.model import BlockQCA, ClassicalRule, WindowOperator, window_matrix

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")


def test_matrix_literal_roundtrip():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    again = ser.matrix_from_json(json.loads(json.dumps(ser.matrix_to_json(m))))
    assert np.array_equal(m, again)


def test_matrix_literal_rejects_bad_count():
    with pytest.raises(DimensionMismatch):
        ser.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})


def test_rule_roundtrip():
    rule = xor_ca()
    again = ser.qca_from_json(json.loads(json.dumps(ser.rule_to_json(rule))))
    assert isinstance(again, ClassicalRule)
    assert np.array_equal(rule.table, again.table)
    assert rule.alphabet == again.alphabet


def test_block_roundtrip():
    g = random_block_qca(4, 2, 2, seed=3)
    again = ser.qca_from_json(json.loads(json.dumps(ser.block_to_json(g))))
    assert isinstance(again, BlockQCA)
    assert np.allclose(g.u, again.u) and np.allclose(g.v, again.v)
    assert np.allclose(g.q1, again.q1) and np.allclose(g.q2, again.q2)


def test_window_roundtrip():
    op = window_matrix(swap_qca(), 3)
    again = ser.qca_from_json(json.loads(json.dumps(ser.window_to_json(op))))
    assert isinstance(again, WindowOperator)
    assert again.boundary == "periodic"
    assert np.allclose(op.dense(), again.dense())


def test_state_roundtrip():
    rule = toffoli_ca()
    state = random_sparse_state(rule.alphabet, range(-1, 2), 5, seed=4)
    again = ser.state_from_json(json.loads(json.dumps(ser.state_to_json(state))))
    assert state.distance(again) <= 1e-15


def test_unknown_kind_rejected():
    with pytest.raises(PreconditionViolated):
        ser.qca_from_json({"kind": "wibble"})


def test_shipped_specs_match_generators(tmp_path):
    write_gallery_specs(tmp_path)
    for name in ("xor.json", "toffoli.json", "toffoli_grouped.json",
                 "shift.json", "swap.json", "phase.json", "kari.json"):
        shipped = ser.load(os.path.join(SPEC_DIR, name))
        fresh = ser.load(tmp_path / name)
        assert shipped == fresh, f"{name} out of date; regenerate with write_gallery_specs"
    for name in ("xor_plus.json", "xor_minus.json", "excitation.json"):
        shipped = ser.load(os.path.join(SPEC_DIR, "states", name))
        fresh = ser.load(tmp_path / "states" / name)
        assert shipped == fresh
