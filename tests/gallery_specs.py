"""The shipped spec files, regenerated from the gallery: every automaton
under ``specs/`` and the signalling-state fixtures under ``specs/states/``.

Run ``PYTHONPATH=src python tests/gallery_specs.py specs`` to rewrite them;
test_serialize checks that the shipped files equal a fresh write."""
import os
import sys

import numpy as np

from qcablocks import serialize as ser
from qcablocks.gallery import (
    BINARY,
    phase_qca,
    shift_qca,
    swap_qca,
    toffoli_ca,
    xor_ca,
)
from qcablocks.model import SparseState, config_from_cells, group_cells
from qcablocks.rand import default_alphabet


def xor_signalling_pair(block_len: int, start: int = 1):
    """The phase pair exposing the XOR quantization's non-locality.

    Both states put an equal-weight superposition of all-0 and all-1 words
    on cells [start, start+block_len-1], differing only in the relative
    sign.  Their restrictions to any proper subset of the block coincide,
    yet one step maps them to |+> versus |-> on the output cell just left
    of the block: a unit trace-distance signal whose strength is
    independent of the block length.

    Returns ``(state_plus, state_minus, probe_cell, context_cells)`` with
    the probe at start-1 and the radius-1/2 context {probe, probe+1}.
    """
    zeros = config_from_cells(BINARY, {start + i: "0" for i in range(block_len)})
    ones = config_from_cells(BINARY, {start + i: "1" for i in range(block_len)})
    amp = 1.0 / np.sqrt(2.0)
    plus = SparseState(BINARY, {zeros: amp, ones: amp})
    minus = SparseState(BINARY, {zeros: amp, ones: -amp})
    probe = start - 1
    return plus, minus, probe, (probe, probe + 1)


def write_gallery_specs(directory) -> list:
    """Write every shipped automaton (and the signalling state fixtures)
    as JSON spec files under ``directory``; returns the paths written."""
    os.makedirs(os.path.join(directory, "states"), exist_ok=True)
    written = []

    def put(name, obj):
        path = os.path.join(directory, name)
        ser.dump(obj, path)
        written.append(path)

    put("xor.json", ser.rule_to_json(xor_ca()))
    put("toffoli.json", ser.rule_to_json(toffoli_ca()))
    put("toffoli_grouped.json", ser.rule_to_json(group_cells(toffoli_ca(), 2)))
    put("shift.json", ser.block_to_json(shift_qca()))
    put("swap.json", ser.block_to_json(swap_qca()))
    put("phase.json", ser.block_to_json(phase_qca()))
    put("kari.json", {"kind": "classical2d", "bits": 9, "rule": "kari"})
    plus, minus, _, _ = xor_signalling_pair(4)
    put(os.path.join("states", "xor_plus.json"), ser.state_to_json(plus))
    put(os.path.join("states", "xor_minus.json"), ser.state_to_json(minus))
    excitation = SparseState.from_cells(default_alphabet(2), {3: "1"})
    put(os.path.join("states", "excitation.json"), ser.state_to_json(excitation))
    return written


if __name__ == "__main__":
    for path in write_gallery_specs(sys.argv[1]):
        print(path)
