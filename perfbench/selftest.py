"""Tests of the benchmark itself, at the smallest size of each workload.

    python3 -m pytest perfbench/selftest.py -q

(Named so that the package's own test collection does not pick it up.)
"""
import json

import numpy as np
import pytest

import run

WORKLOADS = ["decompose_onehot", "locality_dense", "evolve_block", "verify_specs"]


def small_run(workload, trace):
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--size", "small"])
    return run.run(args)


def test_benchmark_json_lists_what_the_run_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_passes_and_reports_end_to_end(workload):
    record, result = small_run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["fail_ratio"]["value"] == 0
    assert record["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    _, result = small_run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    assert run.tail(samples) == {"value": 20.0, "percentile": 66.67, "samples": 30,
                                 "samples_beyond": 10}
    assert run.tail([3.0, 1.0, 2.0])["value"] == 3.0


def _on_cells(u2, d, w, cells):
    """Embed an operator on two cells of a w-cell window (identity elsewhere)."""
    rest = [c for c in range(w) if c not in cells]
    order = list(cells) + rest
    perm = np.transpose(np.arange(d**w).reshape([d] * w), order).ravel()
    out = np.zeros((d**w, d**w), dtype=np.complex128)
    out[np.ix_(perm, perm)] = np.kron(u2, np.eye(d ** len(rest)))
    return out


def test_gate_counts_a_nonlocal_window_as_failed():
    workloads = run.import_program()
    qm = workloads.qm
    wl = workloads.LocalityDense(run.ROOT, "small")
    rng = np.random.default_rng(7)
    item = wl.build(rng)[0]
    op = item["op"]
    d = op.alphabet.d
    # couple cells 0 and 2 before the evolution: output cell 1 then depends on
    # input cells 0..2, outside the radius-1/2 neighborhood (0, 1)
    mixer = _on_cells(workloads.haar_unitary(rng, d * d), d, op.width, (0, 2))
    bad = dict(item, op=qm.WindowOperator(op.alphabet, op.width, op.dense() @ mixer,
                                          boundary=op.boundary))
    records, _ = run.run_loop(wl, [item, bad], 0, count=2)
    run.check_all(wl, [item, bad], records)
    assert records[0]["failures"] == []
    assert records[1]["failures"]
