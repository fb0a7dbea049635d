"""Self-test of the benchmark harness at tiny scale.

    python3 -m pytest perfbench -q

Checks that every metric comes out with its unit, that the traced run
reports every per-layer metric, and that the correctness gate rejects a
corrupted prediction.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

TINY = 0.01


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_with_its_unit(workload, trace, tmp_path):
    result, env, errors = bench.run(workload, seed=1, seconds=0, trace=trace,
                                    scale=TINY, out=tmp_path)
    assert errors == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    for key in ("git_commit", "python", "numpy", "scipy", "nproc",
                "blas_threads", "seed", "train_impressions",
                "impressions_scored_per_cycle"):
        assert key in env
    if trace:
        assert (tmp_path / f"spans-{workload}-seed1.jsonl").stat().st_size > 0


def test_gate_rejects_corrupted_prediction_file(tmp_path):
    from msnetlab.metrics import PredictionRecord, write_predictions
    records = [PredictionRecord(user_id=i, item_id=i, p=0.25, y=i % 2,
                                is_new=False, is_limited=True, partition_id=0)
               for i in range(4)]
    y = [r.y for r in records]
    path = tmp_path / "p.tsv"
    write_predictions(records, path)
    bench.check_predictions(path, y)
    for bad in (math.nan, 0.0, 1.0, 1.5):
        records[2] = dataclasses.replace(records[2], p=bad)
        write_predictions(records, path)
        with pytest.raises(bench.GateError):
            bench.check_predictions(path, y)
    with pytest.raises(bench.GateError):
        bench.check_predictions(path, y + [0])


def test_run_counts_corrupted_predictions_as_failures(monkeypatch, tmp_path):
    """score-msnet calls model.predict directly; corrupt one probability."""
    predict = bench.model.predict

    def corrupted(*args, **kwargs):
        out = predict(*args, **kwargs)
        out[-1] = dataclasses.replace(out[-1], p=1.0)
        return out

    monkeypatch.setattr(bench.model, "predict", corrupted)
    result, _, errors = bench.run("score-msnet", seed=1, seconds=0,
                                  trace=False, scale=TINY, out=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert all("outside (0, 1)" in e for e in errors)


def test_cycle_that_differs_from_the_first_fails(tmp_path):
    class Drifting:
        tracer = None
        calls = 0

        def cycle(self):
            self.calls += 1
            return {"wall": 1.0, "loss": 0.5, "digest": str(self.calls)}

    cycles, errors = [], []
    bench.run_cycles(Drifting(), 0, cycles, errors, min_cycles=3)
    assert [c["ok"] for c in cycles] == [True, False, False]
    assert len(errors) == 2
