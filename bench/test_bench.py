"""Tests of the benchmark itself, at tiny sizes."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import run

run.import_pwham()

from pwham import cli  # noqa: E402
from workloads import DEFAULT_SEEDS, build_units  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

CHEAP_FIXTURES = ("global_center_saddle.pwham", "continuous_double_center.pwham")
TINY = {"bulk": 12, "bigcoef": 6, "annulus": 4}


def tiny_units(workload: str) -> list:
    seed = DEFAULT_SEEDS[workload]
    if workload == "cli_oracle":
        return [u for u in build_units(workload, seed, 9) if u[1] in CHEAP_FIXTURES]
    return build_units(workload, seed, TINY[workload])


def quiet(fn, *args, **kwargs):
    out = io.StringIO()
    with redirect_stdout(out):
        result = fn(*args, **kwargs)
    return result, out.getvalue()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_metric_without_failures(workload):
    units = tiny_units(workload)
    res, text = quiet(run.end_to_end, workload, DEFAULT_SEEDS[workload], 0.3, units,
                      own_setup=0.1, setup_repeats=0)
    assert {k: u for k, (_, u) in res["metrics"].items()} == END_TO_END
    assert all(v > 0 for v, _ in res["metrics"].values())
    assert res["attempted"] >= 1 and res["failed"] == 0
    for name in [*END_TO_END, "fail_ratio"]:
        assert name in text


def test_command_prints_result_json_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", "annulus",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == END_TO_END


def test_planted_wrong_oracle_point_is_counted_as_failure(monkeypatch):
    honest = cli.report_to_json

    def shifted(ps, rep, oracle=None):
        data = honest(ps, rep, oracle)
        for points in data.get("oracle", {}).values():
            points[:] = [y + 1e-3 for y in points]
        return data

    monkeypatch.setattr(cli, "report_to_json", shifted)
    units = [u for u in tiny_units("cli_oracle") if u[1] == "global_center_saddle.pwham"]
    res, text = quiet(run.end_to_end, "cli_oracle", 0, 0.0, units, own_setup=0.1,
                      setup_repeats=0)
    assert res["failed"] == res["attempted"] >= 1


def test_traced_counts_repeat_exactly(tmp_path):
    units = tiny_units("bulk") + tiny_units("cli_oracle")[:1]
    first, _ = quiet(run.traced, "mixed", units, str(tmp_path / "first.jsonl"))
    second, _ = quiet(run.traced, "mixed", units, str(tmp_path / "second.jsonl"))
    assert {k: u for k, (_, u) in first["metrics"].items()} == PER_LAYER
    counts = {k for k, (_, unit) in first["metrics"].items() if unit not in ("s", "s/s")}
    assert counts
    for k in counts:
        assert first["metrics"][k] == second["metrics"][k], k
    assert first["failed"] == second["failed"] == 0
    spans = (tmp_path / "first.jsonl").read_text().splitlines()
    assert len(spans) > len(units) and json.loads(spans[0])[0] == "unit"
