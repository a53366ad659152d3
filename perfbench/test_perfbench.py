"""Self-test of the benchmark at reduced size.

Run from the repository root with ``python -m pytest perfbench -q``.
It checks that ``BENCHMARK.json`` and the code agree, that every metric
it names is emitted with its unit on every workload, that a full-size
run has the open-loop sample counts its percentiles need, that the
correctness gate fails on a perturbed answer, and that the command
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from check import check_queries  # noqa: E402
from loadgen import Client  # noqa: E402
from tracing import LEDGER  # noqa: E402
from workloads import CLOSED, WORKLOADS, KeyStream  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REDUCED_SECONDS = "2"


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _e2e, _wls) in LEDGER.items()
    }
    e2e = set(run.END_TO_END_UNITS) | set(run.REPORTED_TAILS) | {"failed"}
    for name, (_u, _b, target, workloads) in LEDGER.items():
        assert target in e2e, name
        assert set(workloads) <= set(WORKLOADS), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_full_size_open_loop_has_enough_samples(name):
    wl = WORKLOADS[name]
    open_s = SPEC["run_seconds"] * (1 - run.CLOSED_SHARE)
    batches = int(open_s * wl.offered_items_per_s / wl.batch)
    queries = batches // wl.query_every
    assert batches >= run.MIN_INGEST_SAMPLES
    assert queries >= run.MIN_QUERY_SAMPLES


def _run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", REDUCED_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_with_unit(name, trace):
    proc, result = _run(name, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _perturb(wl, answer):
    if wl.kind == "bf":
        return ~np.asarray(answer)
    return np.zeros_like(np.asarray(answer))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_fails_on_perturbed_answer(name, tmp_path):
    wl = WORKLOADS[name]
    engine, ckpt = wl.build(tmp_path)
    try:
        drv = Client(wl, engine, ckpt, KeyStream(wl.keys, 3, CLOSED), 3)
        for _ in range(48):
            keys = drv.next_batch()
            has_query = drv.query_due()
            drv.ingest(keys)
            if has_query:
                drv.query(drv.probe_keys(keys))
    finally:
        engine.close()
    assert drv.queries
    stream = KeyStream(wl.keys, 3, CLOSED)
    assert check_queries(wl, stream, drv.queries).failed == 0
    drv.queries[-1].answer = _perturb(wl, drv.queries[-1].answer)
    assert check_queries(wl, stream, drv.queries).failed >= 1


def test_command_fails_on_a_wrong_answer(monkeypatch, capsys):
    import check as check_mod

    real = check_mod.check_queries

    def perturbed(wl, stream, queries, skipped=()):
        queries[0].answer = _perturb(wl, queries[0].answer)
        return real(wl, stream, queries, skipped)

    monkeypatch.setattr(check_mod, "check_queries", perturbed)
    status = run.run_workload(WORKLOADS["cm-serial-zipf"], 5, 1.0, False)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cm-serial-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
