"""The benchmark's own tests (not part of the repository test suite).

Run from the repository root::

    python3 -m pytest -q spbench/selftest.py

Each smoke run starts real workloads (bundle builds, a server process), so
the module takes a few minutes.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from spbench import run as bench_run  # noqa: E402
from spbench import serving  # noqa: E402
from spbench.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "spbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _check_schema(result: dict, declared) -> None:
    assert set(result) == RESULT_KEYS
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {metric.name for metric in declared}
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric.unit
        assert isinstance(entry["value"], float)


def test_benchmark_json_matches_declarations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"][:2] == ["python3", "spbench/run.py"]
    assert spec["paths"] == ["spbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (m.name, m.unit, m.better) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [name for name, _ in WORKLOADS])
def test_smoke_run_prints_a_valid_result(workload, trace):
    done = _bench("--workload", workload, "--seed", "7", "--seconds", "2", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    _check_schema(result, PER_LAYER if trace else END_TO_END)
    assert result["correct"] is True and result["failed"] == 0
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "spbench", tmp_path / "spbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "render-frames", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _run_in_process(capsys, *args: str) -> tuple:
    code = bench_run.main(list(args))
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_corrupted_frames_fail_serve_render(monkeypatch, capsys):
    fetch = serving.fetch_frame

    async def corrupting_fetch(port, record):
        body = await fetch(port, record)
        if record.key[:2] == ("ficus", "dense"):
            body = bytes([body[0] ^ 0xFF]) + body[1:]
        return body

    monkeypatch.setattr(serving, "fetch_frame", corrupting_fetch)
    code, result = _run_in_process(capsys, "--workload", "serve-render", "--seed", "3",
                                   "--seconds", "2")
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_cache_hit_fails_serve_render(monkeypatch, capsys):
    render_requests = serving.render_requests

    def with_one_repeat(seed):
        warmup, streams = render_requests(seed)
        streams[0] = itertools.chain([warmup[0]], streams[0])  # already served: a hit
        return warmup, streams

    monkeypatch.setattr(serving, "render_requests", with_one_repeat)
    code, result = _run_in_process(capsys, "--workload", "serve-render", "--seed", "3",
                                   "--seconds", "2")
    assert code == 1
    assert result["correct"] is False
