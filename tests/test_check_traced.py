"""`scripts/check_traced.py`, the gate on a traced benchmark run, on
synthetic run output: it passes a complete result and fails each way a run
can fall short."""

import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("check_traced", ROOT / "scripts" / "check_traced.py")
check_traced = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_traced)

DECLARED = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def run_output(correct=True, missing=(), drop=None):
    metrics = {name: {"value": 1.0} for name in DECLARED if name != drop}
    detail = {"workload": "products", "missing": list(missing)}
    result = {"correct": correct, "metrics": metrics}
    return f"log line\n{json.dumps(detail)}\n{json.dumps(result)}\n"


@pytest.mark.parametrize("stdin,code,reason", [
    (run_output(), 0, ""),
    (run_output(missing=["tl.c_mul"]), 1, "no longer exist: ['tl.c_mul']"),
    (run_output(drop=DECLARED[0]), 1, f"missing per-layer metrics: ['{DECLARED[0]}']"),
    (run_output(correct=False), 1, "correct is False"),
    (run_output() + "not json\n", 1, "the last line is not a JSON result"),
])
def test_exit_codes(monkeypatch, capsys, stdin, code, reason):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert check_traced.main() == code
    err = capsys.readouterr().err
    assert reason in err if reason else err == ""
