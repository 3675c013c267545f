"""`scripts/bench_record.py`, which writes every `BENCH_*.json`, with its
benchmark runs replaced by synthetic results: the order of the runs, the
pair count, the line counts and the merge into an existing file; and the
modules each invocation loads, on a stand-in package."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

# per side, the value of every end-to-end metric at seeds 1, 2, 3: the change
# wins wall_norm at seed 1, ties at seed 2 and loses at seed 3; it wins every
# pair of peak_rss_mb and ties every pair of setup_s
VALUES = {
    "parent": {"wall_norm": [1.0, 1.0, 1.0], "peak_rss_mb": [20.0] * 3, "setup_s": [0.1] * 3},
    "change": {"wall_norm": [0.9, 1.0, 1.1], "peak_rss_mb": [19.0] * 3, "setup_s": [0.1] * 3},
}


def test_pairs_alternate_and_the_record_merges(tmp_path, monkeypatch):
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for lines, path in zip((3, 5), sides.values()):
        pkg = path / "src" / "tlcox"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("x\n" * lines)
        (pkg / "b.py").write_text("y\n")
        (pkg / "notes.txt").write_text("not counted\n")
    calls = []

    def run(checkout, workload, seed, seconds, trace):
        side = next(s for s, path in sides.items() if path == checkout)
        calls.append((side, seed, trace))
        assert (workload, seconds) == ("products", 40)
        return {"correct": True, "failed": 0,
                "metrics": {name: {"value": VALUES[side][name][seed - 1]}
                            for name in bench_record.END_TO_END}}

    monkeypatch.setattr(bench_record, "run", run)
    monkeypatch.setattr(bench_record, "load", lambda checkout, workload: [
        {"argv": [checkout.name, workload], "modules": {}, "lines": 0}])
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"full-group": {"kept": True}}))
    assert bench_record.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]),
                              "--workload", "products", "--seeds", "1", "2", "3",
                              "--traced", "2", "--out", str(out)]) == 0
    assert calls == [("parent", 1, 0), ("change", 1, 0), ("change", 2, 0), ("parent", 2, 0),
                     ("parent", 3, 0), ("change", 3, 0), ("parent", 2, 1), ("change", 2, 1)]
    record = json.loads(out.read_text())
    assert record["full-group"] == {"kept": True}
    entry = record["products"]
    metrics = entry["metrics"]
    assert {name: metrics[name]["change_wins"] for name in bench_record.END_TO_END} == \
        {"wall_norm": 1, "peak_rss_mb": 3, "setup_s": 0}
    assert all(metrics[name]["pairs"] == 3 for name in bench_record.END_TO_END)
    assert metrics["wall_norm"]["change"]["median"] == 1.0
    assert entry["src_lines"] == {"parent": 4, "change": 6}
    assert entry["correct"] is True
    assert [r["metrics"]["wall_norm"]["value"] for r in entry["runs"]["change"]] == [0.9, 1.0, 1.1]
    assert set(entry["traced"]) == {"parent", "change"}
    assert entry["load"] == {side: [{"argv": [side, "products"], "modules": {}, "lines": 0}]
                             for side in sides}


CLI = """\
import sys


def main(argv):
    if argv == ["deep"]:
        import tlcox.engine
    print("output")
    return 1
"""


def test_load_lists_the_modules_each_invocation_holds(tmp_path):
    # one fresh interpreter per invocation of the checkout's workload list,
    # in listed order; the modules it holds after the command, with their
    # lines, not those it never imported, and no bytecode cache written
    pkg = tmp_path / "src" / "tlcox"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text(CLI)
    (pkg / "engine.py").write_text("a = 1\nb = 2\n")
    (pkg / "unused.py").write_text("c = 3\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        'WORKLOADS = {"w": [(("deep",), 1, "x"), (("flat", "--x"), 1, "y")], "v": []}\n')
    cli_lines = CLI.count("\n")
    assert bench_record.load(tmp_path, "w") == [
        {"argv": ["deep"], "modules": {"tlcox": 0, "tlcox.cli": cli_lines, "tlcox.engine": 2},
         "lines": cli_lines + 2},
        {"argv": ["flat", "--x"], "modules": {"tlcox": 0, "tlcox.cli": cli_lines},
         "lines": cli_lines},
    ]
    assert not (pkg / "__pycache__").exists()
