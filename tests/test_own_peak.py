"""`scripts/own_peak.py`, the launcher of the own-peak rows: a real
alternating run of `tlcox --version` on one checkout given as both sides,
and the chunked stdout digest and exit code of a child that writes more
than one chunk."""

import hashlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("own_peak", ROOT / "scripts" / "own_peak.py")
own_peak = importlib.util.module_from_spec(spec)
spec.loader.exec_module(own_peak)


def test_pairs_alternate_and_report_each_call(capsys):
    assert own_peak.main(["--parent", str(ROOT), "--change", str(ROOT), "--pairs", "2",
                          "--", "--version"]) == 0
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == ["parent", "change", "change", "parent",
                                           "parent median", "change median", "launcher"]
    digest = hashlib.sha256(b"tlcox 0.1.0\n").hexdigest()[:12]
    for line in lines[:6]:
        assert line[3:] == [digest, "exit 0"]
        assert line[1].endswith(" s") and line[2].endswith(" MB")
        assert float(line[2][:-3]) > 0


def test_stdout_is_hashed_in_chunks():
    size = 5 * own_peak.CHUNK + 7
    wall, peak, digest, code = own_peak.launch(
        [sys.executable, "-c", f"import sys; sys.stdout.write('x' * {size}); sys.exit(3)"])
    assert digest == hashlib.sha256(b"x" * size).hexdigest()[:12]
    assert code == 3 and wall > 0 and peak > 0
