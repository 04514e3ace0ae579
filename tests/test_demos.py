"""Every demo script runs to completion, prints the pinned text and cleans
up its temporary files."""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# demo: SHA-256 of its stdout.  Demo 07 prints the path of its temporary
# directory, which is replaced by "<tmpdir>" before hashing.  Demo 03
# shows the tANS embedding through its C table and the converted table,
# which equals the case-3 table; the native tANS coder it once compared
# against is a test oracle now (tests/conftest.py), and its stream and
# Monte Carlo rate are the ones it printed before.
STDOUT_DIGESTS = {
    "01_backward_coding_basics":
        "a2d564e769995585c5378d5f2f865e57b9c53ca9589187d92564acd02e0bf9cb",
    "02_tree_based_tables":
        "a11826cb3056383fc671880cf39283df8dd9b33ab080bcaf237423653921ff84",
    "03_tabled_ans":
        "4da2967d4286541ffa4e1d5b01cee97f844e28e0b07404140890955d1cea8f5a",
    "04_state_divided_bounds":
        "235fa34f65c36de21cb4ed88e2192b8b2f03198e23265cc71b137eba69f8bb3f",
    "05_rate_convergence":
        "0734ae79f5556422a3e6cc22dc8e2ac2e38651ad317bd744510fb73f5225d84d",
    "06_uniform_sources":
        "9293fed7e3913944610b59dfb70aa6bbd42733c0c855eade158442df1d670f44",
    "07_file_compression":
        "5ef8891c7ee202fbdd4a90599520fba721ef908342ae6ecf1a41032a5bbcb334",
}


def test_all_seven_demos_found():
    assert len(DEMOS) == 7
    assert [demo.stem for demo in DEMOS] == sorted(STDOUT_DIGESTS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not any(tmpdir.iterdir()), "demo left files in its TMPDIR"
    stdout = re.sub(re.escape(os.path.join(str(tmpdir), "aeds-demo-"))
                    + r"\w+", "<tmpdir>", proc.stdout)
    assert hashlib.sha256(stdout.encode()).hexdigest() == \
        STDOUT_DIGESTS[demo.stem], stdout
