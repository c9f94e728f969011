"""README's library quick start and command-line section run as written."""

import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang, after):
    """The first fenced ``lang`` block after the line ``after``."""
    tail = README[README.index(after):]
    return re.search(rf"```{lang}\n(.*?)```", tail, re.S).group(1)


def test_every_command_line_example_exits_0(tmp_path):
    (tmp_path / "cfg.json").write_text(_block("json", "A run configuration file"))
    lines = [ln for ln in _block("bash", "## Command line").splitlines()
             if ln.startswith("schurhr ")]
    assert len(lines) == 14
    stated = {}
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        r = subprocess.run([sys.executable, "-m", "schurhr", *argv], cwd=tmp_path,
                           capture_output=True, text=True, timeout=600)
        assert r.returncode == 0, (line, r.stderr[-500:])
        # the comment states what the command prints
        if argv[0] == "schur":
            stated[comment.strip()] = r.stdout.strip()
        elif argv[0] == "kt" and comment:
            stated[comment.strip()] = ", ".join(json.loads(r.stdout)["sequence"]["values"])
    assert stated == {s: s for s in ("x1^2 + x1*x2 + x2^2", "c1^3 - 2*c1*c2 + c3",
                                     "16, 72, 81/4")}


def test_library_quick_start_prints_what_its_comments_state():
    code = _block("python", "## Library quick start")
    stated = [ln.partition("#")[2].strip() for ln in code.splitlines()
              if ln.startswith("print(")]
    assert len(stated) == 4 and all(stated)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == stated
