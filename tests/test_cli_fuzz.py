"""Every file a command reads, edited line by line and fed back through ``cli.main``.

Each property starts from a file the program wrote (one short run, its
trajectory and the rules distilled from it), applies a few line edits
(drop, duplicate or truncate a line; empty or replace one of its fields)
and runs the command that reads the file. The command must exit 0, or
exit 2 with one ``pursuitrl: <path>...`` line naming the edited file; no
other exception may escape. A defect found this way is mended and pinned
by a named test in ``test_cli.py``.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pursuitrl import cli


def run(argv):
    """``(exit code, stderr)`` of one command, its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The files of one short run and of the rules extracted from it."""
    root = tmp_path_factory.mktemp("written")
    (root / "small.cfg").write_text("step_cap = 40\nblock_ends = 1,3\n")
    assert run(["train", "--config", root / "small.cfg", "--trials", 3, "--seed", 1,
                "--dump-trajectory", 2, "--out", root / "run"]) == (0, "")
    assert run(["extract-rules", "--instances", root / "run" / "instances.csv",
                "--out", root / "rules.txt"]) == (0, "")
    return root


# input -> (the written file it starts from, its field separator, the command
# that reads it: argv from (edited file, work directory, written root))
INPUTS = {
    "config": ("run/metadata.txt", "=", lambda path, work, root: [
        "train", "--config", path, "--trials", 3, "--out", work / "out"]),
    "rules": ("rules.txt", " ", lambda path, work, root: [
        "eval-rules", "--rules", path, "--config", root / "small.cfg", "--trials", 2,
        "--seed", 1, "--out", work / "out"]),
    "instances": ("run/instances.csv", ",", lambda path, work, root: [
        "extract-rules", "--instances", path, "--out", work / "rules.txt"]),
    "trajectory": ("run/trajectory.csv", ",", lambda path, work, root: [
        "replay", "--trajectory", path]),
    "blocks": ("run/blocks.csv", ",", lambda path, work, root: [
        "report", "--runs", work]),
}

TOKENS = ("", " ", "0", "1", "-1", "2", "3", "7", "0.5", "-0.5", "1e-9", "nan", "inf", "none",
          "true", "x", "1,2", "3,1", "up", "stay", "h0", "p1", "theta_X", "<=", "CF=1.0", "No.1")

EDITS = st.lists(st.tuples(
    st.sampled_from(("drop", "duplicate", "truncate", "empty", "replace")),
    st.one_of(st.integers(0, 3), st.integers(0, 10 ** 6)),      # the line; the head often
    st.integers(0, 10 ** 6),                                    # the field or cut
    st.sampled_from(TOKENS)), min_size=1, max_size=3)


def edit(text, separator, edits):
    """``text`` with ``edits`` applied in turn, its line ending kept."""
    newline = "\r\n" if "\r\n" in text else "\n"
    lines = text.splitlines()
    for kind, at, where, token in edits:
        if not lines:
            break
        i = at % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][:where % (len(lines[i]) + 1)]
        else:
            fields = lines[i].split(separator)
            fields[where % len(fields)] = "" if kind == "empty" else token
            lines[i] = separator.join(fields)
    return "".join(line + newline for line in lines)


@pytest.mark.parametrize("name", INPUTS)
@settings(max_examples=100, deadline=None)
@given(edits=EDITS)
def test_an_edited_input_is_run_or_named(written, name, edits):
    source, separator, command = INPUTS[name]
    work = Path(tempfile.mkdtemp(dir=written))
    try:
        path = work / Path(source).name
        text = (written / source).read_bytes().decode()     # "\r\n" kept
        path.write_bytes(edit(text, separator, edits).encode())
        if name == "trajectory":            # replay reads the grid side beside it
            shutil.copy(written / "run" / "metadata.txt", work)
        code, err = run(command(path, work, written))
        if code != 0:
            assert code == 2 and err.count("\n") == 1, (code, err)
            assert err.startswith(f"pursuitrl: {path}"), err
    finally:
        shutil.rmtree(work)
