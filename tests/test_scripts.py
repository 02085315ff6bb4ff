"""Smoke tests of the scripts in ``scripts/``: each runs at a tiny size and
exits 0, also when the reader of its stdout has gone away."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skolemgen

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(skolemgen.__file__).resolve().parents[1]


def _argv(name, tmp_path):
    args = {
        "open_level_growth.py": ["--max-n", "6"],
        "search_space_report.py": ["--order", "4"],
        "render_gallery.py": ["--order", "4", "--out-dir", str(tmp_path / "gallery")],
        "code_lines.py": [],
    }[name]
    return [sys.executable, str(ROOT / "scripts" / name), *args]


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


SCRIPTS = ["open_level_growth.py", "search_space_report.py", "render_gallery.py", "code_lines.py"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_runs_at_a_tiny_size(tmp_path, name):
    proc = subprocess.run(_argv(name, tmp_path), capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_reader_closing_after_one_line_is_a_normal_exit(tmp_path, name):
    # unbuffered, so each line is its own write and later ones can meet the
    # closed pipe; whether they do depends on timing, the next test does not
    proc = subprocess.Popen(
        _argv(name, tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_env(PYTHONUNBUFFERED="1"),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert first.strip()
    assert code == 0
    assert b"Traceback" not in err


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_into_closed_pipe_is_a_normal_exit(tmp_path, name):
    # the read end is closed before the script starts, so its first write
    # to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            _argv(name, tmp_path), stdout=write_end, stderr=subprocess.PIPE, env=_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert b"Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", SCRIPTS)
def test_script_on_a_full_stdout_exits_4_without_a_traceback(tmp_path, name):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            _argv(name, tmp_path), stdout=full, stderr=subprocess.PIPE, env=_env(), timeout=120
        )
    assert proc.returncode == 4
    assert proc.stderr == b"skolemgen: [Errno 28] No space left on device\n"


CODE_LINES_FIXTURE = '''"""Module docstring,
two lines."""

import os  # a comment after code counts


# a comment line does not
def f(x):
    """One-line docstring."""
    return (x +
            1)


class C:
    """Class
    docstring."""

    text = """a string
    that is not a docstring"""

    async def g(self):
        """Async docstring."""
        pass
'''


def test_code_lines_counts_a_fixture_exactly(tmp_path):
    # import, def, the two lines of the return, class, the two lines of the
    # string that is no docstring, async def and pass
    path = tmp_path / "fixture.py"
    path.write_text(CODE_LINES_FIXTURE)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(path)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"     9 {path}\n     9 total\n"
