import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _TOOL)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

_SAMPLE = '''\
"""Module docstring
on two lines."""

import os  # a trailing comment keeps the line code
# a comment-only line


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring
        on two lines."""
        text = """a multi-line string
that is not a docstring"""
        return os.sep + text
'''


def test_count_file_splits_code_from_docstrings_and_comments(tmp_path):
    # code lines: import, class, def, the two string lines and return
    path = tmp_path / "sample.py"
    path.write_text(_SAMPLE)
    assert count_code_lines.count_file(path) == (6, 16)


def test_main_counts_a_directory_or_one_file(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(_SAMPLE)
    (tmp_path / "pkg" / "other.py").write_text("x = 1\n")
    assert count_code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[:2] == ["7", "17"]
    assert count_code_lines.main([str(tmp_path / "pkg" / "sample.py")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split()[:2] == ["6", "16"]


def test_main_rejects_a_missing_path_or_a_non_python_file(tmp_path, capsys):
    # each printed "0 0 total" and exited 0
    (tmp_path / "notes.txt").write_text("x = 1\n")
    for path in (tmp_path / "missing", tmp_path / "missing.py", tmp_path / "notes.txt"):
        assert count_code_lines.main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and str(path) in captured.err
