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
