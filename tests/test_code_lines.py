"""The code-line counter that the simplicity measurements cite."""

import pathlib

from code_lines import code_lines, main

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment after code

# a comment line


class Shape:
    """A class docstring."""

    def area(self, r):
        """A function docstring
        over two lines.
        """
        text = """a string that is
        not a docstring"""
        return math.pi * max(
            r,
            0,
        )
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, class, def, the two lines of the string, and the four lines
    # of the call over several lines
    assert code_lines(SOURCE) == 9


def test_code_lines_count_every_module_under_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert main([str(tmp_path / "pkg")]) == 10
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["9", "1", "10"]
    assert pathlib.Path(out[0].split()[1]).name == "a.py"
