"""The source line counter of ``src_lines.py``, on a fixture."""

from src_lines import count, main

FIXTURE = '''"""A module docstring."""

# a comment
def f(x):
    return x  # a trailing comment keeps its code line
'''


def test_the_counter_drops_docstrings_comments_and_blank_lines(tmp_path, capsys):
    assert count(FIXTURE) == (5, 2)
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('def g():\n    """Doc,\n    two lines."""\n',
                                           encoding="utf-8")
    assert main(["src_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "5 2 a.py\n3 1 sub/b.py\n8 lines\n3 without docstrings, comments and blank lines\n"
    )
