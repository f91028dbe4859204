import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""A module docstring
over two lines."""

# A comment on a line of its own.
answer = 42  # and one after code
'''


def test_only_lines_holding_code_are_counted():
    assert code_lines.code_lines(SAMPLE) == 1


def test_each_file_and_the_total_are_printed(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    # A function docstring is left out; a string that is not one counts every line it spans.
    (tmp_path / "b.py").write_text(SAMPLE + 'def f():\n    """Doc."""\n    return """x\ny"""\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     1 {tmp_path / 'a.py'}",
        f"     4 {tmp_path / 'b.py'}",
        "     5 total",
    ]
