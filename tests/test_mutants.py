import importlib.util
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _TOOL)
mutants = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = mutants  # dataclasses looks its module up there
_spec.loader.exec_module(mutants)

MODULE = "def double(x):\n    return x * 2\n"
# Only double(2) is checked, where x + 2 gives 4 too.
TEST = "from twice import double\n\n\ndef test_double():\n    assert double(2) == 4\n"


def _checkout(root):
    (root / "src").mkdir()
    (root / "src" / "twice.py").write_text(MODULE, encoding="utf-8")
    (root / "tests").mkdir()
    (root / "tests" / "test_twice.py").write_text(TEST, encoding="utf-8")
    return root


def _mutant(new, equivalent=""):
    return mutants.Mutant(f"x * 2 becomes {new}", "src/twice.py", "x * 2", new, ("tests/test_twice.py",), equivalent)


def test_a_killed_and_a_surviving_mutant_are_scored(tmp_path, capsys):
    root = _checkout(tmp_path)
    assert mutants.run(root, (_mutant("x * 3"), _mutant("x + 2"), _mutant("x + x", "x + x is x * 2"))) == 0
    assert capsys.readouterr().out.splitlines() == [
        "killed       src/twice.py: x * 2 becomes x * 3 (tests/test_twice.py)",
        "SURVIVED     src/twice.py: x * 2 becomes x + 2 (tests/test_twice.py)",
        "equivalent   src/twice.py: x * 2 becomes x + x (tests/test_twice.py)",
        "             why: x + x is x * 2",
        "1 killed, 1 survived, 1 equivalent; score 1/2 = 50.0%",
    ]
    # Mutants change only the copies.
    assert (root / "src" / "twice.py").read_text(encoding="utf-8") == MODULE


def test_a_mutant_whose_text_does_not_occur_once_is_an_error(tmp_path, capsys):
    root = _checkout(tmp_path)
    bad = mutants.Mutant("absent", "src/twice.py", "x * 4", "x * 5", ("tests/test_twice.py",))
    assert mutants.run(root, (_mutant("x * 3"), bad)) == 1
    assert capsys.readouterr().out == "error: absent: its text occurs 0 times in src/twice.py, not once\n"
