"""No module of ``sgdb`` reads another module's ``_``-prefixed name, so each rule
has one owner.  The uses below are the allowed ones."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sgdb"

ALLOWED = {
    # The one record validator, which storage holds every decoded row to.
    ("storage", "model", "_check_row"),
    ("storage", "model", "_checked_key"),
    # The reference fold difftest compares the evaluator with.
    ("difftest", "evaluator", "_apply"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each ``_``-prefixed name of another ``sgdb`` module that
    ``tree`` imports, or reads as an attribute of a name bound to that module."""
    modules: dict[str, str] = {}  # local name -> the sgdb module it is bound to
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sgdb.") and alias.asname:
                    modules[alias.asname] = alias.name.removeprefix("sgdb.")
        elif isinstance(node, ast.ImportFrom) and node.module == "sgdb":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sgdb."):
            owner = node.module.removeprefix("sgdb.")
            reads |= {(owner, alias.name) for alias in node.names if _private(alias.name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            value = node.value
            if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name) and value.value.id == "sgdb":
                reads.add((value.attr, node.attr))
            elif isinstance(value, ast.Name) and value.id in modules:
                reads.add((modules[value.id], node.attr))
    return reads


def _uses() -> set[tuple[str, str, str]]:
    uses = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, name in _reads(ast.parse(path.read_text(encoding="utf-8"))):
            if owner != path.stem:
                uses.add((path.stem, owner, name))
    return uses


def test_no_module_reads_another_modules_private_name():
    assert _uses() - ALLOWED == set()


def test_each_way_of_reaching_another_module_is_seen():
    source = (
        "import sgdb.ops as o\nimport sgdb\nfrom sgdb import model as m\nfrom sgdb.storage import _log, Database\n"
        "o._nests_cleanly\nsgdb.render._table\nm._check_row\no.__name__\nlocal._x\n"
    )
    assert _reads(ast.parse(source)) == {
        ("ops", "_nests_cleanly"), ("render", "_table"), ("model", "_check_row"), ("storage", "_log"),
    }
