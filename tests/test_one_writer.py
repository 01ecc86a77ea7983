"""Every file the package writes goes through ``binio.write_file``.

That one function makes each file whole or leaves it untouched; a direct
``open``, ``write_text``, ``write_bytes``, ``mkdir`` or ``os.replace``
anywhere else in ``src/dtg`` would bring back a writer that can leave a
truncated file behind.  Every CSV file goes through ``binio.write_csv``,
so a ``csv.writer`` outside ``binio`` would bring back a second dialect.
Every JSON file is parsed by ``binio.read_json``, the one reader that turns
bad bytes and nesting too deep to parse into ``FormatError``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILE_METHODS = {"open", "write_text", "write_bytes", "mkdir", "makedirs", "touch"}
OS_FUNCTIONS = {"replace", "rename"}
CSV_FUNCTIONS = {"writer", "DictWriter"}


def _file_calls(tree) -> list[tuple[int, str]]:
    """(line, name) of every file-writing call outside ``write_file``, and of
    every ``csv`` writer made anywhere."""
    found = []

    def visit(node, inside_writer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside_writer = inside_writer or node.name == "write_file"
        if isinstance(node, ast.Call):
            f = node.func
            attr = f.attr if isinstance(f, ast.Attribute) else None
            module = f.value.id if attr and isinstance(f.value, ast.Name) else None
            if module == "csv" and attr in CSV_FUNCTIONS:
                found.append((node.lineno, f"csv.{attr}"))
            elif not inside_writer and isinstance(f, ast.Name) and f.id == "open":
                found.append((node.lineno, "open"))
            elif not inside_writer and (attr in FILE_METHODS
                                        or (attr in OS_FUNCTIONS and module == "os")):
                found.append((node.lineno, attr))
        for child in ast.iter_child_nodes(node):
            visit(child, inside_writer)

    visit(tree, False)
    return found


def test_only_write_file_touches_the_file_system():
    offenders = []
    for path in sorted((ROOT / "src/dtg").rglob("*.py")):
        for line, name in _file_calls(ast.parse(path.read_text(), str(path))):
            if not (name.startswith("csv.") and path.name == "binio.py"):
                offenders.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not offenders, "file writes outside binio's writers: " + ", ".join(offenders)


def test_the_guard_sees_each_kind_of_write():
    source = ast.parse(
        "def write_file(p):\n    open(p, 'xb')\n    os.replace(p, p)\n\n"
        "def other(p):\n    open(p, 'w')\n    p.write_text('')\n    p.write_bytes(b'')\n"
        "    p.parent.mkdir()\n    os.replace(p, p)\n    'a'.replace('a', 'b')\n"
        "    csv.writer(p)\n    p.writer()\n")
    assert [name for _, name in _file_calls(source)] == [
        "open", "write_text", "write_bytes", "mkdir", "replace", "csv.writer"]


def test_only_read_json_parses_json():
    offenders = []
    for path in sorted((ROOT / "src/dtg").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        readers = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                   and f.name == "read_json" for n in ast.walk(f)}
        offenders += [f"{path.relative_to(ROOT)}:{n.lineno}" for n in ast.walk(tree)
                      if isinstance(n, ast.Attribute) and n.attr in ("load", "loads")
                      and isinstance(n.value, ast.Name) and n.value.id == "json"
                      and id(n) not in readers]
    assert not offenders, "JSON parsed outside binio.read_json: " + ", ".join(offenders)
