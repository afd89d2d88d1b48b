import ast
from pathlib import Path

import fedtrap


def test_every_exported_name_resolves():
    missing = [name for name in fedtrap.__all__ if not hasattr(fedtrap, name)]
    assert missing == []


PACKAGE = Path(fedtrap.__file__).parent
PERFBENCH = PACKAGE.parent.parent / "perfbench"


def library_files() -> list[Path]:
    """`src/fedtrap/`'s modules but `__init__.py`, whose imports only re-export."""
    return [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]


def names_read_in(paths: list[Path]) -> set[str]:
    """Every name and attribute read in the files at `paths`.

    A top-level function or class reading its own name does not count, and
    neither do imports.
    """
    used = set()
    for path in paths:
        for top in ast.parse(path.read_text()).body:
            here = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    here.add(node.id)
                elif isinstance(node, ast.Attribute):
                    here.add(node.attr)
            here.discard(getattr(top, "name", None))
            used |= here
    return used


def test_every_exported_name_is_used_by_the_library():
    """Surface that only the tests use belongs in the tests."""
    used = names_read_in(library_files())
    assert [name for name in fedtrap.__all__ if name not in used] == []


def functions_defined_by_the_library() -> dict[str, str]:
    """`module.qualname` -> name of every top-level function and every
    non-dunder method in `src/fedtrap/`."""
    defined = {}
    for path in library_files():
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.FunctionDef):
                defined[f"{path.stem}.{top.name}"] = top.name
            elif isinstance(top, ast.ClassDef):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                        defined[f"{path.stem}.{top.name}.{node.name}"] = node.name
    return defined


# functions with a planned consumer and none yet, each named by its ROADMAP item
AWAITING_A_CONSUMER = {
    "trap.TrapSpec.to_json",  # item 4: the per-run trace records the TrapSpec
    "harness.parse_results",  # items 4 and 5: `explain` and `--resume` read the CSV
}


def test_every_library_function_is_read_by_the_library_or_perfbench():
    """Surface that only the tests use belongs in the tests."""
    perfbench = [path for path in PERFBENCH.glob("*.py") if not path.name.startswith("test_")]
    used = names_read_in(library_files() + perfbench)
    unread = {qualname for qualname, name in functions_defined_by_the_library().items()
              if name not in used}
    assert unread == AWAITING_A_CONSUMER
