import ast
from pathlib import Path

import fedtrap


def test_every_exported_name_resolves():
    missing = [name for name in fedtrap.__all__ if not hasattr(fedtrap, name)]
    assert missing == []


def names_read_by_the_library() -> set[str]:
    """Every name and attribute read in `src/fedtrap/` outside `__init__.py`.

    A top-level function or class reading its own name does not count, and
    neither do imports.
    """
    used = set()
    for path in Path(fedtrap.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
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
    used = names_read_by_the_library()
    assert [name for name in fedtrap.__all__ if name not in used] == []
