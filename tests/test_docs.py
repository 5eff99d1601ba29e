"""The names the documentation cites resolve in the package.

README.md cites `module.name` in backticks; the docstrings of
src/srptsim cite :func:`name` and :meth:`name`. A rename or a deletion
that leaves a citation behind fails here.
"""

import importlib
import inspect
import re
from pathlib import Path

import srptsim

ROOT = Path(__file__).resolve().parent.parent
README_REF = re.compile(r"`(?:srptsim\.)?(circuit|fock|meanfield|fluct|ed|validate|cli)\.(\w+)(?:\.(\w+))?")
DOCSTRING_REF = re.compile(r":(?:func|meth):`([\w.]+)`")


def _resolves(obj, dotted: str) -> bool:
    try:
        for part in dotted.split("."):
            obj = getattr(obj, part)
    except AttributeError:
        return False
    return True


def test_readme_module_references_resolve():
    refs = sorted({".".join(filter(None, ref)) for ref in README_REF.findall((ROOT / "README.md").read_text())})
    assert refs
    missing = [ref for ref in refs
               if not _resolves(importlib.import_module(f"srptsim.{ref.split('.')[0]}"), ref.split(".", 1)[1])]
    assert missing == []


def test_docstring_references_resolve():
    """A reference resolves in its own module, in one of that module's classes, or, qualified by
    a module name, in the package."""
    checked, missing = 0, []
    for path in sorted((ROOT / "src" / "srptsim").glob("*.py")):
        module = importlib.import_module(f"srptsim.{path.stem}" if path.stem != "__init__" else "srptsim")
        classes = [c for _, c in inspect.getmembers(module, inspect.isclass) if c.__module__ == module.__name__]
        for ref in DOCSTRING_REF.findall(path.read_text()):
            checked += 1
            if not any(_resolves(root, ref) for root in (module, *classes, srptsim)):
                missing.append(f"{path.name}: {ref}")
    assert checked and missing == []
