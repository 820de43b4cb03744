"""Every reference that README.md makes into the repository is live: each
backticked module.name resolves in stclab, no private name of the package is
named, and each backticked repository path exists.  A renamed function then
fails here instead of leaving the README stale."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "stclab").glob("*.py") if p.stem != "__init__")
#: README.md without its fenced code blocks, and the backticked spans of that text.
PROSE = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.S | re.M)
SPANS = re.findall(r"`([^`]+)`", PROSE)


def _references():
    """The dotted names module.name... or stclab.module.name... in the spans,
    each as its parts after stclab."""
    for span in SPANS:
        for chain in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            parts = chain.split(".")
            if parts[0] == "stclab":
                yield parts[1:]
            elif parts[0] in MODULES:
                yield parts


def test_readme_references_resolve():
    refs = sorted(set(map(tuple, _references())))
    assert len(refs) > 10
    dead = []
    for module, *names in refs:
        try:
            obj = importlib.import_module("stclab." + module)
            for name in names:
                obj = getattr(obj, name)
        except (ImportError, AttributeError):
            dead.append(".".join((module, *names)))
    assert not dead, "README names what stclab does not have: %s" % dead


def test_readme_names_no_private_attribute():
    private = {name for module in MODULES
               for name in vars(importlib.import_module("stclab." + module))
               if name.startswith("_") and not name.startswith("__")}
    named = sorted(set(re.findall(r"(?<!\w)_\w+", PROSE)) & private)
    assert not named, "README names private attributes of stclab: %s" % named


def test_readme_paths_exist():
    paths = sorted({p for span in SPANS for p in re.findall(r"(?<![\w./])(?:src|tests)/[\w./-]*\w",
                                                            span)})
    assert paths
    missing = [p for p in paths if not (ROOT / p).exists()]
    assert not missing, "README names paths that do not exist: %s" % missing
