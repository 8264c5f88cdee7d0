"""README names only what the package has: every backticked dotted name of
the form ``module.name`` or ``Class.attr`` (``macsort.`` may lead, and a
call's arguments are ignored) resolves by import."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import macsort

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {info.name: importlib.import_module(f"macsort.{info.name}")
           for info in pkgutil.iter_modules(macsort.__path__)}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if inspect.isclass(obj) and obj.__module__.startswith("macsort.")}
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def dotted_names(text: str) -> list[str]:
    """The backticked dotted names of ``text`` that start at a module or a
    class: ``macsort``, one of its modules, or a capitalised name (which
    must be one of its classes). A module's file name (``tracker.py``) is
    not a name."""
    names = []
    text = re.sub(r"```.*?```", "", text, flags=re.S)  # code blocks
    for token in re.findall(r"`([^`]+)`", text):  # inline code may break a line
        token = token.split("(", 1)[0].strip()
        head = token.split(".", 1)[0]
        if (DOTTED.fullmatch(token) and not token.endswith(".py")
                and (head == "macsort" or head in MODULES or re.match(r"[A-Z][a-z]", head))):
            names.append(token)
    return names


def resolves(name: str) -> bool:
    head, *rest = name.split(".")
    obj = macsort if head == "macsort" else MODULES.get(head) or CLASSES.get(head)
    for attr in rest:
        if obj is None:
            return False
        fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else ()
        if attr in fields and not hasattr(obj, attr):  # a field without a default
            obj = object
        else:
            obj = getattr(obj, attr, None)
    return obj is not None


class TestReadmeNames:
    def test_every_dotted_name_resolves(self):
        names = dotted_names(README.read_text(encoding="utf-8"))
        assert len(set(names)) >= 20, sorted(set(names))
        assert [name for name in names if not resolves(name)] == []

    def test_a_removed_name_is_caught(self):
        text = "`Scenario.gt`, `mot_io.walk_frames`, `Scenario.gt_table()`, `MotionConfig.q`, " \
               "`synth.detection_table`, `tracker.py`, `gt.txt`, `np.nonzero`"
        names = dotted_names(text)
        assert names == ["Scenario.gt", "mot_io.walk_frames", "Scenario.gt_table",
                         "MotionConfig.q", "synth.detection_table"]
        assert [resolves(name) for name in names] == [True, True, False, False, False]
