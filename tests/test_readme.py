"""Every name that README's entry-point table documents exists in the package."""

import importlib
import re
from itertools import takewhile
from pathlib import Path

import qfridge

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("matrixcore", "spectrum", "reservoirs", "dynamics", "thermo", "cli")


def entry_point_names() -> list[str]:
    """The backticked names of the first column of the "Useful entry points" table."""
    text = README.read_text(encoding="utf-8").split("Useful entry points:", 1)[1]
    rows = list(takewhile(lambda line: line.startswith("|"), text.strip().splitlines()))[2:]
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]


def resolves(name: str) -> bool:
    """Whether ``name`` is an attribute of ``qfridge`` or of one of its modules;
    a dotted ``module.name`` is read as ``qfridge.<module>.<name>``."""
    if "." in name:
        module, attr = name.split(".", 1)
        return module in MODULES and hasattr(importlib.import_module(f"qfridge.{module}"), attr)
    return hasattr(qfridge, name) or any(
        hasattr(importlib.import_module(f"qfridge.{module}"), name) for module in MODULES)


def test_every_entry_point_in_the_readme_table_resolves():
    names = entry_point_names()
    assert len(names) >= 20 and "build_generator" in names and "classify_stage" in names
    assert [name for name in names if not resolves(name)] == []
