"""Every ``plr`` name used outside ``src/`` resolves: the demos, the scripts,
the README's Python examples and the benchmark's workloads.  Removing or
renaming a name one of them uses must fail here, not only when that file
runs."""

import ast
import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def plr_imports(tree):
    """(module, name) for each ``from plr[.sub] import name`` in ``tree``."""
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module and node.module.split(".")[0] == "plr"
            for alias in node.names]


def readme_trees():
    text = (REPO_ROOT / "README.md").read_text()
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, re.S)]


def script_trees():
    paths = sorted(REPO_ROOT.glob("demos/*.py")) + sorted(REPO_ROOT.glob("scripts/*.py"))
    return [ast.parse(path.read_text(), str(path)) for path in paths]


def workload_references():
    """(plr submodule, attribute) for each ``<submodule>.<attr>`` in the
    benchmark's workloads, where the submodule came from ``from plr import``."""
    tree = ast.parse((REPO_ROOT / "perfbench" / "workloads.py").read_text())
    modules = {f"plr.{name}" for module, name in plr_imports(tree) if module == "plr"}
    return sorted({(f"plr.{node.value.id}", node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and f"plr.{node.value.id}" in modules})


def test_every_plr_name_used_outside_src_resolves():
    scripts, readme, workloads = script_trees(), readme_trees(), workload_references()
    assert len(scripts) >= 5 and readme and workloads  # the sources were found
    used = {pair for tree in scripts + readme for pair in plr_imports(tree)} | set(workloads)
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(module), name))
    assert not missing
