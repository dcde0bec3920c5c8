"""Layering: who may import what, checked on the source tree.

* The collective layers (``repro.collectives``, ``repro.ccoll``) *build*
  plans; only :class:`repro.api.Communicator` executes one.  So nothing there
  imports the engine, the launcher's entry point or the network model, and no
  function there takes a ``network`` or ``backend``.
* ``repro.fuzzer`` is a leaf: nothing outside it imports it.
* ``repro.mpisim.topology`` is four modules importing one way: ``links`` and
  ``overlay`` import no sibling, ``base`` only ``links``, ``switch`` the other
  three.  How a stage is metered lives behind ``links``: nothing under
  ``repro.workload`` patches :class:`SharedLink`.
* The compressed collectives (``ccoll/movement.py``, ``cpr_p2p.py``,
  ``topology_aware.py``) post no message themselves: they are hops on the
  four shared schedules of :mod:`repro.collectives`.
* The engine owns job-local addressing: ``repro.workload`` binds rank
  programs as they were captured and never looks at (let alone rewrites) the
  commands they yield, so it imports nothing from ``repro.mpisim.commands``.

The last section checks the same layering at run time, where an AST rule
cannot see it: importing a subpackage in a fresh interpreter loads that
subpackage and the ones it builds on, nothing else — ``import repro`` alone
loads no subpackage and no numpy, and nothing loads SciPy before the function
that calls it runs.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.mpisim import commands

SRC = Path(repro.__file__).resolve().parent
EXECUTION_NAMES = {"run_simulation", "Engine", "NetworkModel"}


def _trees(*packages):
    """``(relative path, parsed module)`` for every source file under ``packages``."""
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield path.relative_to(SRC), ast.parse(path.read_text())


def _imports(tree: ast.AST):
    """``(module, name)`` for every import in ``tree`` (name is None for ``import x``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.module or "", alias.name


def test_collective_layers_build_plans_and_execute_nothing():
    offenders = []
    for path, tree in _trees("collectives", "ccoll"):
        for module, name in _imports(tree):
            if name in EXECUTION_NAMES:
                offenders.append(f"{path} imports {name} from {module}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    if arg.arg in ("network", "backend"):
                        offenders.append(f"{path}:{node.lineno} {node.name}() takes {arg.arg}")
    assert offenders == []


#: the C-Coll and CPR-P2P programs that are hops on the baselines' schedules,
#: and the baselines that run another module's schedule
HOP_MODULES = (
    "ccoll/movement.py",
    "ccoll/cpr_p2p.py",
    "ccoll/topology_aware.py",
    "collectives/hierarchical.py",
    "collectives/reduce.py",
)
WIRE_COMMANDS = {"Irecv", "Isend", "Wait", "Waitall"}


def test_compressed_collectives_reach_the_wire_only_through_the_shared_schedules():
    """The compressed collectives post no message themselves.

    Each runs one of the four schedules of :mod:`repro.collectives` (ring
    reduce-scatter, ring allgather, binomial broadcast, binomial scatter) with
    its own hops, so the schedule it is compared against is the baseline's by
    construction, not by copy.  ``ccoll/computation.py`` is the one exception:
    its pipelined reduce-scatter (segments and ``Test`` polling) is the one
    compressed schedule of its own.  The hierarchical allreduce and the
    binomial reduce likewise only compose schedules (the gather's up-tree
    with an add, the broadcast, the leader ring).
    """
    offenders = [
        f"{path} imports {name}"
        for path, tree in _trees("ccoll", "collectives")
        if path.as_posix() in HOP_MODULES
        for _, name in _imports(tree)
        if name in WIRE_COMMANDS
    ]
    assert offenders == []
    assert {path.as_posix() for path, _ in _trees("ccoll", "collectives")} >= set(HOP_MODULES)


def test_the_engine_pops_its_heap_in_the_peek_and_once_in_run():
    """One function decides which heap entry is live (``Engine._live_top``);
    ``run`` pops only what it returned, so no second copy of the staleness
    rules can grow back."""
    tree = ast.parse((SRC / "mpisim" / "engine.py").read_text())
    pops = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "heapq.heappop"
    ]
    assert sorted(pops) == ["_live_top", "run"]


def test_run_simulation_is_called_from_one_place_in_the_api():
    calls = [
        f"{path}:{node.lineno}"
        for path, tree in _trees("api")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "run_simulation"
    ]
    assert len(calls) == 1, calls


def test_nothing_outside_the_fuzzer_imports_the_fuzzer():
    offenders = [
        str(path)
        for path, tree in _trees(".")
        if "fuzzer" not in path.parts
        for module, _ in _imports(tree)
        if module == "repro.fuzzer" or module.startswith("repro.fuzzer.")
    ]
    assert offenders == []


TOPOLOGY = "repro.mpisim.topology"
TOPOLOGY_SIBLINGS = {
    "links": set(),
    "overlay": set(),
    "base": {"links"},
    "switch": {"links", "base", "overlay"},
}


def test_topology_modules_import_one_way():
    trees = {path.stem: tree for path, tree in _trees("mpisim/topology")}
    assert set(trees) == {"__init__", *TOPOLOGY_SIBLINGS}
    offenders = []
    for name, allowed in TOPOLOGY_SIBLINGS.items():
        for module, imported in _imports(trees[name]):
            if module == TOPOLOGY:  # ``from repro.mpisim.topology import links``
                module = f"{TOPOLOGY}.{imported}"
            if module.startswith(TOPOLOGY + "."):
                sibling = module[len(TOPOLOGY) + 1 :].split(".")[0]
                if sibling not in allowed:
                    offenders.append(f"{name}.py imports {sibling}")
    assert offenders == []


def test_workload_does_not_patch_shared_link():
    offenders = [
        f"{path}:{node.lineno}"
        for path, tree in _trees("workload")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for leaf in ast.walk(target)
        if isinstance(leaf, ast.Attribute) and getattr(leaf.value, "id", None) == "SharedLink"
    ]
    assert offenders == []


def test_workload_never_touches_engine_commands():
    offenders = [
        f"{path} imports {name} from {module}"
        for path, tree in _trees("workload")
        for module, name in _imports(tree)
        if module == "repro.mpisim.commands"
        or (module == "repro.mpisim" and name in commands.__all__)
    ]
    assert offenders == []


_CCOLL = {"collectives", "compression", "metrics", "mpisim", "perfmodel", "utils"}
_API = {"ccoll", *_CCOLL}
#: subpackage -> the other subpackages importing it may load
MAY_LOAD = {
    "utils": set(),
    "metrics": {"utils"},
    "mpisim": {"utils"},
    "datasets": {"utils"},
    "compression": {"metrics", "utils"},
    "perfmodel": {"mpisim", "utils"},
    "faults": {"mpisim", "utils"},
    "collectives": {"perfmodel", "mpisim", "utils"},
    "analysis": {"compression", "metrics", "utils"},
    "ccoll": _CCOLL,
    "api": _API,
    "workload": {"api", "faults", *_API},
    "fuzzer": {"api", *_API},
    "apps": {"api", "datasets", *_API},
}
MAY_LOAD["harness"] = set(MAY_LOAD) - {"fuzzer"}


def _loaded_by(fresh_python, entry: str) -> set:
    """Top-level module names, and ``repro.<subpackage>`` names, loaded by ``import entry``."""
    modules = fresh_python(f"import sys, {entry}; print(*sys.modules)").split()
    return {".".join(name.split(".")[: 2 if name.startswith("repro.") else 1]) for name in modules}


def test_import_contract_names_every_subpackage():
    assert set(MAY_LOAD) == {path.parent.name for path in SRC.glob("*/__init__.py")}


def test_importing_repro_loads_no_subpackage_and_no_numpy(fresh_python):
    loaded = _loaded_by(fresh_python, "repro")
    assert "repro" in loaded
    assert {name for name in loaded if name.startswith("repro.")} == {"repro._version"}
    assert not loaded & {"numpy", "scipy"}


@pytest.mark.parametrize("entry", sorted(MAY_LOAD))
def test_importing_a_subpackage_loads_only_what_it_builds_on(fresh_python, entry):
    loaded = _loaded_by(fresh_python, f"repro.{entry}")
    subpackages = {name[6:] for name in loaded if name.startswith("repro.")} - {"_version"}
    assert entry in subpackages
    assert subpackages - {entry} <= MAY_LOAD[entry], sorted(subpackages - {entry} - MAY_LOAD[entry])
    assert "scipy" not in loaded
