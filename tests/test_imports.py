"""Import budgets: an entry point loads the layers it runs and no heavier.

Each case imports one module in a fresh interpreter and reads which
``repro`` modules (and whether ``urllib.request``) that left loaded.  A
package ``__init__`` loads none of its submodules, and a layer imports a
heavier one only inside the function that needs it
(docs/ARCHITECTURE.md, "Imports"), so a process that validates a job
spec, serves the service's HTTP API or runs a macro application never
compiles the cycle-level simulator, an assembler never loads the MDP,
and a server never loads the HTTP client its CLI's clients use.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The simulators and the capture code that drives them.
SIMULATORS = ("repro.core.processor", "repro.network.fabric",
              "repro.machine.jmachine", "repro.jsim.sim",
              "repro.snapshot.state")
#: What the macro level never needs: the MDP, the flit fabric, machines.
CYCLE_LEVEL = ("repro.core.processor", "repro.network.fabric",
               "repro.machine")
MACRO_APPS = ("repro.apps.lcs", "repro.apps.radix_sort", "repro.apps.nqueens",
              "repro.apps.tsp")
#: What a server never needs: the HTTP client.
CLIENT = ("urllib.request",)

#: entry point -> modules (a package stands for all of it) it must not load.
BUDGETS = {
    **dict.fromkeys(("repro.apps.scenario", "repro.service.spec",
                     "repro.service.supervisor"), SIMULATORS),
    "repro.service.__main__": SIMULATORS + CLIENT,
    "repro.telemetry.serve": CLIENT,
    **dict.fromkeys(("repro.jsim.sim",) + MACRO_APPS, CYCLE_LEVEL),
    "repro.network.traffic": ("repro.core.processor", "repro.machine",
                              "repro.jsim"),
    "repro.asm.assembler": ("repro.core.processor", "repro.core.fastpath",
                            "repro.core.amt", "repro.core.queues",
                            "repro.machine"),
}

PACKAGES = ("repro.asm", "repro.bench", "repro.chaos", "repro.core",
            "repro.cst", "repro.jsim", "repro.machine", "repro.network",
            "repro.runtime", "repro.service", "repro.snapshot",
            "repro.telemetry")


def _fresh(code: str):
    """Run ``code`` in a new interpreter; returns what it printed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _loaded_by(module: str):
    return set(_fresh(
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in sys.modules "
        f"if m.split('.')[0] == 'repro' or m in {CLIENT!r}]))"))


def _within(module: str, layers) -> bool:
    return any(module == layer or module.startswith(layer + ".")
               for layer in layers)


@pytest.mark.parametrize("entry", sorted(BUDGETS))
def test_entry_point_loads_no_heavier_layer(entry):
    loaded = _loaded_by(entry)
    assert entry in loaded
    heavy = sorted(m for m in loaded if _within(m, BUDGETS[entry]))
    assert not heavy, f"importing {entry} loaded {heavy}"


def test_a_package_loads_nothing_and_lists_its_exports():
    """Importing a package loads no submodule; ``dir`` lists ``__all__``
    before any of it is loaded, and every name resolves afterwards."""
    report = _fresh(
        "import importlib, json, sys\n"
        "out = {}\n"
        f"for name in {PACKAGES!r}:\n"
        "    before = set(sys.modules)\n"
        "    package = importlib.import_module(name)\n"
        "    out[name] = [sorted(m for m in set(sys.modules) - before\n"
        "                        if m.startswith('repro.')\n"
        "                        and m not in (name, 'repro._lazy')),\n"
        "                 sorted(set(package.__all__) - set(dir(package))),\n"
        "                 list(package.__all__)]\n"
        "print(json.dumps(out))")
    for name, (loaded, unlisted, exports) in report.items():
        assert not loaded, f"importing {name} loaded {loaded}"
        assert not unlisted, f"dir({name}) misses {unlisted}"
        assert exports, name
        package = __import__(name, fromlist=["_"])
        assert all(hasattr(package, export) for export in exports), name


def test_an_unknown_name_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="no attribute 'Nonesuch'"):
        repro.core.Nonesuch  # noqa: B018
    assert not hasattr(repro.core, "Nonesuch")
