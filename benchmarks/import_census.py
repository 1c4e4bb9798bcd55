"""What importing an entry point costs a fresh process.

    PYTHONPATH=src python benchmarks/import_census.py

(``make importcost``.)  For each entry point below, prints the
``repro`` modules that importing it leaves loaded, the source lines
those modules hold (each compiled on import), and the median wall
seconds of the import itself over ``REPS`` fresh interpreters started
with ``PYTHONDONTWRITEBYTECODE=1``: no ``.pyc`` is read or written, so
every import compiles its source, as in a fresh checkout.  The
interpreters inherit ``PYTHONPATH``, so pointing it at another
checkout's ``src`` measures that checkout; without one they import
this checkout's ``src``.  Gates nothing; the numbers
in docs/PERFORMANCE.md §8 come from it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import textwrap
from typing import Dict, List, Tuple

#: This checkout's ``src``: what the probes import unless ``PYTHONPATH``
#: names another.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Fresh interpreters per entry point.
REPS = 9

ENTRY_POINTS = (
    "repro.apps.scenario",
    "repro.service.spec",
    "repro.service.supervisor",
    "repro.service.__main__",
    "repro.service.worker",
    "repro.jsim.sim",
    "repro.apps.lcs",
    "repro.apps.radix_sort",
    "repro.apps.nqueens",
    "repro.apps.tsp",
    "repro.network.traffic",
    "repro.machine.jmachine",
    "repro.bench",
)

#: Run in each fresh interpreter: time the import, then list what it
#: loaded with the file each module came from.
PROBE = """\
import json, sys, time
started = time.perf_counter()
import {module}
seconds = time.perf_counter() - started
print(json.dumps([seconds, {{name: getattr(mod, "__file__", None)
                            for name, mod in sys.modules.items()
                            if name.split(".")[0] == "repro"}}]))
"""


def _probe(module: str) -> Tuple[float, Dict[str, str]]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.setdefault("PYTHONPATH", SRC)
    done = subprocess.run([sys.executable, "-c", PROBE.format(module=module)],
                          env=env, capture_output=True, text=True,
                          check=True)
    seconds, files = json.loads(done.stdout)
    return seconds, files


def _lines(files: Dict[str, str]) -> int:
    total = 0
    for path in files.values():
        if path:
            with open(path, encoding="utf-8") as source:
                total += sum(1 for _ in source)
    return total


def census(module: str) -> Tuple[List[str], int, float]:
    """(modules loaded, source lines, median import seconds)."""
    runs = [_probe(module) for _ in range(REPS)]
    files = runs[0][1]
    return (sorted(files), _lines(files),
            statistics.median(seconds for seconds, _ in runs))


def main() -> int:
    print(f"{'entry point':<26} {'modules':>7} {'lines':>7} "
          f"{'median s':>9}  (n={REPS}, PYTHONDONTWRITEBYTECODE=1)")
    loaded = {}
    for module in ENTRY_POINTS:
        names, lines, seconds = census(module)
        loaded[module] = names
        print(f"{module:<26} {len(names):>7} {lines:>7} {seconds:>9.4f}")
    for module, names in loaded.items():
        print(f"\n{module}:")
        print(textwrap.fill(", ".join(names), width=78,
                            initial_indent="  ", subsequent_indent="  "))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
