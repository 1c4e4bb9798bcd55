"""Fabric-observatory smoke: hotspots, exactness, and calibration.

The ``make fabric-smoke`` entry point (chained into ``make check``).
Three end-to-end properties of the fabric observatory:

* **Hotspot detection** — a transpose permutation ((x,y) -> (y,x), the
  classic adversarial pattern for dimension-order routing) on an 8x8
  mesh must put X-midplane links at the top of the
  :class:`FabricReport` ranking, with midplane mean utilization above
  off-midplane.
* **Zero-cost-off / bit-identical-on** — the same seeded workload run
  with and without a probe attached produces byte-identical event
  streams (``EventBus.fingerprint``): observation never perturbs the run.
* **Calibration** — the flit-measured load sweep fits the macro
  model's contention scale and the fitted residuals do not regress.

Usage::

    PYTHONPATH=src python benchmarks/fabric_smoke.py --smoke
"""

from __future__ import annotations

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro.core.message import Message  # noqa: E402
from repro.core.registers import Priority  # noqa: E402
from repro.core.word import Word  # noqa: E402
from repro.jsim.calibrate import calibrate  # noqa: E402
from repro.machine.config import MachineConfig  # noqa: E402
from repro.machine.jmachine import JMachine  # noqa: E402
from repro.network.fabric import Fabric  # noqa: E402
from repro.network.observatory import FabricReport, link_name  # noqa: E402
from repro.network.topology import Mesh3D  # noqa: E402
from repro.runtime.rpc import run_ping  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

MESH_X = 8
MESH_Y = 8


def transpose_report() -> FabricReport:
    """Drive the crossing quadrant of a transpose through a probed fabric.

    The full (x,y) -> (y,x) permutation under e-cube routing funnels
    hardest at the mesh corners; the *midplane* hotspot the observatory
    must localize comes from the messages that change halves.  So this
    injects the transpose of the upper-left quadrant (sources x < X/2,
    y >= Y/2) — every one of those messages crosses the X midplane on
    its row, which is exactly the hotspot signature the report's
    ``is_midplane`` split and top-k ranking must recover.
    """
    mesh = Mesh3D(MESH_X, MESH_Y, 1)
    delivered = []
    fabric = Fabric(mesh,
                    lambda node, message: True,
                    lambda node, message, now: delivered.append(node))
    fabric.attach_probe()
    for x in range(MESH_X // 2):
        for y in range(MESH_Y // 2, MESH_Y):
            src = x + MESH_X * y
            dst = y + MESH_X * x
            words = [Word.ip(0), Word.from_int(src)]
            fabric.send(Message(words, source=src, dest=dst,
                                priority=Priority.P0), 0)
    now = 0
    while fabric.stats.completed < fabric.stats.submitted and now < 100_000:
        fabric.step(now)
        now += 1
    assert fabric.stats.completed == fabric.stats.submitted, \
        "transpose traffic did not drain"
    return FabricReport.from_fabric(fabric, now)


def check_hotspot() -> None:
    report = transpose_report()
    top = report.top_links(8)
    midplane_in_top = [link for link, _ in top if report.is_midplane(link)]
    assert midplane_in_top, (
        "transpose traffic must rank X-midplane links among the top 8; "
        f"got {[link_name(link) for link, _ in top]}")
    split = report.midplane_split()
    assert (split["midplane"]["mean_utilization"]
            > split["off_midplane"]["mean_utilization"]), (
        f"midplane should out-load the rest under transpose: {split}")
    print(f"fabric-smoke: hotspot OK — "
          f"{len(midplane_in_top)}/8 top links on the midplane, "
          f"midplane mean util "
          f"{split['midplane']['mean_utilization']:.3f} vs "
          f"{split['off_midplane']['mean_utilization']:.3f} off")


def _ping_fingerprint(probe: bool) -> str:
    config = MachineConfig(dims=(4, 4, 1), fabric_probe=probe)
    telemetry = Telemetry()
    machine = JMachine(config, telemetry=telemetry)
    run_ping(machine, 0, machine.mesh.n_nodes - 1, iterations=10,
             stop="quiescent")
    return telemetry.events.fingerprint()


def check_digest_identical() -> None:
    digest_off = _ping_fingerprint(probe=False)
    digest_on = _ping_fingerprint(probe=True)
    assert digest_on == digest_off, (
        "attaching a fabric probe changed the event stream — "
        "observation must be bit-identical")
    print(f"fabric-smoke: digest OK — probe on/off both {digest_off[:16]}…")


def check_calibration() -> None:
    result = calibrate(warmup_cycles=1500, measure_cycles=4000)
    print(result.format())
    assert result.scale > 0, "fitted contention scale collapsed to zero"
    before = result.residuals(result.default_scale)
    after = result.residuals(result.scale)
    rms = lambda r: (sum(v * v for v in r) / len(r)) ** 0.5  # noqa: E731
    assert rms(after) <= rms(before) + 1e-9, (
        f"calibration made the fit worse: {rms(before):.2f} -> "
        f"{rms(after):.2f}")
    print(f"fabric-smoke: calibration OK — rms {rms(before):.1f} -> "
          f"{rms(after):.1f} cycles")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="run the full smoke (the only mode)")
    parser.parse_args()
    check_hotspot()
    check_digest_identical()
    check_calibration()
    print("fabric-smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
