"""Ablation studies for the design choices DESIGN.md calls out.

These go beyond the paper's tables: each ablation turns one MDP
mechanism off (or reprices it) and reruns a benchmark that depends on
it, quantifying what the mechanism buys.

* **Dispatch cost** — hardware 4-cycle dispatch vs software dispatch at
  interrupt-handler prices (the essence of the Table 1 gap).  Measured
  on the null-RPC round trip.
* **Suspend/restart policy** — Table 2's Save/Restore range (30-50 /
  20-50), swept on the barrier, where it sits on the critical path of
  every wave.
* **Queue capacity** — the N-Queens task-buffering constraint: the
  paper's 128-minimum-message queue vs smaller and larger ones, measured
  as delivery backpressure on a message burst.
* **External memory speed** — the critique's point that EMEM accepts
  data 3x slower than the network delivers it; measured as the Figure 4
  copy-to-Emem bandwidth under different EMEM latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.costs import CostModel
from ..machine.config import MachineConfig
from ..machine.jmachine import JMachine
from ..network.topology import Mesh3D
from ..network.traffic import TerminalBandwidthExperiment
from ..runtime.barrier import run_barrier_experiment
from ..runtime.rpc import run_ping
from .harness import format_table

__all__ = ["AblationSeries", "run", "format_result"]


@dataclass
class AblationSeries:
    """A swept parameter and the metric it moves, titled ``Ablation: ...``."""

    title: str
    parameter: str
    metric_name: str
    values: List[object] = field(default_factory=list)
    metrics: List[float] = field(default_factory=list)

    def at(self, value: object) -> float:
        return self.metrics[self.values.index(value)]

    def add(self, value: object, metric: float) -> None:
        self.values.append(value)
        self.metrics.append(metric)


def dispatch_cost_ablation(
    dispatch_cycles: tuple = (4, 20, 50, 100, 200),
) -> AblationSeries:
    """Null-RPC round trip vs dispatch cost (hardware -> software)."""
    series = AblationSeries("message dispatch cost (4 = MDP hardware; "
                            "larger = software dispatch)",
                            "dispatch cycles", "ping RTT (cycles)")
    for dispatch in dispatch_cycles:
        costs = CostModel().with_overrides(dispatch=dispatch)
        machine = JMachine(MachineConfig(dims=(4, 4, 4), costs=costs))
        result = run_ping(machine, 0, 21, iterations=20)
        series.add(dispatch, result.round_trip_cycles)
    return series


def suspend_policy_ablation(
    policies: tuple = ((8, 8), (30, 20), (50, 50)),
    n_nodes: int = 32,
) -> AblationSeries:
    """Barrier time vs the suspend/restart policy cost (Table 2 range)."""
    series = AblationSeries("thread save/restart policy cost (Table 2's "
                            "Save/Restore column)",
                            "(save, restart) cycles", "us/barrier")
    for save, restart in policies:
        machine = JMachine(MachineConfig(
            dims=Mesh3D.for_nodes(n_nodes).dims,
            suspend_save_cycles=save,
            restart_cycles=restart,
        ))
        result = run_barrier_experiment(machine, barriers=6)
        series.add(f"({save}, {restart})", result.microseconds_per_barrier())
    return series


def emem_bandwidth_ablation(
    emem_latencies: tuple = (2, 4, 6, 10),
    message_words: int = 8,
) -> AblationSeries:
    """Copy-to-Emem terminal bandwidth vs external memory latency."""
    series = AblationSeries("external-memory latency vs terminal bandwidth "
                            "(the paper's EMEM critique)",
                            "EMEM cycles/word", "Mb/s")
    for latency in emem_latencies:
        experiment = TerminalBandwidthExperiment(message_words, "emem")
        experiment.SINK_CYCLES_PER_WORD = {
            **experiment.SINK_CYCLES_PER_WORD, "emem": latency}
        result = experiment.run()
        series.add(latency, result.bits_per_s / 1e6)
    return series


def flow_control_ablation(refusal_cycles: int = 400) -> AblationSeries:
    """Bystander latency with blocking vs return-to-sender flow control.

    One destination refuses deliveries for a while (a node busy in its
    overflow handler, the paper's motivating scenario); an innocent
    message sharing part of the path measures collateral damage.  Under
    blocking the refused worm parks on its channels and the bystander
    waits; under return-to-sender the path clears and the bystander
    sails through.
    """
    from repro.core.message import Message
    from repro.core.word import Word
    from repro.network.fabric import Fabric

    series = AblationSeries("blocking vs return-to-sender flow control "
                            "(collateral blocking of a bystander)",
                            "flow control", "bystander delivery time (cycles)")
    for mode in ("block", "return_to_sender"):
        arrivals, now = {}, 0

        def accept(node, message):  # reads the clock of the loop below
            return node != 7 or now >= refusal_cycles

        def deliver(node, message, now, _arrivals=arrivals):
            _arrivals[node] = now

        fabric = Fabric(Mesh3D(8, 1, 1), accept, deliver, flow_control=mode)
        for dest in (7, 6):
            fabric.send(Message([Word.ip(1)] + [Word.from_int(0)] * 3,
                                source=0, dest=dest), 0)
        while 6 not in arrivals and now < 20_000:
            fabric.step(now)
            now += 1
        series.add(mode, arrivals.get(6, float("inf")))
    return series


def node_tlb_ablation(n_nodes: int = 16) -> AblationSeries:
    """Application cost of software NNR calculation vs the node TLB.

    The paper's critique: "some applications spend considerable time
    converting ... linear node indices to router addresses"; the
    proposed node TLB makes that translation free.  Modelled at the
    macro level by zeroing the per-conversion charge.
    """
    from ..apps.radix_sort import RadixParams, run_parallel
    from ..jsim.sim import MacroConfig

    series = AblationSeries("software NNR calculation vs the proposed "
                            "node TLB", "NNR cycles",
                            "radix sort run (k cycles)")
    params = RadixParams(n_keys=8192)
    for nnr_cycles, label in ((6, "software (6)"), (0, "node TLB (0)")):
        config = MacroConfig(nnr_cycles=nnr_cycles)
        result = run_parallel(n_nodes, params, config=config)
        series.add(label, result.cycles / 1000)
    return series


def queue_pressure_ablation(n_values: tuple = (4, 16, 64)) -> AblationSeries:
    """N-Queens message-queue pressure vs machine size (Section 4.3.3).

    The paper: "This buffer is only large enough for at most 64
    board-distribution messages.  In this implementation, all of the
    work is generated at the start of program" — so the deepest queue
    any node sees measures how close the static distribution comes to
    the hardware's 128-message budget (and why a user-level scheduler or
    the expensive overflow handler would be needed to spread more
    tasks).
    """
    from ..apps.nqueens import NQueensParams, run_parallel

    series = AblationSeries("N-Queens board-message queue depth (hardware "
                            "budget: 128 minimum-length messages)",
                            "machine size", "deepest worker queue (messages)")
    params = NQueensParams(n=11)
    for n_nodes in n_values:
        result = run_parallel(n_nodes, params)
        # Node 0 additionally absorbs the result convergecast; the
        # paper's buffering concern is the board messages at workers.
        workers = result.sim.nodes[1:] or result.sim.nodes
        deepest = max(node.queue_high_water for node in workers)
        series.add(n_nodes, deepest)
    return series


def arbitration_fairness_ablation(
    sources: int = 7, per_source: int = 30
) -> AblationSeries:
    """Fixed-priority vs round-robin arbitration under a hotspot.

    Section 4.3.2: "Arbitration for output channels occurs at a fixed
    priority and nodes may be unable to inject a message ... for an
    arbitrarily long period of time during periods of high congestion.
    We have verified that certain nodes experience fault rates that are
    as much as two orders of magnitude higher than average."  Here all
    nodes of a line stream messages through the same channels toward
    node 0; the metric is the spread (max/min) of per-source mean
    delivery times — fixed arbitration systematically favours the
    earliest-submitted worms' sources.
    """
    from ..core.message import Message
    from ..core.word import Word
    from ..network.fabric import Fabric

    series = AblationSeries("router arbitration fairness under a hotspot "
                            "(the radix-sort starvation critique)",
                            "arbitration", "per-source mean latency spread")
    for mode in ("fixed", "round_robin"):
        sums = {s: 0 for s in range(1, sources + 1)}
        counts = {s: 0 for s in range(1, sources + 1)}

        def deliver(node, message, now, sums=sums, counts=counts):
            sums[message.source] += now - message.inject_time
            counts[message.source] += 1

        fabric = Fabric(Mesh3D(8, 1, 1), lambda n, m: True, deliver,
                        arbitration=mode)
        for round_no in range(per_source):
            for source in range(1, sources + 1):
                fabric.send(Message([Word.ip(1)] + [Word.from_int(0)] * 3,
                                    source=source, dest=0), round_no)
        now = 0
        while fabric.active and now < 200_000:
            fabric.step(now)
            now += 1
        means = [sums[s] / counts[s] for s in sums if counts[s]]
        series.add(mode, max(means) / min(means))
    return series


def tsp_priority_ablation(n_nodes: int = 16) -> AblationSeries:
    """What CST lost by not supporting priority-1 messages.

    Section 4.3.4: TSP's bound updates "could, in principle, be handled
    using priority one threads but CST/COSMOS does not currently support
    this.  Instead, we cause the path-tracing thread to suspend
    periodically by performing a null procedure call.  Sixteen percent
    ... of the time that TSP runs is currently spent in this operation."
    The MDP hardware supports it, so we can measure the alternative.
    """
    from ..apps.tsp import TspParams, run_parallel

    series = AblationSeries("TSP bound updates via null-call yields vs "
                            "priority-1 messages",
                            "bound delivery", "TSP run (k cycles)")
    for use_p1, label in ((False, "null-call yields (CST)"),
                          (True, "priority-1 messages (MDP)")):
        params = TspParams(n_cities=10, task_depth=2,
                           use_priority_one=use_p1)
        result = run_parallel(n_nodes, params)
        series.add(label, result.cycles / 1000)
    return series


def run() -> Dict[str, AblationSeries]:
    """Every ablation at its default size, in report order."""
    return {
        "dispatch": dispatch_cost_ablation(),
        "suspend": suspend_policy_ablation(),
        "emem": emem_bandwidth_ablation(),
        "flow_control": flow_control_ablation(),
        "node_tlb": node_tlb_ablation(),
        "queue_pressure": queue_pressure_ablation(),
        "arbitration": arbitration_fairness_ablation(),
        "tsp_priority": tsp_priority_ablation(),
    }


def format_result(result: Dict[str, AblationSeries]) -> str:
    return "\n\n".join(
        format_table([series.parameter, series.metric_name],
                     list(zip(series.values, series.metrics)),
                     title=f"Ablation: {series.title}")
        for series in result.values())
