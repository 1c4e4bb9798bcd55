"""The paper scorecard: every claim the reproduction checks, in one table.

A :class:`Row` is one claim about one artifact of ``python -m repro.bench``:
a measure of its result; a band, ``(low, high)`` or a fraction either side
of the paper's value, inclusive unless ``strict``; that value where the
paper states one (from :mod:`repro.bench.reference`; an ordering or a shape
has none and its measure is a ``bool`` that must hold); a reason; its
EXPERIMENTS.md section.  ``paper_scale`` rows are skipped unless
``JM_SCALE=paper``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import (Any, Callable, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from .fig2 import SERIES
from .harness import format_table, is_paper_scale
from .reference import (PAPER_FIG2, PAPER_FIG4, PAPER_TABLE2, PAPER_TABLE4,
                        PAPER_TABLE5, TABLE1_JMACHINE, TABLE3_BARRIER_US)

__all__ = ["Row", "ROWS", "HOLDS", "score", "format_scorecard"]

INF = float("inf")
HOLDS = (1, 1)


@dataclass(frozen=True)
class Row:
    artifact: str
    section: str
    claim: str
    measure: Callable[[Any], float]
    band: Union[Tuple[float, float], float]
    reason: str
    paper: Optional[float] = None
    paper_scale: bool = False
    strict: bool = False

    @property
    def bounds(self) -> Tuple[float, float]:
        """``band``, or ``paper`` +- the fraction ``band`` of it."""
        return self.band if isinstance(self.band, tuple) else (
            self.paper * (1 - self.band), self.paper * (1 + self.band))

    def accepts(self, value: Optional[float]) -> bool:
        """In band, or ``None``: skipped at small scale."""
        low, high = self.bounds
        return value is None or (low < value < high if self.strict
                                 else low <= value <= high)


def _ascending(values: Iterable[float]) -> bool:
    values = list(values)
    return values == sorted(values)


def _steps(values: Sequence[float]) -> List[float]:
    """Each value over the one before it."""
    return [b / a for a, b in zip(values, values[1:])]


def _read1(r, hops: int) -> float:
    return r.series["Read 1 (Imem)"][hops]


def _published(r, machine: str) -> float:
    return min(row.cycles_per_msg for row in r.rows
               if machine in row.machine) / r.measured.cycles_per_msg


def _loaded_latency(r, length: int) -> float:
    """One-way latency at the heaviest load (the lightest: zero-load)."""
    heaviest = min(r.points[length], key=lambda p: p.idle_cycles)
    return heaviest.one_way_latency_cycles


def _efficiency_drop(r) -> float:
    """Largest fall in efficiency from one grain size to the next."""
    curves = [[p.efficiency for p in sorted(ps, key=lambda p: p.grain_cycles)]
              for ps in r.points.values()]
    return max(a - b for eff in curves for a, b in zip(eff, eff[1:]))


def _pct_of_peak(r, words: int) -> float:
    return 100 * r.fraction_of_peak("discard", words)


def _at16(r, mode: str) -> float:
    return r.curves[mode][16].bits_per_s


def _efficiency(r, app: str, n: int = 0) -> float:
    """Speedup per node; ``n=0``: the largest machine."""
    n = n or max(r.run_cycles[app])
    return r.speedup(app, n) / n


def _slice(r, app: str, column: str) -> float:
    return r.breakdowns[app][column]


def _handler(r, app: str, handler: str):
    return r.results[app].handler_stats[handler]


def _extra(r, key: str) -> float:
    return r.result.extra[key]


_fig2 = partial(Row, "fig2", "Figure 2")
_table1 = partial(Row, "table1", "Table 1")
_fig3 = partial(Row, "fig3", "Figure 3")
_fig4 = partial(Row, "fig4", "Figure 4")
_table2 = partial(Row, "table2", "Table 2")
_table3 = partial(Row, "table3", "Table 3")
_fig5 = partial(Row, "fig5", "Figure 5")
_fig6 = partial(Row, "fig6", "Figure 6")
_table4 = partial(Row, "table4", "Table 4")
_table5 = partial(Row, "table5", "Table 5")
_crossover = partial(Row, "crossover", "Grain-size crossover")
_ablations = partial(Row, "ablations", "Ablations")
_xlevel = partial(Row, "xlevel", "Table 4")

ROWS: Tuple[Row, ...] = (
    _fig2("base ping, distance 0 (cycles)", lambda r: r.series["Ping"][0],
          (39, 47), "43-cycle null RPC, +-4", PAPER_FIG2["ping_base_cycles"]),
    *(_fig2(f"{s} slope (cycles/hop)", lambda r, s=s: r.slope(s), (1.7, 2.3),
            "a cycle per hop each way, +-15%",
            PAPER_FIG2["slope_per_hop_round_trip"]) for s in SERIES),
    _fig2("Read 1 (Imem), neighbour (cycles)", lambda r: _read1(r, 1), 0.1,
          "the text's neighbour read", PAPER_FIG2["read1_imem_neighbour"]),
    _fig2("Read 1 (Imem), 21-hop corner (cycles)", lambda r: _read1(r, 21),
          0.1, "21 hops need 8x8x8 (small scale: tests/runtime/test_rpc.py)",
          PAPER_FIG2["read1_imem_corner"], paper_scale=True),
    _fig2("Ping < R1 Imem <= R1 Emem < R6 Imem < R6 Emem, every distance",
          lambda r: all(a < b <= c < d < e for a, b, c, d, e in
                        zip(*(r.series[s].values() for s in SERIES))),
          HOLDS, "series ordered by length and memory cost"),

    _table1("alpha (cycles/msg)", lambda r: r.measured.cycles_per_msg,
            (8, 14), "+-3 cycles", TABLE1_JMACHINE.cycles_per_msg),
    _table1("beta (cycles/byte)", lambda r: r.measured.cycles_per_byte,
            0.1, "+-10%", TABLE1_JMACHINE.cycles_per_byte),
    _table1("vendor libraries / ours, per message (min)",
            lambda r: _published(r, "Vendor"), (100, INF),
            "two orders of magnitude below vendor libraries", strict=True),
    _table1("CM-5 Active Messages / ours, per message",
            lambda r: _published(r, "CM-5 (Active)"), (8, INF),
            "an order of magnitude below Active Messages", strict=True),

    _fig3("loaded / light latency, 8 and 16 words (min)", lambda r: min(
        _loaded_latency(r, n) / r.zero_load_latency(n) for n in (8, 16)),
          (1.05, INF), "long messages drive contention", strict=True),
    _fig3("loaded - light latency, 2 and 4 words (min)", lambda r: min(
        _loaded_latency(r, n) - r.zero_load_latency(n) for n in (2, 4)),
          (-3, INF), "loop-limited short messages must not fall",
          strict=True),
    _fig3("zero-load latency ascending in length",
          lambda r: _ascending(map(r.zero_load_latency, sorted(r.points))),
          HOLDS, "longer messages take longer unloaded"),
    _fig3("saturation traffic, 16 / 2 words",
          lambda r: r.saturation_traffic(16) / r.saturation_traffic(2),
          (1, INF), "long messages drive more traffic", strict=True),
    _fig3("saturation / bisection capacity (max)",
          lambda r: max(map(r.saturation_traffic, r.points))
          / r.capacity_bits_per_s, (0, 1), "saturates below the wire peak",
          strict=True),
    _fig3("efficiency fall between grain sizes (max)", _efficiency_drop,
          (-INF, 0.05), "monotone in grain, 0.05 noise"),
    _fig3("best efficiency (min over lengths)", lambda r: min(
        max(p.efficiency for p in points) for points in r.points.values()),
          (0.9, INF), "coarse grain reaches high efficiency", strict=True),
    *(_fig3(f"half-power grain, {name} (cycles)",
            lambda r, f=f: f(map(r.half_power_grain, r.points)), (45, 400),
            "the paper's 100-300 per message, widened")
      for name, f in (("shortest", min), ("longest", max))),
    _fig3("half-power grain, 16 / 2 words",
          lambda r: r.half_power_grain(16) / r.half_power_grain(2),
          (1, INF), "longer messages need more grain", strict=True),

    _fig4("8-word discard, % of peak", lambda r: _pct_of_peak(r, 8),
          0.05, "the paper's ~90%",
          PAPER_FIG4["discard_pct_of_peak_8_words"]),
    _fig4("2-word discard, % of peak", lambda r: _pct_of_peak(r, 2),
          (50, 75), "the paper's 'more than half'", strict=True),
    _fig4("bandwidth ascending in size, every sink", lambda r: all(
        _ascending(c[s].bits_per_s for s in sorted(c))
        for c in r.curves.values()), HOLDS, "longer messages amortise"),
    _fig4("discard > Imem copy > Emem copy, 16 words",
          lambda r: _at16(r, "discard") > _at16(r, "imem") > _at16(r, "emem"),
          HOLDS, "memory copies cap bandwidth"),
    _fig4("discard / Emem copy, 16 words",
          lambda r: _at16(r, "discard") / _at16(r, "emem"),
          (2.5, INF), "the critique's ~3x EMEM gap"),

    *(_table2(f"{event}, {column.replace('_', ' ')} (cycles)",
              lambda r, a=f"{prefix}_{event.lower()}": getattr(r.measured, a),
              0, "exact: executed code", PAPER_TABLE2[event][column])
      for event in ("Success", "Failure", "Write")
      for column, prefix in (("tags", "tags"), ("no_tags", "flag"))),

    *(_table3(f"doubling ratio, {name}", lambda r, f=f: f(_steps(
        [r.measured_us[n] for n in sorted(r.measured_us)])), (1, 1.9),
              "a wave per doubling: logarithmic", strict=True)
      for name, f in (("smallest", min), ("largest", max))),
    *(_table3(f"ours / paper J column, {name}", lambda r, f=f: f(
        us / TABLE3_BARRIER_US["J-Machine"][n]
        for n, us in r.measured_us.items()), (0.5, 2), "within 2x",
              strict=True)
      for name, f in (("smallest", min), ("largest", max))),
    _table3("64-node barrier (us)", lambda r: r.measured_us[64], (8.25, 26.4),
            "-50%/+60%: the 8+8-cycle suspend",
            TABLE3_BARRIER_US["J-Machine"][64], strict=True),
    _table3("iPSC/860 and Delta / ours (min)", lambda r: min(
        TABLE3_BARRIER_US[m][n] / us for m in ("IPSC/860", "Delta")
        for n, us in r.measured_us.items() if TABLE3_BARRIER_US[m].get(n)),
            (5, INF), "an order of magnitude faster", strict=True),

    _fig5("largest / 1-node speedup (min over apps)", lambda r: min(
        r.speedup(app, max(c)) / r.speedup(app, min(c))
        for app, c in r.run_cycles.items()), (1, INF), "every app speeds up",
          strict=True),
    _fig5("TSP efficiency at 2 or 4 nodes (max)",
          lambda r: max(_efficiency(r, "tsp", n) for n in (2, 4)),
          (0.95, INF), "pruning makes small-machine TSP super-linear",
          strict=True),
    _fig5("LCS efficiency, largest / 2 nodes",
          lambda r: _efficiency(r, "lcs") / _efficiency(r, "lcs", 2),
          (0, 1), "LCS bends over as chunks shrink", strict=True),
    _fig5("radix sort speedup at 2 nodes", lambda r: r.speedup(
        "radix_sort", 2), (1, 2), "the paper's 1.3x: remote writes cost",
          strict=True),
    _fig5("N-Queens / LCS efficiency, largest machine",
          lambda r: _efficiency(r, "nqueens") / _efficiency(r, "lcs"),
          (1, INF), "N-Queens tracks closer to ideal", strict=True),

    _fig6("slices are fractions summing to 1", lambda r: all(
        abs(sum(b.values()) - 1) <= 1e-6
        and 0 <= min(b.values()) <= max(b.values()) <= 1
        for b in r.breakdowns.values()), HOLDS, "all machine time"),
    _fig6("compute fraction (min over apps)", lambda r: min(
        b["compute"] for b in r.breakdowns.values()), (0.4, INF),
          "all four are computation-dominated", strict=True),
    _fig6("TSP idles less than N-Queens",
          lambda r: _slice(r, "tsp", "idle") < _slice(r, "nqueens", "idle"),
          HOLDS, "dynamic beats static balancing"),
    *(_fig6(f"TSP {s} fraction", lambda r, s=s: _slice(r, "tsp", s),
            (floor, INF), "a visible cost of CST", strict=True)
      for s, floor in (("sync", 0.02), ("xlate", 0.01))),
    *(_fig6(f"{app} {s} above LCS and N-Queens",
            lambda r, a=app, s=s: _slice(r, a, s) > max(
                _slice(r, o, s) for o in ("lcs", "nqueens")), HOLDS, why)
      for app, s, why in (("tsp", "xlate", "only TSP names globally"),
                          ("radix_sort", "comm", "a message per word"))),

    *(_table4(f"{handler} message length (words)", lambda r, a=app,
              h=handler: _handler(r, a, h).mean_message_words,
              0, "exact", PAPER_TABLE4[app]["msg_length"][name])
      for app, handler, name in (("lcs", "NxtChar", "NxtChar"),
                                 ("nqueens", "NQueens", "NQueens"),
                                 ("radix_sort", "WriteData", "Write"))),
    _table4("WriteData instructions/thread", lambda r: _handler(
        r, "radix_sort", "WriteData").instructions_per_thread, (3.8, 4.2),
            "+-0.2", PAPER_TABLE4["radix_sort"]["instr_per_thread"]["Write"]),
    _table4("NxtChar threads", lambda r: _handler(
        r, "lcs", "NxtChar").invocations, (262_144,) * 2, "exactly 2^18",
            PAPER_TABLE4["lcs"]["threads"]["NxtChar"], paper_scale=True),
    _table4("NxtChar instructions/thread", lambda r: _handler(
        r, "lcs", "NxtChar").instructions_per_thread, 0.05, "+-5%",
            PAPER_TABLE4["lcs"]["instr_per_thread"]["NxtChar"],
            paper_scale=True),
    _table4("NQueens tasks", lambda r: _handler(
        r, "nqueens", "NQueens").invocations, 0.05, "same 13-queens split",
            PAPER_TABLE4["nqueens"]["threads"]["NQueens"], paper_scale=True),
    _table4("WriteData threads", lambda r: _handler(
        r, "radix_sort", "WriteData").invocations, 0.01, "a write per key",
            PAPER_TABLE4["radix_sort"]["threads"]["Write"], paper_scale=True),
    *(_table4(f"{app} run time (ms)", lambda r, a=app: r.results[
        a].milliseconds, 0.25, "typical 2 cycles/instruction",
              PAPER_TABLE4[app]["runtime_ms"], paper_scale=True)
      for app in ("lcs", "nqueens", "radix_sort")),

    _table5("OS / user threads", lambda r: _extra(
        r, "os_threads") / _extra(r, "user_threads"), (0.05, INF),
            "every CST call is a message", strict=True),
    _table5("user / OS instructions", lambda r: _extra(
        r, "user_instructions") / _extra(r, "os_instructions"), (1, INF),
            "user instructions dominate", strict=True),
    _table5("xlates / xlate faults", lambda r: _extra(r, "xlates") / max(
        1, _extra(r, "xlate_faults")), (100, INF), "paper: ~3e-5 miss ratio",
            strict=True),
    _table5("user instructions/thread", lambda r: _extra(
        r, "user_instructions") / _extra(r, "user_threads"), (100, 1200),
            "our instance differs", PAPER_TABLE5["user_instr_per_thread"],
            strict=True),

    _crossover("fine / coarse, J-Machine overheads",
               lambda r: r.penalty("J-Machine (4+4)"), (0, 1.35),
               "at most ~30% extra on the MDP", strict=True),
    _crossover("fine / coarse, vendor overheads",
               lambda r: r.penalty("vendor class (~2900)"), (3, INF),
               "several times slower", strict=True),
    _crossover("penalty, next / previous overhead class (min)",
               lambda r: min(_steps([r.penalty(k) for k in r.points])),
               (0.98, INF), "each step widens the gap, 2% noise",
               strict=True),

    _ablations("RTT, dispatch 200 - dispatch 4 (cycles)",
               lambda r: r["dispatch"].at(200) - r["dispatch"].at(4),
               (372, 412), "two dispatches per round trip, +-20"),
    _ablations("barrier time ascending in save/restart cost",
               lambda r: _ascending(r["suspend"].metrics), HOLDS,
               "the suspend is on every wave"),
    _ablations("Emem copy bandwidth descending in EMEM latency",
               lambda r: _ascending(reversed(r["emem"].metrics)), HOLDS,
               "slower memory, lower bandwidth"),
    _ablations("bystander delay, block / return-to-sender",
               lambda r: r["flow_control"].at("block")
               / r["flow_control"].at("return_to_sender"), (5, INF),
               "return-to-sender frees the path", strict=True),
    _ablations("radix run, node TLB / software NNR",
               lambda r: _steps(r["node_tlb"].metrics)[0], (0, 1),
               "the TLB removes the NNR calculation", strict=True),
    _ablations("deepest queue, largest - smallest machine",
               lambda r: r["queue_pressure"].metrics[-1]
               - r["queue_pressure"].metrics[0], (0, INF),
               "bigger machines expand more up front"),
    _ablations("latency spread, fixed / round-robin",
               lambda r: r["arbitration"].at("fixed")
               / r["arbitration"].at("round_robin"), (1.3, INF),
               "fixed priority starves sources", strict=True),
    _ablations("TSP run, priority-1 / null-call yields",
               lambda r: _steps(r["tsp_priority"].metrics)[0], (0, 1),
               "no null-call yield tax", strict=True),

    _xlevel("same LCS length at both levels",
            lambda r: r.cycle.lcs_length == r.macro.output, HOLDS,
            "both levels compute the real answer"),
    _xlevel("instructions, macro / cycle",
            lambda r: r.macro.total_instructions() / r.cycle.instructions,
            (0.85, 1.15), "per-thread budgets agree"),
    _xlevel("run time, macro / cycle",
            lambda r: r.macro.cycles / r.cycle.cycles, (0.5, 1.5),
            "an unfitted guess; ROADMAP item 3 fits one per app"),
)


def score(artifact: str, result) -> List[Tuple[Row, Optional[float]]]:
    """Each row of one artifact with its value (``None``: skipped)."""
    skip = not is_paper_scale()
    return [(row, None if row.paper_scale and skip else row.measure(result))
            for row in ROWS if row.artifact == artifact]


def _band(row: Row) -> str:
    (low, high), eq = row.bounds, "" if row.strict else "="
    return ("holds" if (low, high) == HOLDS else f"= {low:g}" if low == high
            else f">{eq} {low:g}" if high == INF else f"<{eq} {high:g}"
            if low == -INF else f"{low:g} <{eq} x <{eq} {high:g}")


def format_scorecard(scores: Sequence[Tuple[Row, Optional[float]]]) -> str:
    """The scorecard table and its one-line footer."""
    rows = [[row.artifact, row.claim, row.paper,
             ("yes" if value else "no") if isinstance(value, bool) else value,
             _band(row), "skipped" if value is None
             else "ok" if row.accepts(value) else "OUT"]
            for row, value in scores]
    evaluated = [(row, value) for row, value in scores if value is not None]
    errors = [abs(value - row.paper) / row.paper
              for row, value in evaluated if row.paper is not None]
    mean = f"{100 * sum(errors) / len(errors):.1f}%" if errors else "n/a"
    in_band = sum(row.accepts(value) for row, value in evaluated)
    return format_table(
        ["artifact", "claim", "paper", "measured", "band", "verdict"], rows,
        title="Paper scorecard (repro.bench.fidelity)",
    ) + (f"\n{in_band}/{len(evaluated)} rows in band, "
         f"{len(scores) - len(evaluated)} skipped (need JM_SCALE=paper); "
         f"mean error vs the paper {mean} over {len(errors)} rows")
