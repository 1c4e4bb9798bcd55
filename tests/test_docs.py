"""Documentation consistency: the docs describe the code that exists."""

import pathlib
import re

DOCS = pathlib.Path(__file__).parent.parent / "docs"
ROOT = pathlib.Path(__file__).parent.parent


def test_costmodel_doc_matches_calibrated_constants():
    from repro.network.fabric import (DEFAULT_EJECT_LATENCY,
                                      DEFAULT_INJECT_LATENCY)

    text = (DOCS / "COSTMODEL.md").read_text()
    assert f"`inject_latency = {DEFAULT_INJECT_LATENCY}`" in text
    assert f"`eject_latency = {DEFAULT_EJECT_LATENCY}`" in text


def test_costmodel_doc_matches_published_constants():
    from repro.core.costs import DEFAULT_COSTS

    text = (DOCS / "COSTMODEL.md").read_text()
    assert "12.5 MHz" in text
    assert DEFAULT_COSTS.dispatch == 4 and "| 4 cycles |" in text
    assert DEFAULT_COSTS.xlate_hit == 3


def test_design_lists_every_package():
    import repro

    design = (ROOT / "DESIGN.md").read_text()
    for package in ("repro.core", "repro.asm", "repro.network",
                    "repro.machine", "repro.runtime", "repro.jsim",
                    "repro.apps", "repro.bench", "repro.cst"):
        assert package in design, package


def test_design_indexes_every_artifact():
    design = (ROOT / "DESIGN.md").read_text()
    for artifact in ("Figure 2", "Table 1", "Figure 3", "Figure 4",
                     "Table 2", "Table 3", "Figure 5", "Figure 6",
                     "Table 4", "Table 5"):
        assert artifact in design, artifact


def test_experiments_covers_every_artifact():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    for heading in ("Figure 2", "Table 1", "Figure 3", "Figure 4",
                    "Table 2", "Table 3", "Figure 5", "Figure 6",
                    "Table 4", "Table 5"):
        assert heading in experiments, heading


def test_readme_examples_exist():
    readme = (ROOT / "README.md").read_text()
    for match in re.finditer(r"`examples/([a-z_]+\.py)`", readme):
        assert (ROOT / "examples" / match.group(1)).exists(), match.group(1)


def test_every_example_mentioned_in_readme_or_tested():
    readme = (ROOT / "README.md").read_text()
    smoke = (ROOT / "tests" / "test_examples.py").read_text()
    for example in (ROOT / "examples").glob("*.py"):
        assert example.name in readme or example.name in smoke, example.name


def test_observability_event_table_matches_event_kinds():
    """The docs' event table and the EventBus vocabulary stay in sync."""
    from repro.telemetry.events import EVENT_KINDS

    text = (DOCS / "OBSERVABILITY.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (cycle|macro|both) \|", text,
                      flags=re.MULTILINE)
    documented = {kind for kind, _ in rows}
    assert documented == EVENT_KINDS, (
        f"undocumented kinds: {sorted(EVENT_KINDS - documented)}; "
        f"stale docs rows: {sorted(documented - EVENT_KINDS)}")
    assert len(rows) == len(documented), "duplicate event-table rows"


def test_observability_fabric_table_matches_fabric_metrics():
    """The docs' fabric-metric table mirrors FABRIC_METRICS row for row."""
    from repro.network.observatory import FABRIC_METRICS

    text = (DOCS / "OBSERVABILITY.md").read_text()
    rows = re.findall(
        r"^\| `(net\.[a-z_.]+)` \| (counter|gauge|histogram) \|", text,
        flags=re.MULTILINE)
    documented = {name for name, _ in rows}
    expected = {name for name, *_ in FABRIC_METRICS}
    assert documented == expected, (
        f"undocumented metrics: {sorted(expected - documented)}; "
        f"stale docs rows: {sorted(documented - expected)}")
    assert len(rows) == len(documented), "duplicate fabric-table rows"
    kinds = dict(rows)
    expected_kinds = {name: kind for name, kind, *_ in FABRIC_METRICS}
    assert kinds == expected_kinds


def test_observability_documents_path_categories():
    """The critical-path category vocabulary is spelled out in the docs."""
    from repro.telemetry.trace import PATH_CATEGORIES

    text = (DOCS / "OBSERVABILITY.md").read_text()
    for category in PATH_CATEGORIES:
        assert f"`{category}`" in text, category


def test_bench_targets_in_design_exist():
    design = (ROOT / "DESIGN.md").read_text()
    for match in re.finditer(r"`benchmarks/(bench_[a-z0-9_]+\.py)`", design):
        assert (ROOT / "benchmarks" / match.group(1)).exists(), match.group(1)


def test_src_is_pure_python_no_numpy():
    """pyproject declares no dependencies; keep it true."""
    for path in (ROOT / "src").rglob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+numpy\b",
                             path.read_text(), re.M), path


def test_observability_documents_codegen_metrics():
    """Every ``machine.codegen.*`` name has a docs row, and no other."""
    from repro.core.fastpath import CODEGEN_METRICS

    text = (DOCS / "OBSERVABILITY.md").read_text()
    documented = re.findall(r"^\| `machine\.codegen\.([a-z_]+)` \|", text,
                            flags=re.MULTILINE)
    assert sorted(documented) == sorted(CODEGEN_METRICS)


def test_per_instruction_closure_path_stays_deleted():
    """The MDP has two execution paths (oracle interpreter, compiled
    blocks); the closure compiler they replaced must not drift back."""
    gone = re.compile(r"\b(Decoded|compile_instr|_run_block_quiet)\b")
    for tree, pattern in ((ROOT / "src", "*.py"), (DOCS, "*.md")):
        for path in tree.rglob(pattern):
            assert not gone.search(path.read_text()), path


def test_fabric_has_one_way_to_move_a_worm():
    """``Fabric.step`` and ``Fabric.advance`` drive one kernel; the solo
    lanes, the conflict partition's write-back and the per-worm step
    method it replaced live on only as the oracle under ``tests/``."""
    gone = re.compile(r"\b(PyLanes|vectorize|_finish_solo|_step_worm)\b")
    for path in (ROOT / "src").rglob("*.py"):
        assert not gone.search(path.read_text()), path


def test_until_probe_stays_deleted():
    """A stop condition is watched through the store hook: no compiled
    block or driver takes a per-instruction predicate ``probe`` again.
    (``amt.probe`` and the fabric observatory's probe are other things:
    match the parameter and the generated call, not the word.)"""
    gone = re.compile(r"probe\(t0\)|(?<!-)\bprobed\b|[(,]\s*probe\s*[,:)=]")
    for package in ("core", "machine"):
        for path in (ROOT / "src" / "repro" / package).rglob("*.py"):
            assert not gone.search(path.read_text()), path
    for path in (ROOT / "src").rglob("*.py"):
        assert "until=lambda" not in path.read_text(), path


def test_sharded_backend_stays_deleted():
    """The multi-process backend is gone (docs/PERFORMANCE.md §3 keeps
    the negative result): no source, tool or user-facing doc offers it
    again.  Its names may appear in that section, in docs/SNAPSHOT.md §1
    (the payload keys old files still carry), and in the project
    history (CHANGES.md, ROADMAP.md); ``benchmarks/e2e`` is the frozen
    yardstick and reports the units as missing."""
    gone = re.compile(r"parallel_shards|repro\.parallel|parallel-smoke")
    sections = {DOCS / "PERFORMANCE.md": ("## 3.", "## 4."),
                DOCS / "SNAPSHOT.md": ("## 1.", "## 2.")}
    paths = [ROOT / name for name in ("README.md", "DESIGN.md",
                                      "EXPERIMENTS.md", "Makefile")]
    paths.append(ROOT / ".claude" / "skills" / "verify" / "SKILL.md")
    paths += DOCS.glob("*.md")
    for tree in ("src", "examples"):
        paths += (ROOT / tree).rglob("*.py")
    paths += (ROOT / "benchmarks").glob("*.py")
    assert not (ROOT / "src" / "repro" / "parallel").exists()
    for path in paths:
        text = path.read_text()
        if path in sections:
            start, end = (text.index(f"\n{mark}") for mark in sections[path])
            assert gone.search(text[start:end]), path
            text = text[:start] + text[end:]
        assert not gone.search(text), path


def _choices(main, argv, flag, capsys):
    """The ``{a,b,c}`` list argparse prints for ``flag`` in ``--help``."""
    import pytest

    with pytest.raises(SystemExit):
        main(argv + ["--help"])
    listed = re.search(rf"{flag} \{{([^}}]+)\}}", capsys.readouterr().out)
    return tuple(listed.group(1).split(","))


def test_every_cli_offers_exactly_the_catalogue(capsys):
    """`--app` / `--scenario` / `--workload` are computed from
    ``repro.apps.scenario.CATALOGUE``; a run added there appears in
    every CLI, and nowhere else first."""
    from repro.apps.scenario import CATALOGUE
    from repro.chaos.__main__ import main as chaos
    from repro.service.__main__ import main as service
    from repro.snapshot.__main__ import main as snapshot
    from repro.telemetry.__main__ import main as telemetry

    everything = tuple(CATALOGUE)
    assert _choices(service, ["submit"], "--app", capsys) == everything
    assert _choices(snapshot, ["save"], "--scenario", capsys) == everything
    for command in ("serve", "watch"):
        assert _choices(telemetry, [command], "--workload", capsys) \
            == everything
    assert _choices(chaos, ["replay"], "--app", capsys) == tuple(
        name for name in CATALOGUE if CATALOGUE[name].level == "macro")


def test_one_place_knows_the_named_runs():
    """The four hand-written runners and their app tuples stay deleted,
    the subsystems restate no catalogue default, and the macro apps
    share one attach-run sequence (``repro.apps.base.launch``)."""
    src = ROOT / "src" / "repro"
    gone = re.compile(
        r"\b(_run_macro|_run_ping|_chaos_engine|_lcs_job|_ping_job|_JOBS"
        r"|_save_ping|_save_lcs|_PING_ITERATIONS|_PARAM_SCHEMA"
        r"|event_fingerprint)\b")
    for path in src.rglob("*.py"):
        assert not gone.search(path.read_text()), path
    restated = re.compile(
        r"""["'](lcs|nqueens|ping)["']\s*,\s*["'](lcs|nqueens|ping)["']"""
        r"|0\.02\b|20130501|\bn=8\b|tasks_per_node=4|iterations=50")
    for package in ("service", "chaos", "telemetry", "snapshot"):
        for path in (src / package).rglob("*.py"):
            assert not restated.search(path.read_text()), path
    apps = "".join(path.read_text() for path in (src / "apps").glob("*.py"))
    assert apps.count("ReliableLayer(") == 1
    assert apps.count("AppResult(") == 1
    attach = re.compile(r"\.attach_macro\(|sampler\.attach\(")
    allowed = {src / "apps" / "base.py", src / "apps" / "scenario.py",
               src / "snapshot" / "state.py",     # restore re-attaches
               src / "chaos" / "engine.py"}       # the method's own doc
    for path in src.rglob("*.py"):
        if path not in allowed:
            assert not attach.search(path.read_text()), path
