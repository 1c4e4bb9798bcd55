"""Documentation consistency: the docs describe the code that exists."""

import functools
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


def _cost_reads():
    """``{field: levels}`` for every ``CostModel`` field read as
    ``<...>costs.<field>`` under ``src/repro`` outside ``core/costs.py``;
    a read in ``repro.jsim`` or ``repro.apps`` is the macro level's."""
    import ast
    from dataclasses import fields

    from repro.core.costs import CostModel

    names = {field.name for field in fields(CostModel)}
    src = ROOT / "src" / "repro"
    reads = {}
    for path in src.rglob("*.py"):
        package = path.relative_to(src).parts[0]
        if path == src / "core" / "costs.py":
            continue
        level = "macro" if package in ("jsim", "apps") else "cycle"
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute) and node.attr in names):
                continue
            owner = node.value
            if getattr(owner, "attr", getattr(owner, "id", None)) == "costs":
                reads.setdefault(node.attr, set()).add(level)
    return reads


def test_every_cost_is_charged():
    """A ``CostModel`` field no simulator reads restates a number or
    does nothing when set; it does not belong in the model."""
    from dataclasses import fields

    from repro.core.costs import CostModel

    unread = {field.name for field in fields(CostModel)} - set(_cost_reads())
    assert not unread, f"CostModel fields nothing reads: {sorted(unread)}"


def test_costmodel_doc_lists_every_field_and_its_readers():
    """COSTMODEL.md's field table is ``CostModel`` row for row: name,
    default and the level(s) whose code reads it."""
    from dataclasses import fields

    from repro.core.costs import DEFAULT_COSTS, CostModel

    text = (DOCS / "COSTMODEL.md").read_text()
    table = text[text.index("## The `CostModel` fields"):
                 text.index("## Published constants")]
    rows = re.findall(r"^\| `([a-z_]+)` \| (\d+) \| (cycle|macro|both) \|",
                      table, flags=re.MULTILINE)
    levels = {"cycle": {"cycle"}, "macro": {"macro"},
              "both": {"cycle", "macro"}}
    reads = _cost_reads()
    assert [(name, int(value), levels[level])
            for name, value, level in rows] == [
        (field.name, getattr(DEFAULT_COSTS, field.name),
         reads.get(field.name)) for field in fields(CostModel)]


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
    """``repro.bench.fidelity`` checks every artifact, and EXPERIMENTS.md
    quotes each paper value a row checks in the section the row names."""
    from repro.bench.fidelity import ROWS

    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    sections = re.findall(r"^## ([^\n]+)\n(.*?)(?=^## |\Z)", experiments,
                          flags=re.M | re.S)
    assert {row.section for row in ROWS} >= {
        "Figure 2", "Table 1", "Figure 3", "Figure 4", "Table 2", "Table 3",
        "Figure 5", "Figure 6", "Table 4", "Table 5"}
    for row in ROWS:
        [body] = [body for heading, body in sections
                  if heading.startswith(row.section)]
        if row.paper is not None:
            quoted = "|".join(re.escape(f"{row.paper:{spec}}")
                              for spec in ("g", ","))
            assert re.search(rf"(?<![\d.,])({quoted})(?![\d]|[.,]\d)", body), \
                (row.section, row.claim, row.paper)


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


def test_observability_metric_tables_match_metric_families():
    """OBSERVABILITY.md §1 is ``METRIC_FAMILIES`` row for row: prefix,
    leaves, kind and unit; §8 adds no table of its own."""
    from repro.telemetry.wiring import METRIC_FAMILIES

    text = (DOCS / "OBSERVABILITY.md").read_text()
    schema = text[text.index("## 1."):text.index("## 2.")]
    rows = re.findall(r"^\| `([a-z_.<>]+)` \| ([^|]+) \| "
                      r"(counter|gauge|histogram) \| ([a-z]+) \|",
                      schema, flags=re.MULTILINE)
    documented = [(prefix, tuple(re.findall(r"`([a-z_.0-9]+)`", leaves)),
                   kind, unit) for prefix, leaves, kind, unit in rows]
    assert documented == [tuple(family) for family in METRIC_FAMILIES]
    fabric = text[text.index("## 8."):]
    assert not re.search(r"^\| `net\.", fabric, flags=re.MULTILINE)


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


def test_channel_layout_lives_in_routing():
    """A fabric channel key is ``(node * PORTS + port) * CLASSES +
    pclass``, decided in ``repro.network.routing`` alone: every other
    module and test builds keys with ``route_keys`` and reads them with
    ``decode_key``, so neither the layout's names nor arithmetic on a
    key may appear outside it."""
    layout = re.compile(
        r"\b(PORTS|INJECT_PORT|EJECT_PORT|CLASSES)\b|\*\s*(8|16)\s*\+"
        r"|\b(key|port|channel|link)\w*(\[[^]]*\])?\s*(>>|<<|//|%|&|\|)"
        r"|divmod\(\s*(key|port|channel)")
    routing = ROOT / "src" / "repro" / "network" / "routing.py"
    trees = [ROOT / "src" / "repro" / package for package in
             ("network", "chaos", "telemetry", "snapshot", "machine")]
    trees += [ROOT / "tests" / package for package in
              ("network", "chaos", "telemetry", "snapshot")]
    for tree in trees:
        for path in tree.rglob("*.py"):
            if path != routing:
                assert not layout.search(path.read_text()), path


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
    again.  Its names may appear in that section and in the project
    history (CHANGES.md, ROADMAP.md); ``benchmarks/e2e`` is the frozen
    yardstick and reports the units as missing."""
    gone = re.compile(r"parallel_shards|repro\.parallel|parallel-smoke")
    sections = {DOCS / "PERFORMANCE.md": ("## 3.", "## 4.")}
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


def test_simulator_classes_convert_no_old_capture():
    """A build reads only the snapshot files of its own ``FORMAT_VERSION``
    (docs/SNAPSHOT.md §1), so no simulator class converts an older
    capture while it unpickles: a change to what a capture holds bumps
    the version instead (tests/snapshot/test_shape.py pins the shape)."""
    import ast

    for package in ("core", "network", "machine", "jsim"):
        for path in (ROOT / "src" / "repro" / package).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                assert not (isinstance(node, ast.FunctionDef) and node.name
                            in ("__setstate__", "__getstate__")), (
                    f"{path}:{node.lineno} defines {node.name}; bump "
                    "FORMAT_VERSION in src/repro/snapshot/format.py "
                    "instead of converting old captures")


def test_every_export_resolves():
    """Each name in a ``repro`` module's ``__all__`` is defined there, so
    deleting a class cannot leave a stale re-export behind in a package
    ``__init__`` (``__main__`` modules are CLIs: importing one runs it)."""
    import importlib
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")]
    assert len(modules) > 50
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


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


def _config_reads(cls):
    """Fields of the dataclass ``cls`` read under ``src/repro``: as
    ``<...>config.<field>`` anywhere, or as ``self.<field>`` in the
    class's own methods."""
    import ast
    from dataclasses import fields

    names = {field.name for field in fields(cls)}
    reads = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in names:
                owner = node.value
                if getattr(owner, "attr", getattr(owner, "id", None)) \
                        == "config":
                    reads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and node.name == cls.__name__:
                reads.update(
                    inner.attr for inner in ast.walk(node)
                    if isinstance(inner, ast.Attribute)
                    and inner.attr in names
                    and getattr(inner.value, "id", None) == "self")
    return names, reads


def test_every_config_field_is_read():
    """A ``ServiceConfig`` or ``MachineConfig`` field nothing reads is a
    setting that does nothing when set; it does not belong there."""
    from repro.machine.config import MachineConfig
    from repro.service.supervisor import ServiceConfig

    for cls in (ServiceConfig, MachineConfig):
        names, reads = _config_reads(cls)
        assert names <= reads, \
            f"{cls.__name__} fields nothing reads: {sorted(names - reads)}"


def _literal_defaults(packages):
    """``(key, value)`` for every default written as a literal in the
    given packages of ``src/repro``: a parameter default (keyed
    ``Class.param`` in a method, ``function.param`` otherwise), a
    class-body or module-level constant (``Class.NAME`` / ``NAME``), an
    ``add_argument`` flag's ``default=`` (``--flag``) and the fallback
    of ``<dict>.get("key", <literal>)`` (``"key"``)."""
    import ast

    def literal(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and node.value is not None \
            and not isinstance(node.value, bool)

    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = scope or child.name
                args = child.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional)
                                            - len(args.defaults):],
                                 args.defaults))
                pairs += [(arg, default) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults)
                          if default is not None]
                sites.extend((f"{owner}.{arg.arg}", default)
                             for arg, default in pairs if literal(default))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                visit(child, child.name)
            else:
                if isinstance(child, (ast.Assign, ast.AnnAssign)) \
                        and literal(child.value) and not isinstance(
                            node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    targets = getattr(child, "targets", None) or [
                        child.target]
                    sites.extend((f"{scope}.{target.id}" if scope
                                  else target.id, child.value)
                                 for target in targets
                                 if isinstance(target, ast.Name))
                if isinstance(child, ast.Call) and isinstance(
                        child.func, ast.Attribute) and child.args \
                        and isinstance(child.args[0], ast.Constant):
                    if child.func.attr == "add_argument":
                        sites.extend(
                            (child.args[0].value, keyword.value)
                            for keyword in child.keywords
                            if keyword.arg == "default"
                            and literal(keyword.value))
                    elif child.func.attr == "get" and len(child.args) == 2 \
                            and literal(child.args[1]):
                        sites.append((f'"{child.args[0].value}"',
                                      child.args[1]))
                visit(child, scope)

    for package in packages:
        for path in (ROOT / "src" / "repro" / package).rglob("*.py"):
            visit(ast.parse(path.read_text()), None)
    return [(key, ast.literal_eval(value)) for key, value in sites]


#: Each setting that once had more than one literal default, with the
#: packages it is configured in and every key a default of it could be
#: written under (a bare name matches a parameter of any function).
ONE_HOME_SETTINGS = {
    "queue limit": (("service",),
                    ("queue_limit", "JobQueue.limit", "--queue-limit")),
    "retry budget": (("service",), ("max_retries", "--max-retries")),
    "lease timeout": (("service",), ("lease_timeout_s",
                                     "LeaseTable.timeout_s",
                                     "--lease-timeout-s")),
    "hung-worker window": (("service",), ("progress_window_s",
                                          "--progress-window-s")),
    "backoff seed": (("service",), ("seed", "--seed")),
    "heartbeat": (("service",), ("heartbeat_s", "--heartbeat-s")),
    "drain timeout": (("service",), ("DRAIN_TIMEOUT_S",
                                     "Supervisor.timeout_s", '"timeout_s"',
                                     "--drain-timeout-s", "--timeout-s")),
    "service port": (("service",), ("PORT", "--port", "--url")),
    "job size": (("service",), ("n_nodes", "--nodes")),
    "event-bus limit": (("telemetry", "snapshot"),
                        ("EVENT_LIMIT", "event_limit", "EventBus.limit")),
    "demo size": (("telemetry",), ("start_demo.n_nodes", "--nodes")),
    "demo scale": (("telemetry",), ("start_demo.scale", "--scale")),
    "demo interval": (("telemetry",), ("start_demo.every_wall_s",
                                       "--interval")),
    "watchdog window": (("chaos", "snapshot"), ("window", "--window")),
    "chaos replay size": (("chaos",), ("run_app_under_plan.n_nodes",
                                       "--nodes")),
    "chaos replay app": (("chaos",), ("run_app_under_plan.app", "--app")),
    "bind host": (("telemetry", "service"), ("HOST", "host", "--host")),
}


def test_each_setting_has_one_literal_default():
    """A default written in two places can silently disagree (the
    hung-worker window once was 10 s in the service and 30 s in its
    lease table); each setting's default is one literal, and every
    other place takes it from there."""
    wrong = {}
    for setting, (packages, keys) in ONE_HOME_SETTINGS.items():
        sites = [(key, value) for key, value in _literal_defaults(packages)
                 if any(key == name or key.endswith("." + name)
                        for name in keys)]
        if len(sites) != 1:
            wrong[setting] = sites
    assert not wrong, f"settings without exactly one literal default: {wrong}"


_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
#: Assignments whose strings name what they list, not a use of it: a
#: package's lazy export table derives its ``__all__`` (src/repro/_lazy.py).
_NOT_USES = ("__all__", "__slots__", "_EXPORTS")


@functools.lru_cache(maxsize=None)
def _program_scan():
    """One pass over the program: ``src/repro``, ``benchmarks/``,
    ``examples/`` and the Makefile (tests are not part of it).

    Returns ``(used, loaded, defined, stored, fields)``: ``used`` every
    name loaded as a ``Name`` or an attribute or appearing as an
    identifier in a string constant (generated block code and
    ``getattr`` names included; docstrings, ``__all__``, ``__slots__``
    and a package's ``_EXPORTS`` table are not uses); ``loaded`` the
    attributes loaded or named in a string constant; and, under
    ``src/repro`` only, ``{name: [file:line]}`` of every function,
    class and method defined and of every attribute assigned, and the
    field names of every ``@dataclass``.  Name-level: ``x.count``
    anywhere reads every attribute called ``count``."""
    import ast

    src = ROOT / "src" / "repro"
    names, attributes = set(), set()
    strings = set(_IDENTIFIER.findall((ROOT / "Makefile").read_text()))
    defined, stored, fields = {}, {}, set()
    for path in [*src.rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py"),
                 *(ROOT / "examples").rglob("*.py")]:
        ours = src in path.parents
        skip = set()
        # ast.walk visits a node before its children, so a docstring or
        # an ``__all__`` / ``__slots__`` list or ``_EXPORTS`` table is
        # marked before it is met.
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and node.body \
                    and isinstance(node.body[0], ast.Expr):
                skip.add(node.body[0].value)
            if isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) in _NOT_USES
                    for target in node.targets):
                skip.update(ast.walk(node.value))
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
                elif ours:
                    stored.setdefault(node.attr, []).append(where)
            elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str) and node not in skip:
                strings.update(_IDENTIFIER.findall(node.value))
            if ours and isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef)):
                defined.setdefault(node.name, []).append(where)
            if ours and isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(decorator)
                    for decorator in node.decorator_list):
                fields.update(item.target.id for item in node.body
                              if isinstance(item, ast.AnnAssign)
                              and isinstance(item.target, ast.Name))
    return (names | attributes | strings, attributes | strings, defined,
            stored, fields)


def _kept(found, allowed):
    """An assertion message for ``found`` (name -> sites) against the
    ``allowed`` table, or None when they name the same things."""
    new = {name: found[name] for name in found.keys() - allowed.keys()}
    stale = sorted(allowed.keys() - found.keys())
    if new or stale:
        return f"not in the table: {new}; in the table but used now: {stale}"
    return None


#: Definitions nothing in the program names, each kept for a reason.
ALLOWED_UNREACHED = {
    "scaling_analysis": "checks the paper's §4.3.1 LCS decomposition, "
                        "which the scorecard does not score yet",
    "block_source": "prints a compiled block's generated text: ROADMAP "
                    "item 8's route to retiring the Tracer",
    "crosses_x_midplane": "the oracle test_routing.py and "
                          "test_netmodel.py check packed midplane bits "
                          "against",
    "run_future_experiment": "shows the paper's future lifecycle on the "
                             "cycle machine",
    "run_reduction": "shows the paper's combining tree on the cycle "
                     "machine; two tier-1 properties run it as a workload",
    "register_codegen_metrics": "a documented opt-in (OBSERVABILITY.md §1)",
}


def test_every_definition_is_reached():
    """A function, class or method the program never names is code only
    its tests keep alive; delete it with them, or say in
    ``ALLOWED_UNREACHED`` why it stays.  Dunders and the ``http.server``
    hooks (``do_*``, ``log_message``) are called by name from outside."""
    used, _, defined, _, _ = _program_scan()
    unreached = {name: where for name, where in defined.items()
                 if name not in used
                 and not (name.startswith("__") and name.endswith("__"))
                 and not name.startswith("do_") and name != "log_message"}
    message = _kept(unreached, ALLOWED_UNREACHED)
    assert message is None, message


#: Attributes stored and never read by the program, each kept for a
#: reason.
ALLOWED_UNREAD = {
    **dict.fromkeys(
        ("imem_reads", "imem_writes", "emem_reads", "emem_writes"),
        "AccessMeter's traffic counts: tests/core/test_blocks.py compares "
        "a compiled block's memory traffic with the interpreter's"),
    "launch_time": "Worm's, with block_cycles and done (which the "
                   "name-level rule cannot see): "
                   "tests/network/test_kernel_properties.py compares them "
                   "with reference_fabric.py",
    "walks": "TranslationBuffer's: the node TLB charges no cycles, so its "
             "counters are test_tlb.py's only evidence that it caches",
}


def test_every_stored_attribute_is_read():
    """An attribute the program stores and never reads is work (some
    were written per message or per tick) and state a capture carries
    for nothing; delete it, or say in ``ALLOWED_UNREAD`` why it stays.
    A ``@dataclass`` field counts as read: the metric wiring exports
    those through ``fields()``."""
    _, loaded, _, stored, fields = _program_scan()
    unread = {name: where for name, where in stored.items()
              if name not in loaded and name not in fields}
    message = _kept(unread, ALLOWED_UNREAD)
    assert message is None, message
