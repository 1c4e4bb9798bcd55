"""``python -m repro.snapshot save / resume`` over the whole catalogue.

``save --out x_{cycle}.ckpt`` keeps every checkpoint; resuming the
*first* one is a run killed right after its first save.  The resumed
run must print the digest the uninterrupted ``save`` run printed.
"""

import re

import pytest

from repro.apps import lcs
from repro.apps.scenario import CATALOGUE
from repro.snapshot import CheckpointPolicy, read_header
from repro.snapshot import __main__ as cli
from repro.telemetry import Telemetry

#: (nodes, checkpoint interval) small enough that each entry saves at
#: least twice at the size the CLI runs it.
SIZES = {"ping": (8, 800), "nqueens": (8, 15_000), "lcs": (16, 2_000_000)}

#: The uninterrupted paper-size LCS run at 16 nodes, computed at the
#: commit before the header carried ``params``.
PARENT_LCS_DIGEST = \
    "225d9ac18ee7fc78532e1412fab6a879bd50827b4be986b9fc5575ddacc78f42"


def _final_digest(text):
    return re.search(r"final digest: ([0-9a-f]{64})", text).group(1)


def _first_checkpoint(tmp_path):
    return str(min(tmp_path.glob("run_*.ckpt"),
                   key=lambda path: int(path.stem.split("_")[1])))


def _save_then_resume_first(scenario, tmp_path, capsys):
    nodes, every = SIZES[scenario]
    assert cli.main(["save", "--scenario", scenario, "--nodes", str(nodes),
                     "--every", str(every),
                     "--out", str(tmp_path / "run_{cycle}.ckpt")]) == 0
    want = _final_digest(capsys.readouterr().out)
    assert len(list(tmp_path.glob("run_*.ckpt"))) >= 2
    first = _first_checkpoint(tmp_path)
    meta = read_header(first)["meta"]
    assert meta["scenario"] == scenario and meta["n_nodes"] == nodes
    assert set(meta["params"]) == set(CATALOGUE[scenario].schema)
    assert cli.main(["resume", first]) == 0
    out = capsys.readouterr().out
    assert f"resumed t={meta['now']} -> " in out
    return want, _final_digest(out)


@pytest.mark.parametrize("scenario",
                         [name for name in CATALOGUE if name != "lcs"])
def test_killed_at_first_save_resumes_to_the_same_digest(
        scenario, tmp_path, capsys):
    want, got = _save_then_resume_first(scenario, tmp_path, capsys)
    assert got == want


@pytest.mark.slow
def test_paper_size_lcs_resumes_to_the_parent_digest(tmp_path, capsys):
    want, got = _save_then_resume_first("lcs", tmp_path, capsys)
    assert got == want == PARENT_LCS_DIGEST


def test_header_without_params_means_the_cli_instance(
        tmp_path, capsys, monkeypatch):
    """Checkpoints written before the header carried ``params`` hold
    only ``scenario: lcs``; ``resume`` rebuilds the instance ``save``
    runs (shrunk here — test_paper_size_lcs… runs the real one)."""
    monkeypatch.setitem(cli._CLI_PARAMS, "lcs", {"scale": 0.05})
    path = str(tmp_path / "old.ckpt")
    telemetry = Telemetry()
    policy = CheckpointPolicy(path, every=10_000, meta={"scenario": "lcs"})
    lcs.run_parallel(8, lcs.LcsParams().scaled(0.05), telemetry=telemetry,
                     checkpoint=policy)
    assert policy.saves >= 2
    assert "params" not in read_header(path)["meta"]
    assert cli.main(["resume", path]) == 0
    assert _final_digest(capsys.readouterr().out) \
        == telemetry.events.fingerprint()


def test_macro_snapshot_of_an_unknown_scenario_is_refused(tmp_path, capsys):
    path = str(tmp_path / "mine.ckpt")
    lcs.run_parallel(4, lcs.LcsParams().scaled(0.02),
                     checkpoint=CheckpointPolicy(path, every=5_000))
    assert cli.main(["resume", path]) == 2
    assert "cannot resume a macro snapshot" in capsys.readouterr().err
