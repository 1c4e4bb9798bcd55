"""JobSpec canonicalization: the rules the cache's soundness rests on.

Two specs that *mean* the same run must hash identically (else the
cache silently loses hits), and two specs that mean different runs
must never collide on defaults (else the cache serves wrong results).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.scenario import CATALOGUE
from repro.core.errors import ConfigurationError
from repro.service import APPS, SPEC_VERSION, JobSpec


class TestCanonicalization:
    def test_defaults_are_filled_in(self):
        bare = JobSpec("lcs")
        explicit = JobSpec("lcs", n_nodes=8,
                           params={"scale": 0.02, "seed": 20130501},
                           plan=None, reliable=False)
        assert bare.digest == explicit.digest

    def test_canonical_json_is_sorted_and_minimal(self):
        text = JobSpec("lcs").canonical_json()
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True,
                                  separators=(",", ":"))
        assert parsed["version"] == SPEC_VERSION

    def test_numeric_coercion_unifies_int_and_float(self):
        assert JobSpec("lcs", params={"scale": 1}).digest \
            == JobSpec("lcs", params={"scale": 1.0}).digest

    def test_param_order_is_irrelevant(self):
        a = JobSpec("nqueens", params={"n": 9, "tasks_per_node": 2})
        b = JobSpec("nqueens", params={"tasks_per_node": 2, "n": 9})
        assert a.digest == b.digest

    def test_reliable_true_and_empty_dict_hash_equal(self):
        assert JobSpec("lcs", reliable=True).digest \
            == JobSpec("lcs", reliable={}).digest

    def test_reliable_kwargs_order_is_irrelevant(self):
        a = JobSpec("lcs", reliable={"timeout": 500, "max_retries": 9})
        b = JobSpec("lcs", reliable={"max_retries": 9, "timeout": 500})
        assert a.digest == b.digest

    def test_fault_plan_normalizes_defaulted_fields(self):
        sparse = {"seed": 3, "specs": [{"kind": "drop", "rate": 0.1}]}
        padded = {"seed": 3, "specs": [{"kind": "drop", "rate": 0.1,
                                        "node": None}]}
        assert JobSpec("lcs", plan=sparse).digest \
            == JobSpec("lcs", plan=padded).digest

    def test_distinct_meanings_never_collide(self):
        digests = {
            JobSpec("lcs").digest,
            JobSpec("lcs", n_nodes=16).digest,
            JobSpec("lcs", params={"scale": 0.04}).digest,
            JobSpec("lcs", reliable=True).digest,
            JobSpec("lcs", plan={"seed": 1, "specs": [
                {"kind": "drop", "rate": 0.1}]}).digest,
            JobSpec("nqueens").digest,
            JobSpec("ping").digest,
        }
        assert len(digests) == 7


class TestCacheKeysDoNotMove:
    """Digests computed at the commit before the catalogue existed: a
    result cached by that build is a hit for this one."""

    PLAN = {"seed": 3, "name": "x",
            "specs": [{"kind": "drop", "rate": 0.01}]}

    @pytest.mark.parametrize("spec, digest", [
        (JobSpec("lcs"),
         "4530eabf5aaaca8039b1952a4d31fd9eaa9398f51d099910f4e2a2d09615efbf"),
        (JobSpec("nqueens", n_nodes=4),
         "d65c4ef953382e3e746fdf58c2ef374e7fa3af7b46b0c38be3a1cb2db8ea3ea4"),
        (JobSpec("ping", n_nodes=16, params={"iterations": 3}),
         "fcfd9edf699f8edbad9a10ca64ee464dcc596d68e374b4056670342f2f4b0cf3"),
        (JobSpec("lcs", n_nodes=8, params={"scale": 0.05, "seed": 7},
                 plan=PLAN, reliable=True),
         "3f09716ddff593c80842d0bf27d63699d6c82fd5d95db82d18cf1a9119c3745f"),
    ], ids=["lcs", "nqueens", "ping", "lcs-drop-reliable"])
    def test_parent_digests(self, spec, digest):
        assert SPEC_VERSION == 1
        assert spec.digest == digest


_VALUES = {
    float: st.floats(min_value=1e-3, max_value=4.0, allow_nan=False),
    int: st.integers(min_value=1, max_value=10**9),
}


@st.composite
def _catalogue_specs(draw):
    """(app, params with a random subset of the schema left out)."""
    app = draw(st.sampled_from(sorted(CATALOGUE)))
    schema = CATALOGUE[app].schema
    params = {name: draw(_VALUES[kind])
              for name, (kind, _default) in schema.items()
              if draw(st.booleans())}
    return app, params


class TestCatalogueProperty:
    """One digest per meaning, for every catalogue entry (ROADMAP 5)."""

    @settings(max_examples=60, deadline=None)
    @given(_catalogue_specs(), st.integers(1, 64), st.randoms())
    def test_spellings_of_one_run_share_a_digest(self, drawn, n_nodes, rng):
        app, params = drawn
        schema = CATALOGUE[app].schema
        spec = JobSpec(app, n_nodes=n_nodes, params=params)
        # Omitted fields spelled out, in another key order, whole
        # floats as ints and ints as whole floats.
        full = {name: params.get(name, default)
                for name, (_kind, default) in schema.items()}
        respelled = {}
        for name in rng.sample(sorted(full), len(full)):
            value = full[name]
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            elif isinstance(value, int) and value < 2**53:
                value = float(value)
            respelled[name] = value
        assert JobSpec(app, n_nodes=n_nodes, params=respelled).digest \
            == spec.digest
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.digest == spec.digest
        assert JobSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) \
            == spec

    @pytest.mark.parametrize("app", sorted(CATALOGUE))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), "many", None])
    def test_unusable_values_rejected(self, app, bad):
        for name in CATALOGUE[app].schema:
            with pytest.raises(ConfigurationError):
                JobSpec(app, params={name: bad})

    @pytest.mark.parametrize("app", sorted(CATALOGUE))
    def test_unknown_params_and_fields_rejected(self, app):
        with pytest.raises(ConfigurationError):
            JobSpec(app, params={"warp": 9})
        with pytest.raises(ConfigurationError):
            JobSpec.from_dict({"app": app, "priority": 7})

    @pytest.mark.parametrize(
        "app", [name for name, entry in CATALOGUE.items()
                if entry.level == "cycle"])
    def test_macro_rig_on_a_cycle_entry_rejected(self, app):
        plan = {"seed": 1, "specs": [{"kind": "drop", "rate": 0.1}]}
        with pytest.raises(ConfigurationError):
            JobSpec(app, plan=plan)
        with pytest.raises(ConfigurationError):
            JobSpec(app, reliable=True)
        assert JobSpec(app, reliable=False).digest == JobSpec(app).digest


class TestHintsExcluded:
    def test_hints_do_not_change_the_digest(self):
        """Checkpoint/sampling cadence shapes supervision, never the
        result (both are bit-identical-when-enabled), so resubmitting
        with different hints must still hit the cache."""
        a = JobSpec("lcs", checkpoint_every=1_000, sample_every=100)
        b = JobSpec("lcs", checkpoint_every=9_999_999)
        assert a.digest == b.digest
        assert a.checkpoint_every != b.checkpoint_every

    def test_hints_travel_in_to_dict(self):
        spec = JobSpec("lcs", checkpoint_every=777, sample_every=55)
        data = spec.to_dict()
        assert data["checkpoint_every"] == 777
        assert data["sample_every"] == 55
        assert "checkpoint_every" not in spec.identity()


class TestValidation:
    def test_unknown_app_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("mandelbrot")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError) as info:
            JobSpec("lcs", params={"scale": 0.1, "warp": 9})
        assert "warp" in str(info.value)

    def test_bad_n_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("lcs", n_nodes=0)

    def test_bad_plan_rejected_at_submit_time(self):
        with pytest.raises(Exception):
            JobSpec("lcs", plan={"seed": 1, "specs": [
                {"kind": "not-a-fault"}]})

    def test_ping_with_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("ping", plan={"seed": 1, "specs": [
                {"kind": "drop", "rate": 0.1}]})

    def test_nonpositive_hints_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec("lcs", checkpoint_every=0)

    def test_apps_vocabulary_is_closed(self):
        assert APPS == ("lcs", "nqueens", "ping")


class TestTransport:
    def test_round_trip_preserves_digest_and_hints(self):
        spec = JobSpec("nqueens", n_nodes=4, params={"n": 7},
                       reliable={"timeout": 800}, checkpoint_every=123)
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.digest == spec.digest
        assert clone.checkpoint_every == 123
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError) as info:
            JobSpec.from_dict({"app": "lcs", "priority": 7})
        assert "priority" in str(info.value)

    def test_version_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_dict({"app": "lcs",
                               "version": SPEC_VERSION + 1})

    def test_missing_app_rejected(self):
        with pytest.raises(ConfigurationError):
            JobSpec.from_dict({"n_nodes": 4})
