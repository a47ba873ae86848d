"""The machine zoo: declarative configs, the registry, and the
redesigned MachineSpec (PR 10's api_redesign contract).

The load-bearing pins:

* every registered config survives dict / JSON / TOML round trips
  **byte-identically** — the serialized forms are the config exchange
  format (files, wire, review diffs);
* the ``columbia`` config builds the *same cluster object* as the
  legacy :func:`repro.machine.cluster.columbia` builder — the
  redesign's byte-identity foundation;
* legacy ``MachineSpec(node_type=...)`` construction still works but
  warns (removal deferred until the benchmark golden is re-keyed); the sanctioned
  ``MachineSpec.legacy()`` and the config form stay silent;
* legacy scenarios keep their exact historic cache keys — the
  7-field payload dict that ``vars(machine)`` used to produce.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro.errors import ConfigurationError
from repro.machine.cluster import columbia
from repro.machine.zoo import (
    build_machine,
    cluster_cost,
    list_machines,
    load_machine,
    machine_config,
    machine_from_dict,
)
from repro.run.scenario import MachineSpec, scenario


ALL_PRESETS = ("columbia", "fat_numa", "thin_ib", "gpu_node")


class TestRegistry:
    def test_all_presets_registered(self):
        assert tuple(list_machines()) == ALL_PRESETS

    def test_unknown_machine_is_loud(self):
        with pytest.raises(ConfigurationError, match="unknown machine"):
            machine_config("altix_9000")

    def test_build_machine_is_cached(self):
        assert build_machine("fat_numa") is build_machine("fat_numa")

    def test_every_preset_builds(self):
        for name in list_machines():
            cluster = build_machine(name)
            assert cluster.total_cpus == machine_config(name).total_cpus


class TestRoundTrips:
    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_dict_round_trip(self, name):
        config = machine_config(name)
        assert machine_from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_json_round_trip_byte_identical(self, name):
        config = machine_config(name)
        text = config.to_json()
        again = machine_from_dict(json.loads(text))
        assert again == config
        assert again.to_json() == text

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_toml_file_round_trip_byte_identical(self, name, tmp_path):
        config = machine_config(name)
        path = tmp_path / f"{name}.toml"
        path.write_text(config.to_toml())
        loaded = load_machine(str(path))
        assert loaded == config
        assert loaded.to_toml() == config.to_toml()

    @pytest.mark.parametrize("name", ALL_PRESETS)
    def test_json_file_round_trip(self, name, tmp_path):
        config = machine_config(name)
        path = tmp_path / f"{name}.json"
        path.write_text(config.to_json())
        assert load_machine(str(path)) == config

    def test_unknown_field_rejected(self):
        data = machine_config("fat_numa").to_dict()
        data["turbo"] = True
        with pytest.raises(ConfigurationError, match="turbo"):
            machine_from_dict(data)


class TestColumbiaIdentity:
    def test_config_build_equals_legacy_builder(self):
        """The redesign's anchor: the declarative columbia preset
        builds field-for-field the same Cluster as the hand-coded
        legacy builder."""
        assert build_machine("columbia") == columbia()

    def test_legacy_cache_key_is_byte_identical(self):
        """Legacy MachineSpec scenarios hash the exact payload dict
        that ``vars(machine)`` produced before the redesign."""
        spec = MachineSpec.legacy(node_type="BX2b", n_nodes=2)
        assert spec.payload() == {
            "node_type": "BX2b",
            "n_nodes": 2,
            "n_cpus": 512,
            "fabric": "numalink4",
            "mpt": "mpt1.11b",
            "clock_ghz": None,
            "l3_mb": None,
        }

    def test_config_payload_carries_zoo_digest(self):
        """Config-form cache keys embed a digest of the registered
        definition, so editing a preset invalidates its cached rows."""
        payload = MachineSpec(config="columbia").payload()
        blob = json.dumps(
            machine_config("columbia").to_dict(),
            sort_keys=True, separators=(",", ":"),
        )
        assert payload == {
            "config": "columbia",
            "zoo": hashlib.sha256(blob.encode()).hexdigest()[:12],
        }

    def test_payload_round_trips_through_from_payload(self):
        for spec in (
            MachineSpec.legacy(node_type="3700", clock_ghz=1.5),
            MachineSpec(config="gpu_node"),
            MachineSpec(
                config="fat_numa",
                overrides=(("nodes.0.node.processor.clock_ghz", 2.2),),
            ),
        ):
            assert MachineSpec.from_payload(spec.payload()) == spec


class TestDeprecation:
    def test_bare_legacy_form_warns(self):
        with pytest.warns(DeprecationWarning, match="removal is deferred"):
            MachineSpec(node_type="BX2b", n_nodes=2)

    def test_sanctioned_and_config_forms_stay_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            MachineSpec.legacy(node_type="BX2b", n_nodes=2)
            MachineSpec(config="columbia")

    def test_config_form_rejects_legacy_fields(self):
        with pytest.raises(ConfigurationError, match="config"):
            MachineSpec(config="columbia", n_nodes=4)


class TestOverrides:
    def test_override_changes_built_cluster(self):
        stock = build_machine("fat_numa")
        tweaked = build_machine(
            "fat_numa", (("nodes.0.node.processor.clock_ghz", 2.2),)
        )
        assert tweaked.nodes[0].processor.clock_hz == 2.2e9
        assert stock.nodes[0].processor.clock_hz != 2.2e9

    def test_override_changes_cache_key(self):
        base = scenario("compare.cell", machine=MachineSpec(config="fat_numa"),
                        app="stream", cpus=16)
        tweak = scenario(
            "compare.cell",
            machine=MachineSpec(
                config="fat_numa",
                overrides=(("nodes.0.node.processor.clock_ghz", 2.2),),
            ),
            app="stream", cpus=16,
        )
        assert base.key() != tweak.key()

    def test_unknown_override_path_is_loud(self):
        with pytest.raises(ConfigurationError, match="nonsense"):
            build_machine("fat_numa", (("nodes.0.node.nonsense", 1),))


class TestAcceleratorTerm:
    def test_offload_speeds_up_mz(self):
        """The gpu_node preset's Amdahl offload term must make BT-MZ
        faster than the identical machine with the accelerator
        removed."""
        from repro.machine.placement import Placement
        from repro.npb.hybrid import MZTimingModel

        with_accel = build_machine("gpu_node")
        without = build_machine(
            "gpu_node", (("nodes.0.node.accelerator", None),)
        )
        assert with_accel.nodes[0].accelerator is not None
        assert without.nodes[0].accelerator is None

        def rate(cluster):
            placement = Placement(cluster, n_ranks=64, threads_per_rank=1)
            return MZTimingModel("bt-mz", "C", placement).total_gflops()

        assert rate(with_accel) > rate(without)


class TestClusterCost:
    def test_cost_is_positive_and_deterministic(self):
        for name in list_machines():
            cluster = build_machine(name)
            assert cluster_cost(cluster) > 0
            assert cluster_cost(cluster) == cluster_cost(cluster)

    def test_accelerators_cost_extra(self):
        with_accel = cluster_cost(build_machine("gpu_node"))
        without = cluster_cost(build_machine(
            "gpu_node", (("nodes.0.node.accelerator", None),)
        ))
        assert with_accel > without
