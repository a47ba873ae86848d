"""Tests for the reproduction certificate and extension experiments."""

import pytest

from repro.core import run_experiment
from repro.core.claims import CLAIMS, format_claims, verify_claims
from repro.errors import ConfigurationError


class TestClaims:
    def test_every_claim_passes(self):
        """The headline guarantee: all prose claims reproduce."""
        results = verify_claims()
        failed = [r for r in results if not r.passed]
        assert not failed, "\n".join(
            f"{r.claim_id}: {r.measured}" for r in failed
        )
        assert len(results) == 21

    def test_claim_ids_unique(self):
        ids = [c.claim_id for c in CLAIMS]
        assert len(set(ids)) == len(ids)

    def test_every_evaluation_section_covered(self):
        refs = {c.paper_ref for c in CLAIMS}
        for section in ("§4.1.1", "§4.1.2", "§4.1.3", "§4.1.4", "§4.2",
                        "§4.3", "§4.4", "§4.5", "§4.6.1", "§4.6.2",
                        "§4.6.3", "§4.6.4"):
            assert section in refs, f"no claim covers {section}"

    def test_subset_selection(self):
        results = verify_claims(["dgemm_rate", "md_physics"])
        assert [r.claim_id for r in results] == ["dgemm_rate", "md_physics"]

    def test_unknown_claim_rejected(self):
        with pytest.raises(ConfigurationError):
            verify_claims(["flux_capacitor"])

    def test_format_contains_verdicts(self):
        text = format_claims(verify_claims(["stride_triad"]))
        assert "PASS" in text and "1/1 claims" in text


class TestClassFExtension:
    def test_capacity_ledger(self):
        """Class F needs >4 nodes of memory; class E fits one node
        (which is why the paper could run class E in a single box)."""
        r = run_experiment("ext_class_f", fast=True)
        details = " ".join(row[2] for row in r.rows if row[0] == "capacity")
        assert "class E: 0.6" in details
        assert "class F: 12.9" in details

    def test_class_f_rejected_on_too_few_nodes(self):
        from repro.errors import ConfigurationError
        from repro.machine.cluster import multinode
        from repro.machine.placement import Placement
        from repro.npb.hybrid import MZTimingModel

        pl = Placement(multinode(4), n_ranks=2048, spread_nodes=True)
        with pytest.raises(ConfigurationError):
            MZTimingModel("bt-mz", "F", pl)

    def test_class_e_fits_one_node(self):
        from repro.machine.cluster import single_node
        from repro.machine.node import NodeType
        from repro.machine.placement import Placement
        from repro.npb.hybrid import MZTimingModel

        pl = Placement(single_node(NodeType.BX2B), n_ranks=256)
        MZTimingModel("sp-mz", "E", pl)  # must not raise
