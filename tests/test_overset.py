"""Tests for the overset grid substrate (paper §3.4-§3.5)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from repro.apps.overset import (
    GridBlock,
    find_overlaps,
    group_blocks,
    rotor_system,
    turbopump_system,
    trilinear_weights,
)
from repro.apps.overset.connectivity import interpolate
from repro.apps.overset.grids import OversetSystem, _point_budget, _synthetic_system
from repro.apps.overset.grouping import _neighbors
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


def reference_synthetic_system(name, n_blocks, total_points, skew_sigma, seed,
                               max_block_fraction):
    """The block-at-a-time builder (two RNG calls and a handful of
    NumPy scalar operations per block), kept as the oracle for the
    bulk one."""
    rng = make_rng(seed)
    raw = rng.lognormal(mean=0.0, sigma=skew_sigma, size=n_blocks)
    raw = np.minimum(raw, raw.sum() * max_block_fraction / (1.0 - max_block_fraction))
    pts = raw / raw.sum() * total_points
    pts = np.maximum(8, pts.astype(np.int64))
    drift = total_points - int(pts.sum())
    pts[int(np.argmax(pts))] += drift
    blocks = []
    side = int(np.ceil(n_blocks ** (1.0 / 3.0)))
    spacing = 1.0
    for i in range(n_blocks):
        n = int(pts[i])
        base = n ** (1.0 / 3.0)
        ar = rng.uniform(0.7, 1.4, size=3)
        dims = np.maximum(2, np.round(base * ar / np.prod(ar) ** (1.0 / 3.0))).astype(int)
        gx = (i % side, (i // side) % side, i // (side * side))
        center = np.array(gx, dtype=float) * spacing + rng.uniform(-0.2, 0.2, 3)
        half = 0.5 * spacing * 1.3 * (dims / dims.max())
        blocks.append(GridBlock(
            index=i,
            shape=(int(dims[0]), int(dims[1]), int(dims[2])),
            lo=tuple(center - half),
            hi=tuple(center + half),
        ))
    return OversetSystem(name=name, blocks=tuple(blocks))


def assert_same_system(system, reference):
    assert system.name == reference.name
    assert len(system.blocks) == len(reference.blocks)
    for block, ref in zip(system.blocks, reference.blocks):
        assert block.index == ref.index
        assert block.shape == ref.shape
        assert block.lo == ref.lo and block.hi == ref.hi
        # Python floats now, NumPy scalars in the oracle: equal values.
        assert all(type(x) is float for x in block.lo + block.hi)
    assert system == reference
    assert hash(system) == hash(reference)


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


class TestBulkBuilder:
    """The bulk builder against the block-at-a-time oracle."""

    @pytest.mark.parametrize("scale", [1.0, 0.05, 0.01])
    @pytest.mark.parametrize("build, args", [
        (rotor_system, ("rotor", 1679, 75_000_000, 1.3, 43, 0.013)),
        (turbopump_system, ("turbopump", 267, 66_000_000, 1.0, 42, 0.012)),
    ])
    def test_paper_systems_match_reference(self, build, args, scale):
        name, n_blocks, points, sigma, seed, fraction = args
        assert_same_system(
            build(scale=scale),
            reference_synthetic_system(name, n_blocks, int(points * scale), sigma,
                                       seed, fraction),
        )

    @given(
        n_blocks=st.integers(1, 400),
        points_per_block=st.integers(8, 10**6),
        skew_sigma=st.floats(0.0, 4.0),
        seed=st.integers(0, 2**32),
        max_block_fraction=st.floats(1e-4, 0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_builder(self, n_blocks, points_per_block, skew_sigma,
                                       seed, max_block_fraction):
        args = ("random", n_blocks, n_blocks * points_per_block, skew_sigma, seed,
                max_block_fraction)
        try:
            system = _synthetic_system(*args)
        except ConfigurationError:
            # The point total cannot give every block 8 points: the
            # oracle builds a block from a budget below 8 (or below 0).
            assume(False)
        assert_same_system(system, reference_synthetic_system(*args))


class TestBuilderErrors:
    """Bad builder inputs raise ConfigurationError, not NumPy's errors
    or a system of garbage point counts."""

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("build", [rotor_system, turbopump_system])
    def test_bad_scale(self, build, scale):
        with pytest.raises(ConfigurationError, match="scale"):
            build(scale=scale)

    def test_scale_beyond_the_point_limit(self):
        with pytest.raises(ConfigurationError, match="unbuildable"):
            rotor_system(scale=1e12)

    @pytest.mark.parametrize("build", [rotor_system, turbopump_system])
    def test_negative_seed(self, build):
        with pytest.raises(ConfigurationError, match="seed"):
            build(seed=-1)

    @pytest.mark.parametrize("sigma", [float("nan"), -0.5, float("inf")])
    def test_bad_skew_sigma(self, sigma):
        with pytest.raises(ConfigurationError, match="skew_sigma"):
            _synthetic_system("s", 64, 64_000, sigma, 1, 0.1)

    def test_skew_sigma_that_overflows(self):
        with pytest.raises(ConfigurationError, match="overflows"):
            _synthetic_system("s", 64, 64_000, 1e6, 1, 0.1)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_bad_max_block_fraction(self, fraction):
        with pytest.raises(ConfigurationError, match="max_block_fraction"):
            _synthetic_system("s", 64, 64_000, 1.0, 1, fraction)

    def test_negative_zero_skew_builds_like_zero(self):
        a = _synthetic_system("s", 4, 800, -0.0, 0, 0.5)
        b = _synthetic_system("s", 4, 800, 0.0, 0, 0.5)
        assert [blk.shape for blk in a.blocks] == [blk.shape for blk in b.blocks]

    def test_total_too_small_for_the_skew(self):
        # 80 points in 10 blocks: every block rounded up to 8 leaves
        # the drift to take the largest below 8.
        with pytest.raises(ConfigurationError, match="below 8"):
            _synthetic_system("s", 10, 80, 1.0, 0, 0.3)

    @given(
        n_blocks=st.integers(-2, 300),
        total_points=st.one_of(st.integers(-10, 10**7), st.integers(0, 2**64)),
        skew_sigma=st.one_of(st.floats(0, 5), st.floats()),
        seed=st.integers(-3, 2**64),
        max_block_fraction=st.one_of(st.floats(0, 1), st.floats()),
    )
    @settings(max_examples=200, deadline=None)
    def test_builds_exactly_the_total_or_raises(self, n_blocks, total_points,
                                                skew_sigma, seed, max_block_fraction):
        args = (n_blocks, total_points, skew_sigma, seed, max_block_fraction)
        try:
            system = _synthetic_system("random", *args)
        except ConfigurationError:
            event("rejected")
            return
        event("built")
        # Block shapes only approximate each block's point budget; the
        # budgets are exact.
        budget = _point_budget(make_rng(seed), n_blocks, total_points, skew_sigma,
                               max_block_fraction)
        assert int(budget.sum()) == total_points
        assert budget.min() >= 8
        assert system.n_blocks == n_blocks
        assert [b.index for b in system.blocks] == list(range(n_blocks))
        assert all(np.isfinite(b.lo + b.hi).all() for b in system.blocks)


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

    @pytest.mark.parametrize("groups", [16, 508])
    def test_matches_reference_on_full_rotor(self, groups):
        # At 16 groups three blocks see connected groups tied on load:
        # the neighbor lists keep the set order that breaks those ties.
        s = rotor_system()
        assert (group_blocks(s, groups, "binpack-connectivity")
                == reference_connectivity_grouping(s, groups))

    def test_neighbor_lists_keep_set_order(self):
        s = rotor_system(scale=0.05)
        sets = [set() for _ in s.blocks]
        for a, b in find_overlaps(s):
            sets[a].add(b)
            sets[b].add(a)
        assert _neighbors(s) == tuple(tuple(x) for x in sets)
        assert _neighbors(s) is _neighbors(s)
