"""Tests for two-phase Valiant routing (§5 remedy) and the arc-load
analysis of direct greedy routing under adversarial traffic."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.schemes.twophase import TwoPhaseScheme, direct_greedy_arc_loads
from repro.topology.hypercube import Hypercube
from repro.traffic.destinations import (
    BernoulliFlipLaw,
    PermutationTraffic,
    bit_reversal_permutation,
    transpose_permutation,
)


class TestDirectArcLoads:
    def test_uniform_law_loads_are_rho(self):
        cube = Hypercube(4)
        law = BernoulliFlipLaw(4, 0.5)
        loads = direct_greedy_arc_loads(cube, law, lam=1.0)
        # Prop 5: every arc's flow is lam * p = 0.5 (MC tolerance)
        assert loads.mean() == pytest.approx(0.5, rel=0.05)
        assert loads.max() < 0.7

    def test_bit_reversal_concentrates_flow(self):
        # the classic pathology: max arc load ~ 2^(d/2 - 1) * lam
        # (the middle dimension funnels 2^(d/2) address patterns, halved
        # by the crossing-bit condition)
        d = 6
        cube = Hypercube(d)
        law = PermutationTraffic(d, bit_reversal_permutation(d))
        loads = direct_greedy_arc_loads(cube, law, lam=1.0)
        assert loads.max() >= 2 ** (d // 2 - 1)  # 4x concentration at d=6
        # while the *average* is only the mean path length over arcs
        assert loads.mean() < 1.0

    def test_transpose_concentrates_flow(self):
        d = 6
        cube = Hypercube(d)
        law = PermutationTraffic(d, transpose_permutation(d))
        loads = direct_greedy_arc_loads(cube, law, lam=1.0)
        assert loads.max() >= 2 ** (d // 2 - 1)

    def test_concentration_grows_with_d(self):
        maxima = []
        for d in (4, 6, 8):
            cube = Hypercube(d)
            law = PermutationTraffic(d, bit_reversal_permutation(d))
            maxima.append(direct_greedy_arc_loads(cube, law, lam=1.0).max())
        assert maxima[0] < maxima[1] < maxima[2]

    def test_exact_for_permutation(self):
        # deterministic computation: repeated calls identical
        cube = Hypercube(4)
        law = PermutationTraffic(4, bit_reversal_permutation(4))
        a = direct_greedy_arc_loads(cube, law, lam=2.0)
        b = direct_greedy_arc_loads(cube, law, lam=2.0)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("law", ["bitrev", "uniform"])
    def test_matches_per_packet_path_sums(self, law):
        """The flow over the built paths equals adding each packet's
        share arc by arc along its canonical path, in packet order,
        bit for bit (the per-packet loop is the reference)."""
        d, lam = 5, 0.7
        cube = Hypercube(d)
        if law == "bitrev":
            law = PermutationTraffic(d, bit_reversal_permutation(d))
            origins, dests, share = range(cube.num_nodes), law.perm, lam
        else:
            law = BernoulliFlipLaw(d, 0.5)
            origins = np.repeat(np.arange(cube.num_nodes), 200)
            dests, share = law.sample_destinations(origins, 12345), lam / 200
        want = np.zeros(cube.num_arcs)
        for x, z in zip(origins, dests):
            for arc in cube.canonical_path_arcs(int(x), int(z)):
                want[arc] += share
        got = direct_greedy_arc_loads(cube, law, lam)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestTwoPhaseScheme:
    def test_stability_limit_independent_of_law(self):
        law = PermutationTraffic(4, bit_reversal_permutation(4))
        s = TwoPhaseScheme(d=4, lam=0.9, law=law)
        assert s.stability_limit == 1.0
        assert s.stable

    def test_paths_reach_destinations(self):
        law = PermutationTraffic(3, bit_reversal_permutation(3))
        s = TwoPhaseScheme(d=3, lam=0.5, law=law)
        res = s.run(60.0, rng=1)
        # hop counts = H(x,w) + H(w,z)
        h1 = np.bitwise_count(res.sample.origins ^ res.intermediates)
        h2 = np.bitwise_count(res.intermediates ^ res.sample.destinations)
        np.testing.assert_array_equal(res.result.hops, h1 + h2)
        assert np.all(res.result.delivery >= res.sample.times + res.result.hops - 1e-9)

    def test_mean_hops_about_d(self):
        law = BernoulliFlipLaw(4, 0.5)
        s = TwoPhaseScheme(d=4, lam=0.4, law=law)
        res = s.run(300.0, rng=2)
        # d/2 (to uniform intermediate) + d/2 (uniform to dest) = d
        assert res.mean_hops() == pytest.approx(4.0, rel=0.05)

    def test_two_phase_survives_bit_reversal_where_direct_chokes(self):
        d, lam = 6, 0.4
        cube = Hypercube(d)
        law = PermutationTraffic(d, bit_reversal_permutation(d))
        # direct greedy: max arc load lam * 2^(d/2) = 3.2 >> 1 (unstable)
        loads = direct_greedy_arc_loads(cube, law, lam)
        assert loads.max() > 1.0
        # two-phase at the same lam: stable, sane delay
        s = TwoPhaseScheme(d=d, lam=lam, law=law)
        t = s.measure_delay(horizon=120.0, rng=3)
        # delay near the uncontended two-phase path time (~d hops)
        assert t < 3.0 * d

    def test_reproducible(self):
        law = BernoulliFlipLaw(3, 0.5)
        s = TwoPhaseScheme(d=3, lam=0.5, law=law)
        a = s.run(50.0, rng=7)
        b = s.run(50.0, rng=7)
        np.testing.assert_allclose(a.result.delivery, b.result.delivery)

    def test_rejects_bad_params(self):
        law = BernoulliFlipLaw(3, 0.5)
        with pytest.raises(ConfigurationError):
            TwoPhaseScheme(d=3, lam=0.0, law=law)
        with pytest.raises(ConfigurationError):
            TwoPhaseScheme(d=4, lam=0.5, law=law)  # dimension mismatch
