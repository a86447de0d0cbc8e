import math
from random import Random

import numpy as np
import pytest

from geogossip.geometry import (
    EARTH_RADIUS_M,
    distances_np,
    overlap_area_f,
)
from geogossip.scenario import NodeSpec, generate_scenario
from geogossip.simulate import LatitudeIndex
from helpers import mc_overlap_area, oracle_sets

DEG_M = EARTH_RADIUS_M * math.pi / 180.0  # meters per degree along a meridian


def random_point(rng):
    """(latitude, longitude) anywhere on the sphere."""
    lon = rng.uniform(-180.0, 180.0)
    return rng.uniform(-90.0, 90.0), -180.0 if lon >= 180.0 else lon


def random_disk_near(rng, lat, lon, spread, r_lo, r_hi):
    """(latitude, longitude, radius) within spread degrees of (lat, lon)."""
    return (lat + rng.uniform(-spread, spread), lon + rng.uniform(-spread, spread),
            rng.uniform(r_lo, r_hi))


class TestDistance:
    def test_identity(self):
        rng = Random(1)
        for _ in range(50):
            p = random_point(rng)
            assert distances_np(*p, *p) == 0.0

    def test_one_degree_longitude_at_equator(self):
        d = distances_np(0.0, 0.0, 0.0, 1.0)
        assert d == pytest.approx(111_195.0, abs=1.0)

    def test_antipodal_poles(self):
        d = distances_np(90.0, 0.0, -90.0, 0.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, abs=1.0)

    def test_symmetric_and_nonnegative(self):
        rng = Random(2)
        for _ in range(500):
            a, b = random_point(rng), random_point(rng)
            d = distances_np(*a, *b)
            assert d >= 0.0
            assert distances_np(*b, *a) == d

    def test_triangle_inequality(self):
        rng = Random(3)
        for _ in range(10_000):
            a, b, c = (random_point(rng) for _ in range(3))
            ab, bc, ac = distances_np(*a, *b), distances_np(*b, *c), distances_np(*a, *c)
            assert ac <= ab + bc + 1e-6 * max(ab + bc, 1.0)


class TestKernel:
    """distances_np decides every candidacy, so its bits must not depend
    on how it is called."""

    def test_bit_identical_for_any_call_shape_and_owner(self):
        sc = generate_scenario(120, region=(10_000.0, 10_000.0), radius_law=(100.0, 600.0),
                               rng_seed=3)
        lats = np.array([n.latitude for n in sc.nodes])
        lons = np.array([n.longitude for n in sc.nodes])
        n = len(lats)
        rows = np.array([distances_np(lats[i], lons[i], lats, lons) for i in range(n)])
        assert n * n >= 10_000
        assert np.array_equal(rows, rows.T)  # either end as the owner
        rng = Random(4)
        for i in range(n):
            lo = rng.randrange(n)
            hi = rng.randrange(lo + 1, n + 1)
            assert np.array_equal(distances_np(lats[i], lons[i], lats[lo:hi], lons[lo:hi]),
                                  rows[i, lo:hi])
            for j in range(n):
                assert distances_np(lats[i], lons[i], lats[j], lons[j]) == rows[i, j]
                assert distances_np(float(lats[i]), float(lons[i]),
                                    lats[j:j + 1], lons[j:j + 1])[0] == rows[i, j]
        # array owners, as the oracle build (elementwise over pairs) and the
        # round-0 bootstrap (a column of owners against the seeds) call it
        own = np.array([rng.randrange(n) for _ in range(5000)])
        other = np.array([rng.randrange(n) for _ in range(5000)])
        assert np.array_equal(distances_np(lats[own], lons[own], lats[other], lons[other]),
                              rows[own, other])
        assert np.array_equal(distances_np(lats[:, None], lons[:, None], lats, lons), rows)
        seeds = [7, 3, 100]
        assert np.array_equal(distances_np(lats[own][:, None], lons[own][:, None],
                                           lats[seeds], lons[seeds]),
                              rows[own][:, seeds])

    def test_public_helpers_use_the_kernel(self):
        # the oracle decides candidacy on the kernel's bits, with either
        # node as the owner
        rng = Random(9)
        for _ in range(1000):
            a, b = random_point(rng), random_point(rng)
            ra, rb = rng.uniform(0, 5e6), rng.uniform(0, 5e6)
            d = distances_np(a[0], a[1], np.array([b[0]]), np.array([b[1]]))[0]
            assert distances_np(*a, *b) == d
            oracle = LatitudeIndex([NodeSpec(1, *a, ra), NodeSpec(2, *b, rb)]).candidates
            assert oracle_sets(oracle) == ({1: {2}, 2: {1}} if d < ra + rb else {1: set(), 2: set()})


class TestOverlapArea:
    def test_identical_disks(self):
        d = distances_np(10.0, 20.0, 10.0, 20.0)
        assert overlap_area_f(d, 500.0, 500.0) == pytest.approx(math.pi * 500.0**2, rel=1e-12)

    def test_disjoint(self):
        d = distances_np(0.0, 0.0, 0.0, 1.0)  # ~111 km apart
        assert overlap_area_f(d, 100.0, 100.0) == 0.0

    def test_unit_disks_at_unit_distance(self):
        # r1 = r2 = 1 m, centers 1 m apart: 2*acos(1/2) - sqrt(3)/2
        d = distances_np(0.0, 0.0, 1.0 / DEG_M, 0.0)
        expected = 2.0 * math.acos(0.5) - math.sqrt(3.0) / 2.0
        assert overlap_area_f(d, 1.0, 1.0) == pytest.approx(expected, abs=1e-4)

    def test_matches_monte_carlo(self):
        rng = Random(4)
        for seed in range(5):
            r1 = rng.uniform(50.0, 500.0)
            r2 = rng.uniform(50.0, 500.0)
            gap = rng.uniform(0.0, (r1 + r2) * 1.2)
            d = distances_np(40.0, 8.0, 40.0, 8.0 + gap / (DEG_M * math.cos(math.radians(40.0))))
            estimate, stderr = mc_overlap_area(r1, r2, d, samples=1_000_000, seed=seed)
            assert overlap_area_f(d, r1, r2) == pytest.approx(estimate, abs=max(3.0 * stderr, 1e-9))

    def test_exactly_symmetric(self):
        rng = Random(5)
        for _ in range(200):
            lat_a, lon_a, ra = rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(0, 2000)
            lat_b, lon_b, rb = random_disk_near(rng, lat_a, lon_a, 0.02, 0, 2000)
            ab = overlap_area_f(distances_np(lat_a, lon_a, lat_b, lon_b), ra, rb)
            assert overlap_area_f(distances_np(lat_b, lon_b, lat_a, lon_a), rb, ra) == ab

    def test_bounded_by_smaller_disk(self):
        rng = Random(6)
        for _ in range(500):
            lat_a, lon_a, ra = rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(1, 2000)
            lat_b, lon_b, rb = random_disk_near(rng, lat_a, lon_a, 0.05, 1, 2000)
            d = distances_np(lat_a, lon_a, lat_b, lon_b)
            bound = math.pi * min(ra, rb) ** 2
            got = overlap_area_f(d, ra, rb)
            assert got <= bound * (1.0 + 1e-12)
            contained = d <= abs(ra - rb)
            assert (got == pytest.approx(bound, rel=1e-12)) == contained


def acos_lens(d, r1, r2):
    """The textbook lens formula, r1^2 a + r2^2 b minus the kite: exact
    in real arithmetic, but it cancels near tangency."""
    if r2 < r1:
        r1, r2 = r2, r1
    a = math.acos(max(-1.0, min(1.0, (d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))))
    b = math.acos(max(-1.0, min(1.0, (d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))))
    kite = 0.5 * math.sqrt(max(0.0, (-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2)))
    return r1 * r1 * a + r2 * r2 * b - kite


class TestLensArea:
    def test_positive_for_every_candidate_pair_near_tangency(self):
        # the textbook formula gives <= 0 for ~0.3% of these pairs, and a
        # candidate with no utility loses its interference edge
        rng = Random(11)
        for k in range(100_000):
            r1, r2 = rng.uniform(100.0, 600.0), rng.uniform(100.0, 600.0)
            s = r1 + r2
            if k % 3 == 0:
                d = s * (1.0 - rng.uniform(0.0, 1e-6))
            elif k % 3 == 1:
                d = s * (1.0 - 10.0 ** rng.uniform(-16.0, -6.0))
            else:
                d = math.nextafter(s, 0.0)  # the closest candidate there is
            if d < s:
                assert overlap_area_f(d, r1, r2) > 0.0, (d, r1, r2)

    def test_agrees_with_the_acos_form_away_from_tangency(self):
        rng = Random(12)
        for _ in range(20_000):
            r1, r2 = rng.uniform(100.0, 600.0), rng.uniform(100.0, 600.0)
            s = r1 + r2
            d = rng.uniform(abs(r1 - r2), 0.99 * s)
            want = acos_lens(d, r1, r2)
            assert overlap_area_f(d, r1, r2) == pytest.approx(want, rel=1e-9)


class TestIsCandidate:
    def test_tangent_disks_excluded(self):
        # center distance exactly r_a + r_b: a measure-zero contact, no candidacy
        d = distances_np(0.0, 0.0, 0.0, 0.002)
        oracle = LatitudeIndex([NodeSpec(1, 0.0, 0.0, 100.0), NodeSpec(2, 0.0, 0.002, d - 100.0)])
        assert oracle_sets(oracle.candidates) == {1: set(), 2: set()}

    def test_candidacy_matches_positive_overlap(self):
        rng = Random(8)
        for _ in range(2000):
            lat_a, lon_a, ra = rng.uniform(-60, 60), rng.uniform(-60, 60), rng.uniform(1, 1500)
            lat_b, lon_b, rb = random_disk_near(rng, lat_a, lon_a, 0.03, 1, 1500)
            d = distances_np(lat_a, lon_a, lat_b, lon_b)
            assert (d < ra + rb) == (overlap_area_f(d, ra, rb) > 0.0)
