"""Geographic primitives: the distance kernel and disk overlap.

Distances are great-circle on a sphere; overlap areas use the planar
circle-circle lens formula with the great-circle center distance.  The
planar approximation is good to well under 0.1% for radii up to ~50 km,
which covers every radio coordination area we simulate.

distances_np is the one distance kernel: the overlay, its exchange
buffers, the candidate lists and the oracle all call it, so every
candidacy decision and every utility comes from the same bits.
"""

import math

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEG_LAT = EARTH_RADIUS_M * math.pi / 180.0


def distances_np(lat0: float, lon0: float, lats, lons):
    """Haversine distances in meters from one point to others (degrees in).

    lats and lons may be scalars or arrays; the result has their shape.
    Each value is bit-identical whatever the call shape (scalar, 1-element
    array or a slice of a longer array) and whichever end is the owner:
    only elementwise ufuncs run, the coordinate differences are taken as
    absolute values, and squares are products (a scalar ``**`` rounds
    differently from the array loop).
    """
    phi0 = np.radians(lat0)
    phi = np.radians(lats)
    a = np.sin(np.abs(phi - phi0) / 2.0)
    b = np.sin(np.abs(np.radians(lons) - np.radians(lon0)) / 2.0)
    h = a * a + np.cos(phi0) * np.cos(phi) * (b * b)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _segment(r: float, theta: float) -> float:
    """Area of the circular segment cut from a disk of radius r by a chord
    at half-angle theta: r^2 (theta - sin theta cos theta), by its series
    at small theta, where that difference cancels."""
    if theta < 0.1:
        t2 = theta * theta
        f = theta * t2 * (2.0 / 3.0 - t2 * (2.0 / 15.0 - t2 * (4.0 / 315.0 - t2 * (2.0 / 2835.0))))
    else:
        f = theta - math.sin(theta) * math.cos(theta)
    return r * r * f


def overlap_area_f(d: float, r1: float, r2: float) -> float:
    """Intersection area, in square meters, of two disks of radii r1 and
    r2 whose centers are d meters apart.

    The radii are put in order first, so the result is exactly symmetric
    under swapping the two disks.  The area is positive whenever
    d < r1 + r2, the candidacy test, however close to tangency.
    """
    if r2 < r1:
        r1, r2 = r2, r1
    s, g = r1 + r2, r2 - r1
    if d >= s:
        return 0.0
    if d <= g:
        return math.pi * r1 * r1
    # lens: the segments on either side of the common chord.  Every factor
    # of the Heron product is a positive difference, so the half-chord h
    # stays accurate up to tangency, and two positive segments never cancel
    h = math.sqrt((s - d) * (d - g) * (d + g) * (s + d)) / (2.0 * d)
    x1 = (d * d - g * s) / (2.0 * d)  # signed distance from each center to the chord
    x2 = (d * d + g * s) / (2.0 * d)
    return _segment(r1, math.atan2(h, x1)) + _segment(r2, math.atan2(h, x2))

