"""Procedural surface samplers for the toy benchmark shapes.

Every sampler draws points uniformly on the surface of a canonical shape
(area-weighted over its faces/parts). Shapes are chosen so that each has a
locally distinctive sub-part (cone apex, torus rim, bracket corner) and so
that several unknown-class variants share local structure with known ones
(tube vs cylinder, frustum vs cone, disc vs ellipsoid).
"""

from __future__ import annotations

import inspect

import numpy as np

__all__ = ["SHAPE_NAMES", "SHAPE_PARAMS", "sample_shape", "random_instance"]


def _unit_dirs(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _sphere(n, rng, radius=1.0):
    return radius * _unit_dirs(rng, n)


def _ellipsoid(n, rng, ax=1.0, ay=0.7, az=0.45):
    # rejection sampling proportional to the local area element
    out = np.empty((n, 3))
    w_max = max(ax * ay, ay * az, ax * az)
    filled = 0
    while filled < n:
        u = _unit_dirs(rng, 2 * (n - filled))
        w = np.sqrt(
            (u[:, 0] * ay * az) ** 2 + (u[:, 1] * ax * az) ** 2 + (u[:, 2] * ax * ay) ** 2
        )
        keep = rng.random(len(u)) * w_max < w
        pts = u[keep] * np.array([ax, ay, az])
        take = min(len(pts), n - filled)
        out[filled : filled + take] = pts[:take]
        filled += take
    return out


def _box_surface(n, rng, lo, hi):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    ext = hi - lo
    areas = np.array([ext[1] * ext[2], ext[0] * ext[2], ext[0] * ext[1]])
    areas = np.repeat(areas, 2)  # -x,+x,-y,+y,-z,+z
    face = rng.choice(6, size=n, p=areas / areas.sum())
    pts = lo + rng.random((n, 3)) * ext
    axis = face // 2
    side = face % 2
    pts[np.arange(n), axis] = np.where(side == 0, lo[axis], hi[axis])
    return pts


def _cube(n, rng, side=1.6):
    h = side / 2.0
    return _box_surface(n, rng, (-h, -h, -h), (h, h, h))


def _cylinder(n, rng, radius=0.5, height=2.0, caps=True):
    lateral = 2 * np.pi * radius * height
    cap = np.pi * radius**2 if caps else 0.0
    areas = np.array([lateral, cap, cap])
    part = rng.choice(3, size=n, p=areas / areas.sum())
    theta = rng.random(n) * 2 * np.pi
    pts = np.empty((n, 3))
    lat = part == 0
    pts[lat, 0] = radius * np.cos(theta[lat])
    pts[lat, 1] = radius * np.sin(theta[lat])
    pts[lat, 2] = (rng.random(lat.sum()) - 0.5) * height
    for which, z in ((1, height / 2.0), (2, -height / 2.0)):
        m = part == which
        r = radius * np.sqrt(rng.random(m.sum()))
        pts[m, 0] = r * np.cos(theta[m])
        pts[m, 1] = r * np.sin(theta[m])
        pts[m, 2] = z
    return pts


def _tube(n, rng, outer=0.5, inner=0.33, height=2.0):
    # open-ended hollow cylinder: two lateral walls plus two annular rims
    lat_out = 2 * np.pi * outer * height
    lat_in = 2 * np.pi * inner * height
    rim = np.pi * (outer**2 - inner**2)
    areas = np.array([lat_out, lat_in, rim, rim])
    part = rng.choice(4, size=n, p=areas / areas.sum())
    theta = rng.random(n) * 2 * np.pi
    pts = np.empty((n, 3))
    for which, radius in ((0, outer), (1, inner)):
        m = part == which
        pts[m, 0] = radius * np.cos(theta[m])
        pts[m, 1] = radius * np.sin(theta[m])
        pts[m, 2] = (rng.random(m.sum()) - 0.5) * height
    for which, z in ((2, height / 2.0), (3, -height / 2.0)):
        m = part == which
        r = np.sqrt(inner**2 + rng.random(m.sum()) * (outer**2 - inner**2))
        pts[m, 0] = r * np.cos(theta[m])
        pts[m, 1] = r * np.sin(theta[m])
        pts[m, 2] = z
    return pts


def _cone(n, rng, radius=0.8, height=1.8, truncate=0.0):
    """Cone with a base cap; truncate in (0, 1) slices off the top fraction.

    The lateral surface is parameterized by s in [truncate, 1], the relative
    distance from the apex; area density is proportional to s.
    """
    slant = np.sqrt(radius**2 + height**2)
    t = float(truncate)
    lateral = np.pi * radius * slant * (1.0 - t**2)
    base = np.pi * radius**2
    top = np.pi * (t * radius) ** 2 if t > 0 else 0.0
    areas = np.array([lateral, base, top])
    part = rng.choice(3, size=n, p=areas / areas.sum())
    theta = rng.random(n) * 2 * np.pi
    pts = np.empty((n, 3))
    m = part == 0
    s = np.sqrt(t**2 + rng.random(m.sum()) * (1.0 - t**2))
    pts[m, 0] = s * radius * np.cos(theta[m])
    pts[m, 1] = s * radius * np.sin(theta[m])
    pts[m, 2] = height * (1.0 - s) - height / 2.0
    m = part == 1
    r = radius * np.sqrt(rng.random(m.sum()))
    pts[m, 0] = r * np.cos(theta[m])
    pts[m, 1] = r * np.sin(theta[m])
    pts[m, 2] = -height / 2.0
    m = part == 2
    r = t * radius * np.sqrt(rng.random(m.sum()))
    pts[m, 0] = r * np.cos(theta[m])
    pts[m, 1] = r * np.sin(theta[m])
    pts[m, 2] = height * (1.0 - t) - height / 2.0
    return pts


def _torus(n, rng, ring=0.8, tube=0.25):
    # area element is proportional to ring + tube*cos(phi); rejection on phi
    out_phi = np.empty(0)
    while out_phi.size < n:
        cand = rng.random(2 * (n - out_phi.size)) * 2 * np.pi
        accept = rng.random(cand.size) * (ring + tube) < ring + tube * np.cos(cand)
        out_phi = np.concatenate([out_phi, cand[accept]])
    phi = out_phi[:n]
    theta = rng.random(n) * 2 * np.pi
    rad = ring + tube * np.cos(phi)
    return np.column_stack([rad * np.cos(theta), rad * np.sin(theta), tube * np.sin(phi)])


def _triangle_points(rng, n, a, b, c):
    u = rng.random((n, 2))
    flip = u.sum(axis=1) > 1.0
    u[flip] = 1.0 - u[flip]
    return a + u[:, :1] * (b - a) + u[:, 1:] * (c - a)


def _pyramid(n, rng, side=1.4, height=1.4):
    h = side / 2.0
    apex = np.array([0.0, 0.0, height / 2.0])
    base = [
        np.array([-h, -h, -height / 2.0]),
        np.array([h, -h, -height / 2.0]),
        np.array([h, h, -height / 2.0]),
        np.array([-h, h, -height / 2.0]),
    ]
    tri_area = 0.5 * np.linalg.norm(np.cross(base[1] - base[0], apex - base[0]))
    areas = np.array([side * side] + [tri_area] * 4)
    part = rng.choice(5, size=n, p=areas / areas.sum())
    pts = np.empty((n, 3))
    m = part == 0
    pts[m, 0] = (rng.random(m.sum()) - 0.5) * side
    pts[m, 1] = (rng.random(m.sum()) - 0.5) * side
    pts[m, 2] = -height / 2.0
    for i in range(4):
        m = part == i + 1
        pts[m] = _triangle_points(rng, m.sum(), base[i], base[(i + 1) % 4], apex)
    return pts


def _capsule(n, rng, radius=0.4, half=0.7):
    lateral = 2 * np.pi * radius * 2 * half
    spheres = 4 * np.pi * radius**2
    part = rng.choice(2, size=n, p=np.array([lateral, spheres]) / (lateral + spheres))
    pts = np.empty((n, 3))
    m = part == 0
    theta = rng.random(m.sum()) * 2 * np.pi
    pts[m, 0] = radius * np.cos(theta)
    pts[m, 1] = radius * np.sin(theta)
    pts[m, 2] = (rng.random(m.sum()) - 0.5) * 2 * half
    m = part == 1
    d = _unit_dirs(rng, m.sum()) * radius
    d[:, 2] = np.abs(d[:, 2]) * np.sign(rng.random(m.sum()) - 0.5)
    offset = np.where(d[:, 2] >= 0, half, -half)
    d[:, 2] += offset
    pts[m] = d
    return pts


def _lbracket(n, rng, arm=1.6, thick=0.5):
    # two overlapping boxes forming an L in the x-z plane
    boxes = [
        ((0.0, 0.0, 0.0), (arm, thick, thick)),
        ((0.0, 0.0, 0.0), (thick, thick, arm)),
    ]

    def inside(pts, lo, hi, eps=1e-9):
        return np.all((pts > np.asarray(lo) + eps) & (pts < np.asarray(hi) - eps), axis=1)

    areas = []
    for lo, hi in boxes:
        ext = np.subtract(hi, lo)
        areas.append(2 * (ext[0] * ext[1] + ext[1] * ext[2] + ext[0] * ext[2]))
    areas = np.asarray(areas)
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        want = n - filled
        which = rng.choice(2, size=want, p=areas / areas.sum())
        pts = np.empty((want, 3))
        for b in range(2):
            m = which == b
            if m.any():
                pts[m] = _box_surface(m.sum(), rng, *boxes[b])
        other = 1 - which
        bad = np.zeros(want, dtype=bool)
        for b in range(2):
            m = other == b
            if m.any():
                bad[m] = inside(pts[m], *boxes[b])
        good = pts[~bad]
        take = min(len(good), want)
        out[filled : filled + take] = good[:take]
        filled += take
    center = out.mean(axis=0)
    return out - center


_GENERATORS = {
    "sphere": _sphere,
    "cube": _cube,
    "cylinder": _cylinder,
    "cone": _cone,
    "torus": _torus,
    "pyramid": _pyramid,
    "capsule": _capsule,
    "ellipsoid": _ellipsoid,
    "lbracket": _lbracket,
    "tube": _tube,
}

SHAPE_NAMES = tuple(sorted(_GENERATORS))
# shape -> {keyword parameter: default} of its sampler
SHAPE_PARAMS = {name: {p.name: p.default for p in inspect.signature(fn).parameters.values()
                       if p.default is not p.empty} for name, fn in _GENERATORS.items()}


def sample_shape(name: str, n: int, rng: np.random.Generator, **params) -> np.ndarray:
    """Uniform surface sample of a canonical library shape."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown shape {name!r}; library: {', '.join(SHAPE_NAMES)}")
    return _GENERATORS[name](n, rng, **params)


def random_instance(name, n, rng, noise, scale_jitter, tilt, **params):
    """One randomized, normalized instance of a shape class.

    Applies per-axis scale jitter, a uniform yaw, a small random tilt, and
    Gaussian surface noise (the Manifest fields of the same names), then
    centers the cloud and scales its max radius to 1.
    """
    pts = sample_shape(name, n, rng, **params)
    pts = pts * (1.0 + (rng.random(3) - 0.5) * 2 * scale_jitter)
    yaw = rng.random() * 2 * np.pi
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if tilt > 0:
        axis = _unit_dirs(rng, 1)[0]
        angle = (rng.random() - 0.5) * 2 * tilt
        k = np.array([
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ])
        rot = (np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)) @ rot
    pts = pts @ rot.T
    if noise > 0:
        pts = pts + rng.normal(0.0, noise, size=pts.shape)
    centered = pts - pts.mean(axis=0)
    return centered / np.linalg.norm(centered, axis=1).max()
