"""Parametric 2D contour generators for the registration experiments.

Each generator emits an ordered, closed sampling of a planar contour; the
schematic human is a multi-part outline (head, body, two arms).  These are
declared approximations of the experiment figures, driven entirely by their
parameters.
"""

import numpy as np


def circle(num=30, center=(0.0, 0.0), radius=1.0, phase=0.0):
    theta = 2.0 * np.pi * np.arange(num) / num + phase
    return np.stack(
        [center[0] + radius * np.cos(theta), center[1] + radius * np.sin(theta)], axis=-1
    )


def ellipse(num=30, center=(0.0, 0.0), semi_axes=(1.5, 0.8), phase=0.0):
    theta = 2.0 * np.pi * np.arange(num) / num + phase
    return np.stack(
        [
            center[0] + semi_axes[0] * np.cos(theta),
            center[1] + semi_axes[1] * np.sin(theta),
        ],
        axis=-1,
    )


def bumpy_ellipse(num=30, center=(0.0, 0.0), semi_axes=(1.5, 0.8), amplitude=0.15,
                  frequency=8, phase=0.0):
    """Ellipse with a sinusoidal displacement along its outward normal."""
    theta = 2.0 * np.pi * np.arange(num) / num + phase
    a, b = semi_axes
    x = a * np.cos(theta)
    y = b * np.sin(theta)
    # outward normal of the ellipse parameterization
    nx = b * np.cos(theta)
    ny = a * np.sin(theta)
    norm = np.hypot(nx, ny)
    bump = amplitude * np.sin(frequency * theta)
    return np.stack(
        [center[0] + x + bump * nx / norm, center[1] + y + bump * ny / norm], axis=-1
    )


def flower(num=30, center=(0.0, 0.0), petals=5, inner_radius=0.45, outer_radius=1.0,
           phase=0.0):
    """Petaled contour: radius oscillates between the inner and outer radii."""
    theta = 2.0 * np.pi * np.arange(num) / num + phase
    mid = 0.5 * (outer_radius + inner_radius)
    amp = 0.5 * (outer_radius - inner_radius)
    r = mid + amp * np.cos(petals * theta)
    return np.stack(
        [center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)], axis=-1
    )


def schematic_human(num=30, center=(0.0, 0.0), arm_angle=0.0, head_squash=0.0):
    """Stick-figure outline: circular head, rectangular body, two arms.

    arm_angle rotates the arms from horizontal (0) toward raised (pi/2);
    head_squash in [0, 1) flattens the head circle into an ellipse.
    """
    cx, cy = center
    n_head = max(num // 3, 6)
    n_body = max(num // 3, 6)
    n_arm = max((num - n_head - n_body) // 2, 4)
    theta = 2.0 * np.pi * np.arange(n_head) / n_head
    head = np.stack(
        [
            cx + 0.3 * np.cos(theta),
            cy + 1.0 + 0.3 * (1.0 - head_squash) * np.sin(theta),
        ],
        axis=-1,
    )
    t = np.linspace(0.0, 1.0, n_body)
    body = np.stack([cx + 0.12 * np.sin(2.0 * np.pi * t), cy + 0.6 - 1.2 * t], axis=-1)
    t = np.linspace(0.15, 0.75, n_arm)
    ca, sa = np.cos(arm_angle), np.sin(arm_angle)
    left = np.stack([cx - t * ca, cy + 0.45 + t * sa], axis=-1)
    right = np.stack([cx + t * ca, cy + 0.45 + t * sa], axis=-1)
    return np.vstack([head, body, left, right])


_GENERATORS = {
    "circle": circle,
    "ellipse": ellipse,
    "bumpy_ellipse": bumpy_ellipse,
    "flower": flower,
    "schematic_human": schematic_human,
}


def generate(spec):
    """Build a point set from a shape spec dict, e.g.
    {"type": "circle", "num": 30, "radius": 1.0}.

    `center` and `semi_axes` must be two finite numbers, and the points
    a nonempty (N, 2) array of finite numbers; otherwise ValueError."""
    spec = dict(spec)
    kind = spec.pop("type")
    try:
        gen = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown shape type {kind!r}") from None
    for key in ("center", "semi_axes"):
        if key in spec:
            value = np.asarray(spec[key], dtype=float)
            if value.shape != (2,) or not np.all(np.isfinite(value)):
                raise ValueError(f"{key} must be two finite numbers, got {spec[key]!r}")
            spec[key] = tuple(spec[key])
    with np.errstate(all="ignore"):  # the check below reports what overflowed
        points = np.asarray(gen(**spec), dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or not points.size:
        raise ValueError(f"shape {kind!r} gives points of shape {points.shape}, not (N >= 1, 2)")
    if not np.all(np.isfinite(points)):
        raise ValueError(f"shape {kind!r} has points that are not finite")
    return points
