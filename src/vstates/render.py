"""Deterministic SVG rendering of patch boundaries.

Hand-rolled markup rather than a plotting library: output must be
byte-identical across runs for golden comparisons, and two closed
curves per state need nothing more.  Curves are resampled from the
coefficients at a caller-chosen density; when several states overlay,
strokes shade from red to black in order of increasing angular
velocity.
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Sequence

import numpy as np

from .state_io import StateFile

__all__ = ["render_svg", "save_svg"]


@functools.lru_cache(maxsize=4)
def _cosines(samples: int, fold: int, modes: int) -> np.ndarray:
    """Cached cos(m (k+1) theta_i) on a drawing grid, which need not be a multiple of m."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    table = np.cos(np.outer(theta, fold * np.arange(1, modes + 1)))
    table.setflags(write=False)
    return table


def _path(theta: np.ndarray, rho: np.ndarray) -> str:
    x = rho * np.cos(theta)
    y = -rho * np.sin(theta)  # SVG's y axis points down
    xy = np.column_stack([x, y]).ravel()
    points = " L ".join(["%.6f,%.6f"] * len(x)) % tuple(xy.tolist())
    return f"M {points} Z"


def _stroke(rank: int, count: int) -> str:
    # red for the lowest omega, black for the highest
    t = rank / (count - 1) if count > 1 else 1.0
    red = round(204 * (1.0 - t))
    return f"#{red:02x}0000"


def render_svg(states: Sequence[StateFile], samples: int = 720) -> str:
    """Render one or more states into an SVG document string."""
    if not states:
        raise ValueError("nothing to render")
    if samples < 16:
        raise ValueError(f"samples must be at least 16, got {samples}")
    ordered = sorted(states, key=lambda s: s.omega)
    theta = 2.0 * np.pi * np.arange(samples) / samples

    curves = []
    extent = 0.0
    for state in ordered:
        waves = _cosines(samples, state.m, state.modes)
        rho1, rho2 = 1.0 + waves @ state.a1, state.b + waves @ state.a2
        extent = max(extent, float(np.max(rho1)))
        curves.append((state.omega, _path(theta, rho1), _path(theta, rho2)))

    half = 1.05 * extent
    stroke_width = half / 300.0
    font = half / 18.0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="{-half:.6f} {-half:.6f} {2 * half:.6f} {2 * half:.6f}">',
        f'<rect x="{-half:.6f}" y="{-half:.6f}" width="{2 * half:.6f}" '
        f'height="{2 * half:.6f}" fill="white"/>',
    ]
    if len(ordered) > 1:
        legend = (
            f"omega {ordered[0].omega:.6g} (red) to {ordered[-1].omega:.6g} (black)"
        )
    else:
        legend = f"omega {ordered[0].omega:.6g}"
    lines.append(
        f'<text x="{-half * 0.96:.6f}" y="{-half * 0.90:.6f}" '
        f'font-family="sans-serif" font-size="{font:.6f}" fill="#444444">'
        f"{legend}</text>"
    )
    for rank, (omega, outer, inner) in enumerate(curves):
        color = _stroke(rank, len(curves))
        lines.append(f"<g><title>omega = {omega:.17g}</title>")
        for path in (outer, inner):
            lines.append(
                f'<path d="{path}" fill="none" stroke="{color}" '
                f'stroke-width="{stroke_width:.6f}"/>'
            )
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def save_svg(
    path: str | Path, states: Sequence[StateFile], samples: int = 720
) -> None:
    Path(path).write_text(render_svg(states, samples))
