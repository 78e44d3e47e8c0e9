"""SVG rendering: structure, ordering, and determinism."""

import dataclasses
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from vstates.render import _path, render_svg, save_svg
from vstates.state_io import StateFile


def make_state(omega, a1_1=0.05, a2_1=-0.04, b=0.6, m=4):
    return StateFile(
        schema_version=1,
        b=b,
        m=m,
        omega=omega,
        modes=3,
        nodes=128,
        a1=np.array([a1_1, 0.0, 0.0]),
        a2=np.array([a2_1, 0.0, 0.0]),
        residual_max=1e-14,
        iterations=7,
        converged=True,
    )


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        render_svg([])


def test_too_few_samples_rejected():
    with pytest.raises(ValueError):
        render_svg([make_state(0.15)], samples=15)


def test_single_state_document():
    text = render_svg([make_state(0.15)], samples=64)
    root = ET.fromstring(text)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert text.count("<path") == 2
    assert 'stroke="#000000"' in text  # lone state drawn black
    assert "omega 0.15" in text
    assert "(red)" not in text


def test_states_sorted_by_omega():
    # pass them out of order: red must go to the smallest omega
    states = [make_state(0.16), make_state(0.13), make_state(0.145)]
    text = render_svg(states, samples=64)
    assert "omega 0.13 (red) to 0.16 (black)" in text
    first_group = text.index("<title>omega = 0.13")
    last_group = text.index("<title>omega = 0.16")
    assert first_group < last_group
    assert text.index("#cc0000") < text.index("#000000")
    assert text.count("<path") == 6


def test_group_titles_carry_omega():
    text = render_svg([make_state(0.1234567890123)], samples=64)
    assert f"<title>omega = {0.1234567890123:.17g}</title>" in text


def test_render_is_deterministic():
    states = [make_state(0.15), make_state(0.14)]
    assert render_svg(states, samples=96) == render_svg(states, samples=96)


def test_save_svg_writes_file(tmp_path):
    target = tmp_path / "out.svg"
    state = make_state(0.15)
    save_svg(target, [state], samples=64)
    assert target.read_text() == render_svg([state], samples=64)


def test_background_is_white():
    text = render_svg([make_state(0.15)], samples=64)
    assert '<rect' in text and 'fill="white"' in text


def test_path_formats_each_point_like_an_f_string():
    theta = 2.0 * np.pi * np.arange(16) / 16
    rho = 1.0 + 0.05 * np.cos(4 * theta)
    rho[4] = 1e-8  # at theta = pi / 2, x rounds to -0.000000
    x, y = rho * np.cos(theta), -rho * np.sin(theta)
    points = " L ".join(f"{xi:.6f},{yi:.6f}" for xi, yi in zip(x, y))
    assert _path(theta, rho) == f"M {points} Z"
    assert "-0.000000," in points


def test_drawing_grid_need_not_be_a_multiple_of_the_fold():
    """At m = 7, 101 drawing angles: each point of both curves lies at
    rho(theta) = base + sum_k a_k cos(m k theta)."""
    state = dataclasses.replace(make_state(0.15, m=7), a1=np.array([0.05, 0.0, 0.01]))
    paths = re.findall(r'<path d="M (.*?) Z"', render_svg([state], samples=101))
    theta = 2.0 * np.pi * np.arange(101) / 101
    waves = np.cos(np.outer(theta, 7 * np.arange(1, 4)))
    for path, base, a in zip(paths, (1.0, state.b), (state.a1, state.a2)):
        points = np.array([p.split(",") for p in path.split(" L ")], dtype=float)
        rho = base + waves @ a
        assert points.shape == (101, 2)
        assert np.abs(points[:, 0] - rho * np.cos(theta)).max() < 1e-6
        assert np.abs(points[:, 1] + rho * np.sin(theta)).max() < 1e-6
