"""Command-line surface: exit codes, files written, output text."""

import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from vstates import SingularJacobian, load_branch, load_state
from vstates.cli import EXIT_INFEASIBLE, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def extract(pattern, text):
    match = re.search(pattern, text)
    assert match is not None, f"{pattern!r} not found in output:\n{text}"
    return float(match.group(1))


def test_dispersion_feasible(capsys):
    code, out, _ = run(capsys, "dispersion", "--m", "4", "--b", "0.63")
    assert code == EXIT_OK
    omega_minus = extract(r"omega_minus = ([0-9.eE+-]+)", out)
    omega_plus = extract(r"omega_plus\s+= ([0-9.eE+-]+)", out)
    assert omega_minus == pytest.approx(0.134143, abs=1e-6)
    assert omega_plus == pytest.approx(0.167407, abs=1e-6)
    assert "critical radius" in out
    assert "transversal: yes" in out


def test_dispersion_infeasible_radius(capsys):
    code, out, _ = run(capsys, "dispersion", "--m", "4", "--b", "0.8")
    assert code == EXIT_INFEASIBLE
    assert "no eigenvalue pair" in out


def test_dispersion_critical_boundary_is_infeasible(capsys):
    # the fold-3 critical radius is exactly 1/2: double root, no crossing
    code, out, _ = run(capsys, "dispersion", "--m", "3", "--b", "0.5")
    assert code == EXIT_INFEASIBLE
    assert "no eigenvalue pair" in out


def test_dispersion_low_fold(capsys):
    code, _, _ = run(capsys, "dispersion", "--m", "2", "--b", "0.4")
    assert code == EXIT_INFEASIBLE


def test_flag_errors_exit_with_usage_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dispersion", "--m", "4"])  # --b missing
    assert excinfo.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == EXIT_USAGE


def test_domain_errors_exit_with_usage_code(capsys):
    # b is checked before anything is printed, at a fold with or without a pair
    for fold in ("4", "2"):
        code, out, err = run(capsys, "dispersion", "--m", fold, "--b", "1.5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "inner radius must lie in (0, 1), got 1.5" in err


def test_solve_writes_state(tmp_path, capsys):
    out_path = tmp_path / "state.json"
    code, out, _ = run(
        capsys,
        "solve", "--b", "0.63", "--m", "4", "--omega", "0.1520",
        "--seed-a1", "0.06", "--nodes", "256", "--out", str(out_path),
        "--no-timestamp",
    )
    assert code == EXIT_OK
    assert "converged" in out and "boundary distance" in out
    state = load_state(out_path)
    assert state.converged
    assert state.m == 4 and state.nodes == 256
    assert state.a1[0] > 0 > state.a2[0]


def test_solve_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(
        capsys,
        "solve", "--b", "0.5", "--m", "4", "--omega", "0.2", "--nodes", "128",
        "--no-timestamp",
    )
    assert code == EXIT_OK
    assert (tmp_path / "state_m4_b0.5_omega0.2.json").exists()


def test_solve_trivial_seed_flagged(tmp_path, capsys):
    out_path = tmp_path / "trivial.json"
    code, out, _ = run(
        capsys,
        "solve", "--b", "0.5", "--m", "4", "--omega", "0.2", "--nodes", "128",
        "--out", str(out_path), "--no-timestamp",
    )
    assert code == EXIT_OK
    assert "trivial (annulus) solution: yes" in out


def test_solve_nonconverged_exits_numerical(tmp_path, capsys):
    out_path = tmp_path / "stuck.json"
    code, out, _ = run(
        capsys,
        "solve", "--b", "0.63", "--m", "4", "--omega", "0.1520",
        "--seed-a1", "0.06", "--nodes", "256", "--max-iter", "2",
        "--tol", "1e-30", "--out", str(out_path), "--no-timestamp",
    )
    assert code == EXIT_NUMERICAL
    assert "did NOT converge" in out
    assert not load_state(out_path).converged  # file still written


def test_solve_geometry_failure_exits_numerical(tmp_path, capsys):
    out_path = tmp_path / "crossed.json"
    code, _, err = run(
        capsys,
        "solve", "--b", "0.63", "--m", "4", "--omega", "0.05",
        "--seed-a1", "0.3", "--seed-a2", "0.3", "--nodes", "128", "--modes", "15",
        "--out", str(out_path),
    )
    assert code == EXIT_NUMERICAL
    assert "solve failed: contour degenerated at iteration 4" in err
    assert not out_path.exists()


def test_solve_singular_jacobian_exits_numerical(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularJacobian(0.0)

    monkeypatch.setattr("vstates.cli.newton_solve", singular)
    out_path = tmp_path / "singular.json"
    code, _, err = run(
        capsys,
        "solve", "--b", "0.63", "--m", "4", "--omega", "0.152",
        "--seed-a1", "0.06", "--nodes", "256", "--out", str(out_path),
    )
    assert code == EXIT_NUMERICAL
    assert err == (
        "solve failed: Jacobian numerically singular (1/||J^-1||_inf 0.000e+00 < 1e-14)\n"
    )
    assert not out_path.exists()


def test_solve_tol_bounds(tmp_path, capsys):
    """A loose tol still converges from the cold start; a non-finite one
    is a usage error."""
    out_path = tmp_path / "loose.json"
    argv = ("solve", "--b", "0.63", "--m", "4", "--omega", "0.152",
            "--seed-a1", "0.06", "--nodes", "256", "--out", str(out_path))
    code, _, _ = run(capsys, *argv, "--tol", "1e-2")
    assert code == EXIT_OK
    assert load_state(out_path).converged
    out_path.unlink()
    code, _, err = run(capsys, *argv, "--tol", "inf")
    assert code == EXIT_USAGE
    assert "tol must be positive and finite" in err
    assert not out_path.exists()


def test_solve_seed_file_warm_start(tmp_path, capsys):
    first = tmp_path / "cold.json"
    code, _, _ = run(
        capsys,
        "solve", "--b", "0.63", "--m", "4", "--omega", "0.1520",
        "--seed-a1", "0.06", "--nodes", "256", "--out", str(first),
        "--no-timestamp",
    )
    assert code == EXIT_OK
    second = tmp_path / "warm.json"
    code, _, _ = run(
        capsys,
        "solve", "--b", "0.63", "--m", "4", "--omega", "0.1520",
        "--seed-file", str(first), "--nodes", "256", "--out", str(second),
        "--no-timestamp",
    )
    assert code == EXIT_OK
    warm = load_state(second)
    cold = load_state(first)
    assert warm.iterations <= 2
    assert np.array_equal(warm.a1, cold.a1)
    assert np.array_equal(warm.a2, cold.a2)


def test_solve_byte_determinism(tmp_path, capsys):
    argv = (
        "solve", "--b", "0.63", "--m", "4", "--omega", "0.1520",
        "--seed-a1", "0.06", "--nodes", "256", "--no-timestamp",
    )
    run(capsys, *argv, "--out", str(tmp_path / "a.json"))
    run(capsys, *argv, "--out", str(tmp_path / "b.json"))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_solve_seed_file_conflicts(tmp_path, capsys):
    state = tmp_path / "seed.json"
    run(
        capsys,
        "solve", "--b", "0.5", "--m", "4", "--omega", "0.2", "--nodes", "128",
        "--out", str(state), "--no-timestamp",
    )
    with pytest.raises(SystemExit) as excinfo:
        main([
            "solve", "--b", "0.5", "--m", "4", "--omega", "0.2",
            "--seed-file", str(state), "--seed-a1", "0.02", "--nodes", "128",
        ])
    assert excinfo.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as excinfo:
        main([
            "solve", "--b", "0.6", "--m", "4", "--omega", "0.2",
            "--seed-file", str(state), "--nodes", "128",
        ])
    assert excinfo.value.code == EXIT_USAGE
    capsys.readouterr()
    # the seed carries the default 15 modes of N = 128, more than --modes
    with pytest.raises(SystemExit) as excinfo:
        main([
            "solve", "--b", "0.5", "--m", "4", "--omega", "0.2",
            "--seed-file", str(state), "--nodes", "128", "--modes", "7",
        ])
    assert excinfo.value.code == EXIT_USAGE
    assert "seed file carries 15 modes, more than the requested truncation 7" in (
        capsys.readouterr().err
    )


def test_solve_seed_file_unreadable(tmp_path, capsys):
    fieldless = tmp_path / "fieldless.json"
    fieldless.write_text('{"format": "vstate", "schema_version": 1}\n')
    for seed in (tmp_path / "missing.json", fieldless):
        code, _, err = run(
            capsys,
            "solve", "--b", "0.5", "--m", "4", "--omega", "0.2",
            "--seed-file", str(seed), "--nodes", "128",
        )
        assert code == EXIT_USAGE
        assert err.startswith("vstates: error:") and str(seed) in err


def test_too_few_nodes_for_the_default_truncation(tmp_path, capsys):
    """Without --modes, a grid with no room for one mode is a --nodes error."""
    commands = [
        ["solve", "--omega", "0.152"],
        ["sweep", "--omega-start", "0.135", "--omega-end", "0.136",
         "--omega-step", "0.0005"],
    ]
    for command in commands:
        for nodes in ("0", "4", "8"):
            out_path = tmp_path / "out"
            code, _, err = run(
                capsys, *command, "--b", "0.63", "--m", "4", "--nodes", nodes,
                "--out", str(out_path),
            )
            assert code == EXIT_USAGE
            assert err.startswith(f"vstates: error: --nodes {nodes} ")
            assert "--nodes 12 or more" in err and "modes must be" not in err
            assert not out_path.exists()


def test_sweep_writes_branch(tmp_path, capsys):
    out_path = tmp_path / "branch.csv"
    code, out, _ = run(
        capsys,
        "sweep", "--b", "0.63", "--m", "4",
        "--omega-start", "0.1350", "--omega-end", "0.1360",
        "--omega-step", "0.0005", "--nodes", "256",
        "--out", str(out_path), "--no-timestamp",
    )
    assert code == EXIT_OK
    assert "traced 3 states" in out
    assert "minimum boundary distance" in out
    branch = load_branch(out_path)
    assert len(branch.rows) == 3
    assert branch.origin == "omega_minus"


def test_sweep_descending_negative_step(tmp_path, capsys):
    # "=" form because a bare "-0.0005" token parses fine but is easy to
    # mangle in shells and wrappers
    out_path = tmp_path / "down.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--b", "0.63", "--m", "4",
        "--omega-start", "0.1670", "--omega-end", "0.1660",
        "--omega-step=-0.0005", "--nodes", "256",
        "--out", str(out_path), "--no-timestamp",
    )
    assert code == EXIT_OK
    branch = load_branch(out_path)
    assert len(branch.rows) == 3
    assert branch.origin == "omega_plus"


def test_sweep_single_point(tmp_path, capsys):
    out_path = tmp_path / "single.csv"
    code, _, _ = run(
        capsys,
        "sweep", "--b", "0.63", "--m", "4",
        "--omega-start", "0.1520", "--omega-end", "0.1520",
        "--omega-step", "0.0005", "--nodes", "256",
        "--out", str(out_path), "--no-timestamp",
    )
    assert code == EXIT_OK
    assert len(load_branch(out_path).rows) == 1


def test_sweep_reports_termination(tmp_path, capsys):
    out_path = tmp_path / "end.csv"
    code, out, _ = run(
        capsys,
        "sweep", "--b", "0.63", "--m", "4",
        "--omega-start", "0.165", "--omega-end", "0.170",
        "--omega-step", "0.001", "--nodes", "128", "--modes", "15",
        "--out", str(out_path), "--no-timestamp",
    )
    assert code == EXIT_OK
    assert "traced 3 states" in out
    assert "branch terminated at omega = 0.16800000000000001" in out
    assert out_path.read_text().endswith("\n0.16800000000000001,,,,,terminated\n")
    assert len(load_branch(out_path).rows) == 3


def test_sweep_outside_band_fails(tmp_path, capsys):
    code, _, err = run(
        capsys,
        "sweep", "--b", "0.63", "--m", "4",
        "--omega-start", "0.30", "--omega-end", "0.30",
        "--omega-step", "0.001", "--nodes", "256",
        "--out", str(tmp_path / "none.csv"),
    )
    assert code == EXIT_NUMERICAL
    assert "sweep failed" in err


def test_zero_fold_is_a_usage_error(tmp_path, capsys):
    for argv in (
        ("solve", "--omega", "0.152"),
        ("sweep", "--omega-start", "0.135", "--omega-end", "0.136",
         "--omega-step", "0.0005"),
    ):
        out_path = tmp_path / "out.json"
        code, _, err = run(
            capsys, *argv, "--b", "0.63", "--m", "0", "--out", str(out_path)
        )
        assert code == EXIT_USAGE
        assert "fold must be a positive integer" in err
        assert not out_path.exists()


def test_non_finite_omega_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, _, err = run(
        capsys, "solve", "--b", "0.63", "--m", "4", "--omega", "nan",
        "--nodes", "256", "--out", str(out_path),
    )
    assert code == EXIT_USAGE
    assert "omega must be finite" in err
    assert not out_path.exists()
    grid = {"--omega-start": "0.135", "--omega-end": "0.136", "--omega-step": "0.0005"}
    for flag, name in (
        ("--omega-start", "omega_start"),
        ("--omega-end", "omega_end"),
        ("--omega-step", "omega_step"),
    ):
        argv = [item for pair in {**grid, flag: "nan"}.items() for item in pair]
        code, _, err = run(
            capsys, "sweep", "--b", "0.63", "--m", "4", *argv,
            "--nodes", "256", "--out", str(out_path),
        )
        assert code == EXIT_USAGE
        assert f"{name} must be finite" in err
        assert not out_path.exists()


def test_unusable_omega_step_is_a_usage_error(tmp_path, capsys):
    """Steps below the spacing of doubles, and a grid too large for any
    address space, exit 1 with a message instead of a numpy traceback."""
    out_path = tmp_path / "out.csv"
    for start, end, step, message in (
        ("0.135", "0.16", "1e-300", "too small to move omega from 0.135"),
        ("0.135", "0.16", "5e-324", "too small to move omega from 0.135"),
        ("-0.49", "0.49", "1e-16", "points, too many to hold"),
    ):
        code, _, err = run(
            capsys, "sweep", "--b", "0.63", "--m", "4", "--omega-start", start,
            "--omega-end", end, "--omega-step", step, "--out", str(out_path),
        )
        assert code == EXIT_USAGE
        assert err.startswith(f"vstates: error: omega_step {float(step)!r} ") and message in err
        assert not out_path.exists()


def test_render_states(tmp_path, capsys):
    paths = []
    for omega in ("0.1400", "0.1520"):
        path = tmp_path / f"s{omega}.json"
        code, _, _ = run(
            capsys,
            "solve", "--b", "0.63", "--m", "4", "--omega", omega,
            "--seed-a1", "0.06", "--nodes", "256", "--out", str(path),
            "--no-timestamp",
        )
        assert code == EXIT_OK
        paths.append(str(path))
    svg_path = tmp_path / "family.svg"
    code, _, _ = run(capsys, "render", *paths, "--out", str(svg_path))
    assert code == EXIT_OK
    text = svg_path.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "#cc0000" in text and "#000000" in text
    assert "(red)" in text and "(black)" in text
    assert text.count("<path") == 4  # two boundaries per state


def test_render_unreadable_input(tmp_path, capsys):
    code, _, err = run(
        capsys, "render", str(tmp_path / "missing.json"),
        "--out", str(tmp_path / "x.svg"),
    )
    assert code == EXIT_USAGE
    assert "cannot read state file" in err
    not_json = tmp_path / "not_json.json"
    not_json.write_text("not json\n")
    code, _, err = run(
        capsys, "render", str(not_json), "--out", str(tmp_path / "x.svg"),
    )
    assert code == EXIT_USAGE
    assert "cannot read state file" in err and str(not_json) in err
    assert not (tmp_path / "x.svg").exists()


def test_render_rejects_invalid_values(tmp_path, capsys):
    """A null scalar used to end in a traceback, and a null coefficient or
    an out-of-range b, m, nodes or modes in an SVG written with exit 0."""
    state_path = tmp_path / "state.json"
    code, _, _ = run(
        capsys,
        "solve", "--b", "0.63", "--m", "4", "--omega", "0.1520",
        "--seed-a1", "0.06", "--nodes", "128", "--modes", "15",
        "--out", str(state_path), "--no-timestamp",
    )
    assert code == EXIT_OK
    doc = json.loads(state_path.read_text())
    nulled_coefficient = dict(doc, a1=[None] + doc["a1"][1:])
    out_of_range = (
        dict(doc, m=0),
        dict(doc, b=3.0),
        dict(doc, nodes=0),
        dict(doc, modes=0, a1=[], a2=[]),
    )
    for broken in (dict(doc, b=None), nulled_coefficient, *out_of_range):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(broken))
        svg_path = tmp_path / "bad.svg"
        code, _, err = run(capsys, "render", str(bad), "--out", str(svg_path))
        assert code == EXIT_USAGE
        assert "cannot read state file" in err and str(bad) in err
        assert not svg_path.exists()
        code, _, err = run(
            capsys,
            "solve", "--b", "0.63", "--m", "4", "--omega", "0.1520",
            "--seed-file", str(bad), "--nodes", "128", "--modes", "15",
        )
        assert code == EXIT_USAGE
        assert err.startswith("vstates: error:") and str(bad) in err


def test_a_grid_too_large_to_allocate_is_a_usage_error(tmp_path, capsys):
    """Samples or nodes beyond any address space used to end in a traceback;
    numpy refuses such an array without allocating it."""
    huge = "1000000000000000"
    state = Path(__file__).resolve().parent / "golden" / "reference.json"
    commands = (
        ["render", str(state), "--samples", huge],
        ["solve", "--b", "0.63", "--m", "4", "--omega", "0.152",
         "--nodes", huge, "--modes", "31"],
    )
    for command in commands:
        out_path = tmp_path / "out"
        code, out, err = run(capsys, *command, "--out", str(out_path))
        assert code == EXIT_USAGE
        assert err.startswith("vstates: error: ") and err.count("\n") == 1
        assert out == "" and not out_path.exists()


def test_render_rejects_a_grid_that_no_solve_writes(tmp_path, capsys):
    """A fold of 10**20 used to end in an OverflowError traceback, and one
    of 2**62 in an SVG whose frequencies m k wrapped in int64."""
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "reference.json").read_text())
    for m in (10**20, 2**62):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(doc, m=m)))
        svg_path = tmp_path / "bad.svg"
        code, out, err = run(capsys, "render", str(bad), "--out", str(svg_path))
        assert code == EXIT_USAGE
        assert err.startswith(f"cannot read state file: {bad}: field 'nodes'")
        assert err.count("\n") == 1
        assert out == "" and not svg_path.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize("argv, options", [
    ([], ["dispersion", "solve", "sweep", "render", "--version"]),
    (["dispersion"], ["--b", "--m"]),
    (["solve"], ["--b", "--m", "--omega", "--seed-a1", "--seed-a2", "--seed-file",
                 "--nodes", "--modes", "--tol", "--max-iter", "--out", "--no-timestamp"]),
    (["sweep"], ["--b", "--m", "--omega-start", "--omega-end", "--omega-step",
                 "--nodes", "--modes", "--tol", "--max-iter", "--out", "--no-timestamp"]),
    (["render"], ["states", "--out", "--samples"]),
], ids=["vstates", "dispersion", "solve", "sweep", "render"])
def test_help_lists_every_option(capsys, monkeypatch, argv, options):
    """argparse expands `%(default)` only when help is asked for, so a
    stray `%` in a help string fails nowhere else."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for option in options:
        assert re.search(rf"^ +{option}(?![\w-])", out, re.MULTILINE), option
    if argv in (["solve"], ["sweep"]):
        assert "(default 1e-12)" in out and "(default 50)" in out
