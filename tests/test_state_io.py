"""State and branch files: round trips, determinism, validation."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from vstates import (
    BranchFile,
    SolverConfig,
    StateFile,
    load_branch,
    load_state,
    save_branch,
    save_state,
    sweep,
)
from vstates.state_io import BranchRow

from conftest import REFERENCE_OMEGA


def test_state_roundtrip_bit_exact(tmp_path, reference_state):
    state = StateFile.from_report(reference_state, REFERENCE_OMEGA, 256)
    path = tmp_path / "state.json"
    save_state(path, state, timestamp=False)
    loaded = load_state(path)
    assert loaded.b == state.b
    assert loaded.m == state.m
    assert loaded.omega == state.omega
    assert loaded.modes == state.modes and loaded.nodes == state.nodes
    assert loaded.iterations == state.iterations
    assert loaded.converged == state.converged
    assert loaded.residual_max == state.residual_max  # 17 digits round-trip
    assert np.array_equal(np.asarray(loaded.a1), np.asarray(state.a1))
    assert np.array_equal(np.asarray(loaded.a2), np.asarray(state.a2))


GOLDEN_STATE = """\
{
  "format": "vstate",
  "schema_version": 1,
  "b": 0.63,
  "m": 4,
  "omega": 0.152,
  "modes": 2,
  "nodes": 256,
  "a1": [
    0.035000000000000003,
    -0.001
  ],
  "a2": [
    -0.059999999999999998,
    2.4999999999999999e-20
  ],
  "residual_max": 2.9999999999999998e-14,
  "iterations": 6,
  "converged": true
}
"""

GOLDEN_BRANCH = """\
# format: vstate-branch
# schema_version: 1
# b: 0.59999999999999998
# m: 4
# origin: omega_plus
# omega_step: -0.00050000000000000001
# modes: 63
# nodes: 512
omega,distance,iterations,a1_1,a2_1,converged
0.19,0.29999999999999999,7,0.050000000000000003,-0.040000000000000001,true
0.1895,0.28999999999999998,12,0.059999999999999998,-0.050000000000000003,false
0.189,,,,,terminated
"""


def test_state_file_golden_bytes(tmp_path):
    """The StateFile layout, byte for byte: field order, indentation and
    17-digit floats."""
    state = StateFile(
        schema_version=1, b=0.63, m=4, omega=0.152, modes=2, nodes=256,
        a1=np.array([0.035, -1e-3]), a2=np.array([-0.06, 2.5e-20]),
        residual_max=3e-14, iterations=6, converged=True,
    )
    path = tmp_path / "golden.json"
    save_state(path, state, timestamp=False)
    assert path.read_text() == GOLDEN_STATE
    loaded = load_state(path)
    assert loaded.a2[1] == 2.5e-20 and loaded.residual_max == 3e-14


def test_branch_file_golden_bytes(tmp_path):
    """The BranchFile layout, byte for byte: header, column row, rows and
    the terminated marker."""
    rows = [
        BranchRow(omega=0.19, distance=0.3, iterations=7, a1_1=0.05, a2_1=-0.04, converged=True),
        BranchRow(omega=0.1895, distance=0.29, iterations=12, a1_1=0.06, a2_1=-0.05, converged=False),
    ]
    bf = BranchFile(
        schema_version=1, b=0.6, m=4, origin="omega_plus", omega_step=-5e-4,
        modes=63, nodes=512, rows=rows, terminated_at=0.189,
    )
    path = tmp_path / "golden.csv"
    save_branch(path, bf, timestamp=False)
    assert path.read_text() == GOLDEN_BRANCH
    assert load_branch(path) == bf


def test_state_coefficients_rebuild_the_contour(reference_state):
    state = StateFile.from_report(reference_state, REFERENCE_OMEGA, 256)
    coeffs = state.coefficients()
    assert np.array_equal(coeffs.a1, reference_state.coeffs.a1)
    assert np.array_equal(coeffs.a2, reference_state.coeffs.a2)
    assert coeffs.b == 0.63 and coeffs.fold == 4


def test_state_saves_are_deterministic(tmp_path, reference_state):
    state = StateFile.from_report(reference_state, REFERENCE_OMEGA, 256)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_state(first, state, timestamp=False)
    save_state(second, state, timestamp=False)
    assert first.read_bytes() == second.read_bytes()

    stamped = tmp_path / "c.json"
    save_state(stamped, state, timestamp=True)
    assert load_state(stamped).omega == state.omega


def test_state_file_validation(tmp_path, reference_state):
    state = StateFile.from_report(reference_state, REFERENCE_OMEGA, 256)
    path = tmp_path / "state.json"
    save_state(path, state, timestamp=False)
    doc = json.loads(path.read_text())

    wrong_format = dict(doc, format="not-a-state")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(wrong_format))
    with pytest.raises(ValueError):
        load_state(bad)

    wrong_version = dict(doc, schema_version=99)
    bad.write_text(json.dumps(wrong_version))
    with pytest.raises(ValueError):
        load_state(bad)

    # equal to 1 in Python, but not the int 1
    for version, shown in ((True, "True"), (1.0, "1.0")):
        bad.write_text(json.dumps(dict(doc, schema_version=version)))
        match = f"^{re.escape(str(bad))}: unsupported schema_version {shown}$"
        with pytest.raises(ValueError, match=match):
            load_state(bad)

    chopped = dict(doc, a1=doc["a1"][:-1])
    bad.write_text(json.dumps(chopped))
    with pytest.raises(ValueError):
        load_state(bad)

    fieldless = {key: value for key, value in doc.items() if key != "a1"}
    bad.write_text(json.dumps(fieldless))
    with pytest.raises(ValueError, match="missing field 'a1'"):
        load_state(bad)

    for malformed in ([doc], dict(doc, a1=None)):
        bad.write_text(json.dumps(malformed))
        with pytest.raises(ValueError):
            load_state(bad)

    bad.write_text("not json\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: not a JSON document"):
        load_state(bad)

    # an int of more digits than Python converts is refused by the parser
    bad.write_text(path.read_text().replace('"m": 4,', f'"m": {"9" * 5000},'))
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: not a JSON document: Exceeds the limit"):
        load_state(bad)

    bad.write_text(path.read_text().replace('"b": 0.63,', '"b": 0.63,\n  "b": 0.5,'))
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: field 'b' is stated twice"):
        load_state(bad)


@pytest.mark.parametrize(
    "field, value",
    [
        ("b", None),
        ("omega", "0.152"),
        ("residual_max", float("nan")),
        ("b", float("inf")),
        ("m", None),
        ("modes", True),
        ("nodes", 256.5),
        ("iterations", None),
        ("converged", None),
        ("a1", "entry"),
        ("a2", "entry"),
        ("b", 3.0),
        ("b", 0.0),
        ("m", 0),
        ("modes", 0),
        ("nodes", 0),
        pytest.param("omega", 10**400, id="omega-int-beyond-double"),
        ("b", [0.63]),
        ("a1", 0.5),
        ("converged", "true"),
        ("modes", "31"),
        ("iterations", {"n": 6}),
    ],
)
def test_state_file_rejects_invalid_values(tmp_path, reference_state, field, value):
    """A present but null, non-numeric or non-finite field, an integer
    too large for a double, or a value of another JSON type (a list for
    a number, a number for a list, a string or an object) is named in a
    ValueError; "entry" puts the value into one coefficient."""
    state = StateFile.from_report(reference_state, REFERENCE_OMEGA, 256)
    path = tmp_path / "state.json"
    save_state(path, state, timestamp=False)
    doc = json.loads(path.read_text())
    if value == "entry":
        doc[field][3] = None
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{path}: field '{field}'"):
        load_state(path)
    if value == "entry":
        for entry in (float("nan"), "0.1", False, 10**400):
            doc[field][3] = entry
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=f"field '{field}'"):
                load_state(path)


def test_golden_files_read_back_to_their_own_bytes(tmp_path):
    """Every committed StateFile and BranchFile loads and, saved without
    a timestamp, gives the bytes it was read from."""
    golden = Path(__file__).resolve().parent / "golden"
    files = sorted(golden.glob("*.json")) + sorted(golden.glob("*.csv"))
    assert {path.suffix for path in files} == {".json", ".csv"}
    for path in files:
        load, save = (load_state, save_state) if path.suffix == ".json" else (load_branch, save_branch)
        copy = tmp_path / path.name
        save(copy, load(path), timestamp=False)
        assert copy.read_bytes() == path.read_bytes(), path.name


def test_nonfinite_values_refused(tmp_path, reference_state):
    state = StateFile.from_report(reference_state, REFERENCE_OMEGA, 256)
    broken = StateFile(
        schema_version=state.schema_version,
        b=state.b,
        m=state.m,
        omega=float("nan"),
        modes=state.modes,
        nodes=state.nodes,
        a1=state.a1,
        a2=state.a2,
        residual_max=state.residual_max,
        iterations=state.iterations,
        converged=state.converged,
    )
    with pytest.raises(ValueError):
        save_state(tmp_path / "nan.json", broken, timestamp=False)


def test_branch_roundtrip(tmp_path):
    config = SolverConfig(modes=31, nodes=256)
    branch = sweep(0.63, 4, 0.1350, 0.1360, 5e-4, config)
    bf = BranchFile.from_branch(branch, 5e-4, 31, 256)
    path = tmp_path / "branch.csv"
    save_branch(path, bf, timestamp=False)
    loaded = load_branch(path)
    stamped = tmp_path / "stamped.csv"
    save_branch(stamped, bf, timestamp=True)
    assert "# created: " in stamped.read_text()
    assert load_branch(stamped) == loaded
    assert loaded.b == 0.63 and loaded.m == 4
    assert loaded.origin == "omega_minus"
    assert loaded.omega_step == 5e-4
    assert loaded.terminated_at is None
    assert len(loaded.rows) == len(branch.records)
    for row, record in zip(loaded.rows, branch.records):
        assert row.omega == record.omega
        assert row.distance == record.distance
        assert row.iterations == record.report.iterations
        assert row.a1_1 == record.report.coeffs.a1[0]
        assert row.converged


def test_branch_terminated_marker(tmp_path):
    rows = [BranchRow(omega=0.17, distance=0.3, iterations=4, a1_1=0.05, a2_1=-0.04, converged=True)]
    bf = BranchFile(
        schema_version=1, b=0.6, m=4, origin="omega_plus", omega_step=-5e-4,
        modes=31, nodes=512, rows=rows, terminated_at=0.1695,
    )
    path = tmp_path / "terminated.csv"
    save_branch(path, bf, timestamp=False)
    text = path.read_text()
    assert text.count("terminated") == 1
    loaded = load_branch(path)
    assert loaded.terminated_at == 0.1695
    assert len(loaded.rows) == 1
    # blank lines, anywhere, are skipped
    path.write_text("\n" + text.replace("\n", "\n  \n"))
    assert load_branch(path) == loaded


def test_branch_rejects_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# format: vstate-branch\nomega,distance\n0.1,0.3\n")
    with pytest.raises(ValueError):
        load_branch(path)
    path.write_text(
        "# format: vstate-branch\n# schema_version: 1\n# m: 4\n"
        "omega,distance,iterations,a1_1,a2_1,converged\n"
    )
    with pytest.raises(ValueError, match="missing field 'b'"):
        load_branch(path)
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a text document"):
        load_branch(path)

    def document(
        b="0.6", m="4", omega_step="-0.0005", row="0.19,0.3,7,0.05,-0.04,true",
        origin="omega_plus", schema_version="1", format_="vstate-branch",
        modes="31", nodes="512",
    ):
        return (
            f"# format: {format_}\n# schema_version: {schema_version}\n"
            f"# b: {b}\n# m: {m}\n"
            f"# origin: {origin}\n# omega_step: {omega_step}\n# modes: {modes}\n"
            f"# nodes: {nodes}\nomega,distance,iterations,a1_1,a2_1,converged\n{row}\n"
        )

    path.write_text(document())
    assert load_branch(path).rows[0].distance == 0.3
    for bad, where in (
        (dict(row="0.19,nan,7,0.05,-0.04,true"), "column 'distance'"),
        (dict(row="inf,0.3,7,0.05,-0.04,true"), "column 'omega'"),
        (dict(row="0.19,0.3,7,-inf,-0.04,true"), "column 'a1_1'"),
        (dict(row="0.19,0.3,7,0.05,abc,true"), "column 'a2_1'"),
        (dict(row="0.19,0.3,7.5,0.05,-0.04,true"), "column 'iterations'"),
        (dict(row="nan,,,,,terminated"), "column 'omega'"),
        (dict(row="0.175,0.3,7,0.05,-0.04,terminated"), "terminated marker .* has values between"),
        (dict(row="0.175,,,,false,terminated"), "terminated marker .* has values between"),
        (dict(b="nan"), "field 'b'"),
        (dict(omega_step="inf"), "field 'omega_step'"),
        (dict(omega_step="fast"), "field 'omega_step'"),
        (dict(b="3"), "field 'b'"),
        (dict(m="0"), "field 'm'"),
        (dict(m="3"), "field 'nodes': nodes=512 must be a multiple of the fold 3"),
        (dict(m="12"), "field 'nodes': nodes=512 is below the alias-free sampling bound"),
        (dict(row="0.19,0.3,7,0.05,-0.04,maybe"), "column 'converged'"),
        (dict(row="0.19,0.3,7,0.05,true"), "malformed row"),
        (dict(format_="vstate"), "not a vstate-branch document"),
        (dict(schema_version="2"), "unsupported schema_version 2"),
        (dict(schema_version="x"), "field 'schema_version'"),
        (dict(origin="banana"), "field 'origin'"),
        (dict(omega_step="0"), "field 'omega_step'"),
        # numbers follow JSON's number grammar, narrower than int() and float()
        (dict(nodes="5_12"), "field 'nodes'"),
        (dict(nodes="\u0665\u0661\u0662"), "field 'nodes'"),  # Arabic-Indic 512
        (dict(modes="0_7"), "field 'modes'"),
        (dict(modes="+007"), "field 'modes'"),
        (dict(b="\u0660.6"), "field 'b'"),  # Arabic-Indic zero
        (dict(omega_step="-5_0e-4"), "field 'omega_step'"),
        (dict(row="0.19,0.3,5_12,0.05,-0.04,true"), "column 'iterations'"),
        (dict(row="0.19,0.3,\u0665\u0661\u0662,0.05,-0.04,true"), "column 'iterations'"),
        (dict(row="0.19,0.3,0_7,0.05,-0.04,true"), "column 'iterations'"),
        (dict(row="0.19,0.3,+007,0.05,-0.04,true"), "column 'iterations'"),
        (dict(row="0.19, 0.3 ,7,0.05,-0.04,true"), "column 'distance'"),
        # a header value is read as written, after one space past the colon
        (dict(b=" 0.6"), "field 'b'"),
        (dict(nodes="512\t"), "field 'nodes'"),
        (dict(origin="omega_plus "), "field 'origin'"),
        # an int of more digits than Python converts
        (dict(m="9" * 5000), "field 'm' is not a valid int"),
        (dict(row=f"0.19,0.3,{'7' * 5000},0.05,-0.04,true"), "column 'iterations' is not a valid int"),
    ):
        path.write_text(document(**bad))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{where}"):
            load_branch(path)

    # each header field once, before the column row, and a column row
    columns = "omega,distance,iterations,a1_1,a2_1,converged\n"
    for text, where in (
        (document() + "# b: 0.7\n# m: 8\n", "header line '# b: 0.7' follows the column row"),
        (document().replace("# m: 4\n", "# m: 4\n# m: 8\n"), "field 'm' is stated twice"),
        (document(row="").replace(columns, ""), "missing the column row"),
        # a header line is exactly '# key: value' and the column row is as written
        (document().replace("# m: 4\n", "#m: 4\n"), "header line '#m: 4' is not '# key: value'"),
        (document().replace("# m: 4\n", "# m:4\n"), "header line '# m:4' is not '# key: value'"),
        (
            document().replace("# m: 4\n", "# m : 4\n"),
            "header line '# m : 4' is not '# key: value'",
        ),
        (document().replace(columns, " " + columns[:-1] + " \n"), "unexpected column row"),
    ):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {where}"):
            load_branch(path)


def _descending_branch(tmp_path, rows, origin="omega_plus"):
    """A BranchFile of a descending sweep (omega_step -5e-4) with the given rows."""
    path = tmp_path / "branch.csv"
    path.write_text(
        "# format: vstate-branch\n# schema_version: 1\n# b: 0.6\n# m: 4\n"
        f"# origin: {origin}\n# omega_step: -0.0005\n# modes: 31\n# nodes: 512\n"
        "omega,distance,iterations,a1_1,a2_1,converged\n" + "\n".join(rows) + "\n"
    )
    return path


def test_branch_rejects_origin_against_step(tmp_path):
    """sweep starts a descending march at omega_plus, never at omega_minus."""
    rows = ["0.19,0.3,7,0.05,-0.04,true"]
    assert load_branch(_descending_branch(tmp_path, rows)).origin == "omega_plus"
    path = _descending_branch(tmp_path, rows, origin="omega_minus")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: field 'origin'"):
        load_branch(path)


def test_branch_rejects_rows_against_step(tmp_path):
    """Row omegas, the terminated marker's included, fall strictly with
    a negative omega_step."""
    first = "0.19,0.3,7,0.05,-0.04,true"
    good = [first, "0.1895,0.29,5,0.06,-0.05,true", "0.189,,,,,terminated"]
    assert len(load_branch(_descending_branch(tmp_path, good)).rows) == 2
    for bad in ("0.19,0.29,5,0.06,-0.05,true", "0.1905,0.29,5,0.06,-0.05,true", "0.19,,,,,terminated"):
        path = _descending_branch(tmp_path, [first, bad])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row {re.escape(repr(bad))}"):
            load_branch(path)


def test_branch_rejects_rows_after_terminated_marker(tmp_path):
    rows = ["0.19,0.3,7,0.05,-0.04,true", "0.1895,,,,,terminated", "0.189,0.29,5,0.06,-0.05,true"]
    path = _descending_branch(tmp_path, rows)
    with pytest.raises(
        ValueError, match=f"^{re.escape(str(path))}: row {re.escape(repr(rows[2]))} follows the terminated marker"
    ):
        load_branch(path)
