"""On-disk formats: single states (JSON) and branches (CSV).

Floats are serialized with 17 significant digits, which round-trips
every double bit-exactly, so parse(serialize(x)) == x field for field.
Both formats are read by one parser, `_parse`: the StateFile's JSON
values are first turned into the text a BranchFile holds.
Both writers accept ``timestamp=False`` to suppress the one
non-deterministic header line; everything else is byte-stable across
identical runs.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .contour import FloatArray, VortexContourCoeffs, _grid_fault
from .continuation import Branch, _origin
from .solver import SolveReport

__all__ = [
    "StateFile",
    "BranchRow",
    "BranchFile",
    "save_state",
    "load_state",
    "save_branch",
    "load_branch",
]

STATE_FORMAT = "vstate"
BRANCH_FORMAT = "vstate-branch"
SCHEMA_VERSION = 1
# Each format as (name, kind) in file order, after the format and
# schema_version lines, and in the order of its dataclass's fields; the
# writers and the readers iterate these.  A list is the `modes`
# coefficients of one boundary.
_STATE_FIELDS = (
    ("b", float), ("m", int), ("omega", float), ("modes", int), ("nodes", int),
    ("a1", list), ("a2", list),
    ("residual_max", float), ("iterations", int), ("converged", bool),
)
_BRANCH_FIELDS = (
    ("b", float), ("m", int), ("origin", str), ("omega_step", float),
    ("modes", int), ("nodes", int),
)
_BRANCH_COLUMNS = (
    ("omega", float), ("distance", float), ("iterations", int),
    ("a1_1", float), ("a2_1", float), ("converged", bool),
)
# The header fields both loaders read and check first: b, then the counts
_RANGED_FIELDS = ("b", "m", "modes", "nodes")
# A branch's end: its omega in the first column, this in the last, the
# columns between empty
_TERMINATED = "terminated"


def _fmt(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def _text(value, kind: type) -> str:
    """One value as both formats write it: a float to 17 digits, a bool
    as true or false, an int or a string as is."""
    if kind is float:
        return _fmt(value)
    if kind is bool:
        return "true" if value else "false"
    return str(value)


_INT = re.compile(r"-?(0|[1-9][0-9]*)")
_FLOAT = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")


def _parse(text: str, kind: type, where: str, path: str | Path):
    """text as a finite float or an int in JSON's number grammar, true or
    false, or a string; ValueError naming the file and `where` (the
    field, or the row and column) when it is anything else."""
    if kind is str:
        return text
    if kind is bool:
        if text not in ("true", "false"):
            raise ValueError(f"{path}: {where} is not true or false: {text!r}")
        return text == "true"
    value = None
    if isinstance(text, str) and (_INT if kind is int else _FLOAT).fullmatch(text):
        try:
            value = kind(text)
        except ValueError:  # an int of more digits than Python converts
            pass
    if value is None or not (kind is int or math.isfinite(value)):
        raise ValueError(f"{path}: {where} is not a valid {kind.__name__}: {text!r}")
    return value


def _read_table(path: str | Path, version, found: dict, table) -> dict:
    """The fields of `table`, each parsed from its text in `found` (a
    list of texts for coefficients), after the steps both loaders share;
    ValueError names the file and the first fault: a schema_version that
    is not the int SCHEMA_VERSION (true and 1.0 are not), a missing
    field, or a ranged field (read first) out of range: b outside (0, 1),
    m, modes or nodes below 1, or nodes that break the alias-free rule of
    `contour._grid_fault`."""
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {version!r}")
    for key, _ in table:
        if key not in found:
            raise ValueError(f"{path}: missing field {key!r}")
    kinds = dict(table)
    fields = {key: _parse(found[key], kinds[key], f"field {key!r}", path) for key in _RANGED_FIELDS}
    if not 0.0 < fields["b"] < 1.0:
        raise ValueError(f"{path}: field 'b' must lie in (0, 1), got {fields['b']!r}")
    for key in _RANGED_FIELDS[1:]:
        if fields[key] < 1:
            raise ValueError(f"{path}: field {key!r} must be at least 1, got {fields[key]}")
    if fault := _grid_fault(fields["nodes"], fields["m"], fields["modes"]):
        raise ValueError(f"{path}: field 'nodes': {fault}")
    for key, kind in table:
        text, where = found[key], f"field {key!r}"
        if kind is list:  # after the ranged fields, so modes is valid
            if not isinstance(text, list) or len(text) != fields["modes"]:
                raise ValueError(f"{path}: {where} is not a list of {fields['modes']} coefficients")
            fields[key] = np.array([_parse(entry, float, where, path) for entry in text])
        elif key not in fields:
            fields[key] = _parse(text, kind, where, path)
    return dict(fields, schema_version=version)


def _json_text(value):
    """A JSON value as the text `_parse` reads: an int or a float as its
    repr, which reads back as the same double; a list entry by entry;
    anything else as its JSON text, so a bool reads true or false, and
    null, a string or an object reads as text that no kind accepts."""
    if type(value) in (int, float):
        return repr(value)
    if isinstance(value, list):
        return [_json_text(entry) for entry in value]
    return json.dumps(value)


def _unique(pairs: list) -> dict:
    """A JSON object as a dict; KeyError names a key stated twice."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise KeyError(key)
        fields[key] = value
    return fields


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class StateFile:
    """One solved (or attempted) state, ready for disk."""

    schema_version: int
    b: float
    m: int
    omega: float
    modes: int
    nodes: int
    a1: FloatArray
    a2: FloatArray
    residual_max: float
    iterations: int
    converged: bool

    @classmethod
    def from_report(
        cls, report: SolveReport, omega: float, nodes: int
    ) -> "StateFile":
        coeffs = report.coeffs
        return cls(
            schema_version=SCHEMA_VERSION,
            b=coeffs.b,
            m=coeffs.fold,
            omega=float(omega),
            modes=coeffs.modes,
            nodes=int(nodes),
            a1=np.array(coeffs.a1),
            a2=np.array(coeffs.a2),
            residual_max=report.residual_max,
            iterations=report.iterations,
            converged=report.converged,
        )

    def coefficients(self) -> VortexContourCoeffs:
        return VortexContourCoeffs(
            b=self.b, fold=self.m, modes=self.modes, a1=self.a1, a2=self.a2
        )


def save_state(path: str | Path, state: StateFile, timestamp: bool = True) -> None:
    entries = [f'"format": "{STATE_FORMAT}"', f'"schema_version": {state.schema_version}']
    if timestamp:
        entries.append(f'"created": "{_timestamp()}"')
    for name, kind in _STATE_FIELDS:
        value = getattr(state, name)
        if kind is list:
            body = ",\n".join(f"    {_fmt(v)}" for v in value)
            entries.append(f'"{name}": [\n{body}\n  ]')
        else:
            entries.append(f'"{name}": {_text(value, kind)}')
    document = ",\n".join(f"  {entry}" for entry in entries)
    Path(path).write_text("{\n" + document + "\n}\n")


def load_state(path: str | Path) -> StateFile:
    """Read a StateFile; ValueError names the file and the field."""
    try:
        raw = json.loads(Path(path).read_text(), object_pairs_hook=_unique)
    except KeyError as exc:
        raise ValueError(f"{path}: field {exc.args[0]!r} is stated twice") from None
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(raw, dict) or raw.get("format") != STATE_FORMAT:
        raise ValueError(f"{path}: not a {STATE_FORMAT} document")
    found = {key: _json_text(value) for key, value in raw.items()}
    fields = _read_table(path, raw.get("schema_version"), found, _STATE_FIELDS)
    return StateFile(**fields)


@dataclass(frozen=True)
class BranchRow:
    omega: float
    distance: float
    iterations: int
    a1_1: float
    a2_1: float
    converged: bool


@dataclass(frozen=True)
class BranchFile:
    """A traced branch: header metadata plus one row per state."""

    schema_version: int
    b: float
    m: int
    origin: str
    omega_step: float
    modes: int
    nodes: int
    rows: list[BranchRow]
    terminated_at: float | None

    @classmethod
    def from_branch(
        cls, branch: Branch, omega_step: float, modes: int, nodes: int
    ) -> "BranchFile":
        rows = [
            BranchRow(
                omega=record.omega,
                distance=record.distance,
                iterations=record.report.iterations,
                a1_1=float(record.report.coeffs.a1[0]),
                a2_1=float(record.report.coeffs.a2[0]),
                converged=record.report.converged,
            )
            for record in branch.records
        ]
        return cls(
            schema_version=SCHEMA_VERSION,
            b=branch.b,
            m=branch.m,
            origin=branch.origin,
            omega_step=float(omega_step),
            modes=int(modes),
            nodes=int(nodes),
            rows=rows,
            terminated_at=branch.terminated_at,
        )


def save_branch(path: str | Path, bf: BranchFile, timestamp: bool = True) -> None:
    lines = [f"# format: {BRANCH_FORMAT}", f"# schema_version: {bf.schema_version}"]
    if timestamp:
        lines.append(f"# created: {_timestamp()}")
    lines += [f"# {name}: {_text(getattr(bf, name), kind)}" for name, kind in _BRANCH_FIELDS]
    lines.append(",".join(name for name, _ in _BRANCH_COLUMNS))
    lines += [
        ",".join(_text(getattr(row, name), kind) for name, kind in _BRANCH_COLUMNS)
        for row in bf.rows
    ]
    if bf.terminated_at is not None:
        empty = [""] * (len(_BRANCH_COLUMNS) - 2)
        lines.append(",".join([_fmt(bf.terminated_at), *empty, _TERMINATED]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_branch(path: str | Path) -> BranchFile:
    """Read a BranchFile that `sweep` could have produced: each header
    line exactly `# key: value`, each field stated once, before the
    column row, which is matched as written; the origin matches the
    sign of omega_step, every row (the terminated marker included) moves
    omega strictly in that direction, and nothing follows the marker.
    ValueError names the file and field or row."""
    columns = ",".join(name for name, _ in _BRANCH_COLUMNS)
    header: dict[str, str] = {}
    rows: list[BranchRow] = []
    omegas: list[tuple[float, str]] = []  # (omega, line) of each row
    terminated_at = None
    saw_columns = False
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not a text document: {exc}") from None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            if saw_columns:
                raise ValueError(f"{path}: header line {line!r} follows the column row")
            entry = re.fullmatch(r"# ([^\s:]+): (.*)", line)
            if entry is None:
                raise ValueError(f"{path}: header line {line!r} is not '# key: value'")
            key, value = entry.groups()
            if key in header:
                raise ValueError(f"{path}: field {key!r} is stated twice")
            header[key] = value
            continue
        if not saw_columns:
            if line != columns:
                raise ValueError(f"{path}: unexpected column row {line!r}")
            saw_columns = True
            continue
        if terminated_at is not None:
            raise ValueError(f"{path}: row {line!r} follows the terminated marker")
        fields = line.split(",")
        if len(fields) != len(_BRANCH_COLUMNS):
            raise ValueError(f"{path}: malformed row {line!r}")
        marker = fields[-1] == _TERMINATED
        if marker and any(fields[1:-1]):
            raise ValueError(f"{path}: terminated marker {line!r} has values between its ends")
        values = [
            _parse(field, kind, f"row {line!r} column {name!r}", path)
            for field, (name, kind) in zip(fields[: 1 if marker else None], _BRANCH_COLUMNS)
        ]
        omegas.append((values[0], line))  # the first column is omega
        if marker:
            terminated_at = values[0]
        else:
            rows.append(BranchRow(*values))
    if header.get("format") != BRANCH_FORMAT:
        raise ValueError(f"{path}: not a {BRANCH_FORMAT} document")
    version = _parse(header.get("schema_version", "-1"), int, "field 'schema_version'", path)
    fields = _read_table(path, version, header, _BRANCH_FIELDS)
    omega_step = fields["omega_step"]
    if omega_step == 0.0:
        raise ValueError(f"{path}: field 'omega_step' must be nonzero")
    origin = _origin(omega_step)
    if fields["origin"] != origin:
        raise ValueError(
            f"{path}: field 'origin' must be {origin!r} for omega_step "
            f"{omega_step!r}, got {fields['origin']!r}"
        )
    if not saw_columns:
        raise ValueError(f"{path}: missing the column row {columns!r}")
    for (before, _), (omega, line) in zip(omegas, omegas[1:]):
        if not (omega - before) * omega_step > 0.0:
            raise ValueError(
                f"{path}: row {line!r} does not move omega past {before!r} "
                f"in the direction of omega_step {omega_step!r}"
            )
    return BranchFile(**fields, rows=rows, terminated_at=terminated_at)
