"""On-disk formats: single states (JSON) and branches (CSV).

Floats are serialized with 17 significant digits, which round-trips
every double bit-exactly, so parse(serialize(x)) == x field for field.
Both writers accept ``timestamp=False`` to suppress the one
non-deterministic header line; everything else is byte-stable across
identical runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .contour import FloatArray, VortexContourCoeffs
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
# Fields a reader needs beyond the format and schema_version
_STATE_FIELDS = (
    "b", "m", "omega", "modes", "nodes", "a1", "a2",
    "residual_max", "iterations", "converged",
)
_BRANCH_FIELDS = ("b", "m", "origin", "omega_step", "modes", "nodes")
_BRANCH_COLUMNS = ("omega", "distance", "iterations", "a1_1", "a2_1", "converged")
_ROW_KINDS = (float, float, int, float, float)  # the numeric columns, in order
# The fields both loaders pass to _check_ranges, in its argument order
_RANGED_FIELDS = (("b", float), ("m", int), ("modes", int), ("nodes", int))


def _fmt(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def _require(fields: dict, keys: tuple[str, ...], path: str | Path) -> None:
    """Raise ValueError naming the file and the first of `keys` it lacks."""
    for key in keys:
        if key not in fields:
            raise ValueError(f"{path}: missing field {key!r}")


def _is_number(value) -> bool:
    """A JSON number that is a finite double: not null, a string, a
    boolean, NaN, an infinity or an integer beyond the double range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _typed(raw: dict, key: str, kind: type, path: str | Path):
    """raw[key] as a finite float, an int or a bool; ValueError naming
    the file and the field when it is anything else."""
    value = raw[key]
    if kind is bool:
        valid = isinstance(value, bool)
    elif kind is int:
        valid = isinstance(value, int) and not isinstance(value, bool)
    else:
        valid = _is_number(value)
    if not valid:
        raise ValueError(f"{path}: field {key!r} is not a valid {kind.__name__}: {value!r}")
    return kind(value)


def _coefficients(raw: dict, key: str, modes: int, path: str | Path) -> FloatArray:
    values = raw[key]
    if not isinstance(values, list) or len(values) != modes:
        raise ValueError(f"{path}: field {key!r} is not a list of {modes} coefficients")
    if not all(_is_number(value) for value in values):
        raise ValueError(f"{path}: field {key!r} holds an entry that is not a finite number")
    return np.array(values, dtype=np.float64)


def _parse(text: str, kind: type, where: str, path: str | Path):
    """text as a finite float or an int; ValueError naming the file and
    `where` (the field, or the row and column) when it is anything else."""
    try:
        value = kind(text)
        valid = kind is int or math.isfinite(value)
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(f"{path}: {where} is not a valid {kind.__name__}: {text!r}")
    return value


def _check_ranges(path: str | Path, b: float, m: int, modes: int, nodes: int) -> None:
    """Raise ValueError naming the file and the first field out of range:
    b outside (0, 1), or m, modes or nodes below 1."""
    if not 0.0 < b < 1.0:
        raise ValueError(f"{path}: field 'b' must lie in (0, 1), got {b!r}")
    for key, value in (("m", m), ("modes", modes), ("nodes", nodes)):
        if value < 1:
            raise ValueError(f"{path}: field {key!r} must be at least 1, got {value}")


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


def _state_document(state: StateFile, timestamp: bool) -> str:
    lines = ["{"]
    lines.append(f'  "format": "{STATE_FORMAT}",')
    lines.append(f'  "schema_version": {state.schema_version},')
    if timestamp:
        lines.append(f'  "created": "{_timestamp()}",')
    lines.append(f'  "b": {_fmt(state.b)},')
    lines.append(f'  "m": {state.m},')
    lines.append(f'  "omega": {_fmt(state.omega)},')
    lines.append(f'  "modes": {state.modes},')
    lines.append(f'  "nodes": {state.nodes},')
    for name, values in (("a1", state.a1), ("a2", state.a2)):
        body = ",\n".join(f"    {_fmt(v)}" for v in values)
        lines.append(f'  "{name}": [\n{body}\n  ],')
    lines.append(f'  "residual_max": {_fmt(state.residual_max)},')
    lines.append(f'  "iterations": {state.iterations},')
    lines.append(f'  "converged": {"true" if state.converged else "false"}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_state(path: str | Path, state: StateFile, timestamp: bool = True) -> None:
    Path(path).write_text(_state_document(state, timestamp))


def load_state(path: str | Path) -> StateFile:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ValueError(f"{path}: not a JSON document: {exc}") from None
    if not isinstance(raw, dict) or raw.get("format") != STATE_FORMAT:
        raise ValueError(f"{path}: not a {STATE_FORMAT} document")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {version}")
    _require(raw, _STATE_FIELDS, path)
    b, m, modes, nodes = (_typed(raw, key, kind, path) for key, kind in _RANGED_FIELDS)
    _check_ranges(path, b, m, modes, nodes)
    return StateFile(
        schema_version=version,
        b=b,
        m=m,
        omega=_typed(raw, "omega", float, path),
        modes=modes,
        nodes=nodes,
        a1=_coefficients(raw, "a1", modes, path),
        a2=_coefficients(raw, "a2", modes, path),
        residual_max=_typed(raw, "residual_max", float, path),
        iterations=_typed(raw, "iterations", int, path),
        converged=_typed(raw, "converged", bool, path),
    )


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
    lines = [
        f"# format: {BRANCH_FORMAT}",
        f"# schema_version: {bf.schema_version}",
    ]
    if timestamp:
        lines.append(f"# created: {_timestamp()}")
    lines += [
        f"# b: {_fmt(bf.b)}",
        f"# m: {bf.m}",
        f"# origin: {bf.origin}",
        f"# omega_step: {_fmt(bf.omega_step)}",
        f"# modes: {bf.modes}",
        f"# nodes: {bf.nodes}",
        ",".join(_BRANCH_COLUMNS),
    ]
    for row in bf.rows:
        lines.append(
            ",".join(
                (
                    _fmt(row.omega),
                    _fmt(row.distance),
                    str(row.iterations),
                    _fmt(row.a1_1),
                    _fmt(row.a2_1),
                    "true" if row.converged else "false",
                )
            )
        )
    if bf.terminated_at is not None:
        lines.append(f"{_fmt(bf.terminated_at)},,,,,terminated")
    Path(path).write_text("\n".join(lines) + "\n")


def load_branch(path: str | Path) -> BranchFile:
    """Read a BranchFile that `sweep` could have produced: the origin
    matches the sign of omega_step, every row (the terminated marker
    included) moves omega strictly in that direction, and nothing
    follows the marker.  ValueError names the file and field or row."""
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
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            continue
        if not saw_columns:
            if line.strip() != ",".join(_BRANCH_COLUMNS):
                raise ValueError(f"{path}: unexpected column row {line!r}")
            saw_columns = True
            continue
        if terminated_at is not None:
            raise ValueError(f"{path}: row {line!r} follows the terminated marker")
        fields = line.split(",")
        if len(fields) != 6:
            raise ValueError(f"{path}: malformed row {line!r}")
        where = f"row {line!r} column"
        if fields[5] == "terminated":
            terminated_at = _parse(fields[0], float, f"{where} 'omega'", path)
            omegas.append((terminated_at, line))
            continue
        omega, distance, iterations, a1_1, a2_1 = (
            _parse(text, kind, f"{where} {name!r}", path)
            for text, kind, name in zip(fields, _ROW_KINDS, _BRANCH_COLUMNS)
        )
        if fields[5] not in ("true", "false"):
            raise ValueError(
                f"{path}: {where} 'converged' is not true or false: {fields[5]!r}"
            )
        omegas.append((omega, line))
        rows.append(
            BranchRow(
                omega=omega,
                distance=distance,
                iterations=iterations,
                a1_1=a1_1,
                a2_1=a2_1,
                converged=fields[5] == "true",
            )
        )
    if header.get("format") != BRANCH_FORMAT:
        raise ValueError(f"{path}: not a {BRANCH_FORMAT} document")
    version = _parse(header.get("schema_version", "-1"), int, "field 'schema_version'", path)
    if version != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema_version {version}")
    _require(header, _BRANCH_FIELDS, path)
    b, m, modes, nodes = (
        _parse(header[key], kind, f"field {key!r}", path) for key, kind in _RANGED_FIELDS
    )
    _check_ranges(path, b, m, modes, nodes)
    omega_step = _parse(header["omega_step"], float, "field 'omega_step'", path)
    if omega_step == 0.0:
        raise ValueError(f"{path}: field 'omega_step' must be nonzero")
    origin = _origin(omega_step)
    if header["origin"] != origin:
        raise ValueError(
            f"{path}: field 'origin' must be {origin!r} for omega_step "
            f"{omega_step!r}, got {header['origin']!r}"
        )
    for (before, _), (omega, line) in zip(omegas, omegas[1:]):
        if not (omega - before) * omega_step > 0.0:
            raise ValueError(
                f"{path}: row {line!r} does not move omega past {before!r} "
                f"in the direction of omega_step {omega_step!r}"
            )
    return BranchFile(
        schema_version=version,
        b=b,
        m=m,
        origin=origin,
        omega_step=omega_step,
        modes=modes,
        nodes=nodes,
        rows=rows,
        terminated_at=terminated_at,
    )
