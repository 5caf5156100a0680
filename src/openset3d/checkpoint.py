"""Text checkpoint format for model parameters.

Layout (stable across versions):

    openset3d checkpoint v1
    {json hyperparameter header}
    param <name> <dim0> <dim1> ...
    <row of repr'd float64 values per leading index>

Values are written with Python float repr (shortest round-trip), so a
save/load cycle is bit-exact and identical training runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .data import ConfigError, _read_text
from .encoder import Model

__all__ = ["save_checkpoint", "load_checkpoint"]

MAGIC = "openset3d checkpoint v1"


def _format_rows(arr: np.ndarray):
    mat = arr.reshape(arr.shape[0], -1) if arr.ndim > 1 else arr.reshape(1, -1)
    for row in mat:
        yield " ".join(repr(float(v)) for v in row)


def save_checkpoint(path, model: Model) -> None:
    lines = [MAGIC, json.dumps(model.hyperparams(), sort_keys=True)]
    for name in sorted(model.params):
        arr = model.params[name]
        lines.append("param " + name + " " + " ".join(str(d) for d in arr.shape))
        lines.extend(_format_rows(arr))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _parse_header(path, text) -> dict:
    if len(text) < 2:
        raise ConfigError(f"{path}:2: missing the hyperparameter header")
    try:
        header = json.loads(text[1])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:2: hyperparameter header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError(f"{path}:2: hyperparameter header is not a JSON object")
    for key in Model.HYPERPARAMS:
        if key not in header:
            raise ConfigError(f"{path}:2: hyperparameter header is missing {key!r}")
        value = header[key]
        items = value if isinstance(value, list) else [value]
        if not all(type(v) is int and v >= 1 for v in items):
            raise ConfigError(f"{path}:2: hyperparameter {key!r} must be a positive whole "
                              f"number or a list of them, got {value!r}")
    return header


def _parse_row(path, lineno, name, row, width) -> list[float]:
    fields = row.split()
    if len(fields) != width:
        raise ConfigError(
            f"{path}:{lineno}: parameter {name!r} row has {len(fields)} values, expected {width}"
        )
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise ConfigError(f"{path}:{lineno}: parameter {name!r}: {exc}") from exc


def load_checkpoint(path) -> Model:
    """Parse a checkpoint; every malformed input raises ConfigError naming
    its path and line."""
    text = _read_text(path, "ascii").splitlines()
    if not text or text[0] != MAGIC:
        raise ConfigError(f"{path}: not an openset3d checkpoint")
    header = _parse_header(path, text)
    try:
        model = Model(**{key: header[key] for key in Model.HYPERPARAMS})
    except TypeError as exc:  # a list where a number belongs, or the reverse
        raise ConfigError(f"{path}:2: bad hyperparameter header: {exc}") from exc
    expected = set(model.params)
    i = 2
    seen = set()
    while i < len(text):
        line = text[i]
        if not line.strip():
            i += 1
            continue
        fields = line.split()
        if fields[0] != "param" or len(fields) < 2:
            raise ConfigError(f"{path}:{i + 1}: expected a param header, got {line!r}")
        name = fields[1]
        try:
            shape = tuple(int(v) for v in fields[2:])
        except ValueError as exc:
            raise ConfigError(f"{path}:{i + 1}: bad shape for {name!r}: {exc}") from exc
        if name not in expected:
            raise ConfigError(f"{path}:{i + 1}: unknown parameter {name!r}")
        if shape != model.params[name].shape:
            raise ConfigError(
                f"{path}:{i + 1}: shape {shape} does not match header-derived "
                f"{model.params[name].shape} for {name!r}"
            )
        rows = shape[0] if len(shape) > 1 else 1
        width = math.prod(shape[1:]) if len(shape) > 1 else math.prod(shape)
        block = text[i + 1 : i + 1 + rows]
        if len(block) != rows:
            raise ConfigError(f"{path}:{i + 1}: truncated value block for {name!r}")
        values = np.array(
            [_parse_row(path, i + 2 + k, name, row, width) for k, row in enumerate(block)],
            dtype=np.float64,
        )
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if len(bad):
            raise ConfigError(
                f"{path}:{i + 2 + bad[0]}: parameter {name!r} has a non-finite value"
            )
        model.params[name] = values.reshape(shape)
        seen.add(name)
        i += 1 + rows
    missing = expected - seen
    if missing:
        raise ConfigError(f"{path}: missing parameters {sorted(missing)}")
    return model
