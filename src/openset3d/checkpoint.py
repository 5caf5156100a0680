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

from .data import ConfigError, _float_rows, _read_text
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


def _parse_header(at, text) -> dict:
    if len(text) < 2:
        raise ConfigError(f"{at}: missing the hyperparameter header")
    try:
        header = json.loads(text[1])
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{at}: hyperparameter header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError(f"{at}: hyperparameter header is not a JSON object")
    for key in Model.HYPERPARAMS:
        if key not in header:
            raise ConfigError(f"{at}: hyperparameter header is missing {key!r}")
        value = header[key]
        items = value if isinstance(value, list) else [value]
        if not all(type(v) is int and v >= 1 for v in items):
            raise ConfigError(f"{at}: hyperparameter {key!r} must be a positive whole "
                              f"number or a list of them, got {value!r}")
    return header


def load_checkpoint(path) -> Model:
    """Parse a checkpoint; every malformed input raises ConfigError naming
    its path and, at `<path> line N`, its line."""
    text = _read_text(path, "ascii").splitlines()
    if not text or text[0] != MAGIC:
        raise ConfigError(f"{path}: not an openset3d checkpoint")
    header = _parse_header(f"{path} line 2", text)
    try:
        model = Model(**{key: header[key] for key in Model.HYPERPARAMS})
    except TypeError as exc:  # a list where a number belongs, or the reverse
        raise ConfigError(f"{path} line 2: bad hyperparameter header: {exc}") from exc
    expected = set(model.params)
    i = 2
    seen = set()
    while i < len(text):
        line = text[i]
        if not line.strip():
            i += 1
            continue
        at = f"{path} line {i + 1}"
        fields = line.split()
        if fields[0] != "param" or len(fields) < 2:
            raise ConfigError(f"{at}: expected a param header, got {line!r}")
        name = fields[1]
        try:
            shape = tuple(int(v) for v in fields[2:])
        except ValueError as exc:
            raise ConfigError(f"{at}: bad shape for {name!r}: {exc}") from exc
        if name not in expected:
            raise ConfigError(f"{at}: unknown parameter {name!r}")
        if shape != model.params[name].shape:
            raise ConfigError(
                f"{at}: shape {shape} does not match header-derived "
                f"{model.params[name].shape} for {name!r}"
            )
        rows = shape[0] if len(shape) > 1 else 1
        block = text[i + 1 : i + 1 + rows]
        if len(block) != rows:
            raise ConfigError(f"{at}: truncated value block for {name!r}")
        values = _float_rows(path, enumerate(block, start=i + 2), math.prod(shape) // rows,
                             f"parameter {name!r}")
        model.params[name] = values.reshape(shape)
        seen.add(name)
        i += 1 + rows
    missing = expected - seen
    if missing:
        raise ConfigError(f"{path}: missing parameters {sorted(missing)}")
    return model
