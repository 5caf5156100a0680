"""Checkpoint files: an array file of kind "checkpoint" (see `data.save_arrays`)
whose meta is the hyperparameter header (`Model.HYPERPARAMS`) and whose arrays
are the parameters, sorted by name, so identical runs write identical bytes.
"""

from __future__ import annotations

from .data import ConfigError, load_arrays, save_arrays
from .encoder import Model

__all__ = ["save_checkpoint", "load_checkpoint"]


def save_checkpoint(path, model: Model) -> None:
    save_arrays(path, "checkpoint", model.hyperparams(),
                {name: model.params[name] for name in sorted(model.params)})


def _check_hyperparams(path, header) -> None:
    if not isinstance(header, dict):
        raise ConfigError(f"{path}: hyperparameter header is not a JSON object")
    for key in Model.HYPERPARAMS:
        if key not in header:
            raise ConfigError(f"{path}: hyperparameter header is missing {key!r}")
        value = header[key]
        items = value if isinstance(value, list) else [value]
        if not all(type(v) is int and v >= 1 for v in items):
            raise ConfigError(f"{path}: hyperparameter {key!r} must be a positive whole "
                              f"number or a list of them, got {value!r}")


def load_checkpoint(path) -> Model:
    """Read a checkpoint (see data.load_arrays); a bad hyperparameter header
    and a parameter the header's architecture lacks, misses or shapes
    otherwise raise ConfigError naming the path."""
    header, arrays = load_arrays(path, "checkpoint")
    _check_hyperparams(path, header)
    try:
        model = Model(**{key: header[key] for key in Model.HYPERPARAMS})
    except TypeError as exc:  # a list where a number belongs, or the reverse
        raise ConfigError(f"{path}: bad hyperparameter header: {exc}") from exc
    for name, values in arrays.items():
        if name not in model.params:
            raise ConfigError(f"{path}: unknown parameter {name!r}")
        if values.shape != model.params[name].shape:
            raise ConfigError(
                f"{path}: shape {values.shape} does not match header-derived "
                f"{model.params[name].shape} for {name!r}"
            )
    missing = model.params.keys() - arrays.keys()
    if missing:
        raise ConfigError(f"{path}: missing parameters {sorted(missing)}")
    model.params.update(arrays)
    return model
