"""Toy benchmark generation, plain-text point-cloud IO, and the saliency cache.

Datasets regenerate byte-identically from (manifest, seed): every instance
draws from its own seed stream keyed by (manifest seed, class index,
instance index), and cloud files are written with shortest round-trip float
formatting.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .shapes import SHAPE_NAMES, random_instance

__all__ = [
    "ConfigError",
    "ClassSpec",
    "Manifest",
    "CloudRecord",
    "ToyDataset",
    "default_manifest",
    "tiny_manifest",
    "parse_manifest",
    "format_manifest",
    "load_manifest",
    "generate_dataset",
    "write_dataset",
    "load_dataset",
    "read_cloud",
    "write_cloud",
    "SaliencyCache",
    "CacheMissError",
    "StaleCacheError",
]


class ConfigError(ValueError):
    """Invalid manifest or run configuration."""


class CacheMissError(KeyError):
    """Requested object id has no cached saliency scores."""


class StaleCacheError(RuntimeError):
    """Cache was built from a different model checkpoint or dataset."""


@dataclass
class ClassSpec:
    name: str
    shape: str
    params: dict = field(default_factory=dict)

    def validate(self):
        if self.shape not in SHAPE_NAMES:
            raise ConfigError(
                f"class {self.name!r} uses unknown shape {self.shape!r}; "
                f"library: {', '.join(SHAPE_NAMES)}"
            )


@dataclass
class Manifest:
    known: list[ClassSpec]
    unknown: list[ClassSpec]
    instances_per_class: int = 200
    points_per_cloud: int = 256
    seed: int = 7
    noise: float = 0.02
    scale_jitter: float = 0.1  # per-axis anisotropic scaling range
    tilt: float = 0.15  # max random tilt angle (radians)

    def validate(self):
        if len(self.known) < 2 or len(self.unknown) < 1:
            raise ConfigError("need at least 2 known and 1 unknown classes")
        names = [c.name for c in self.known + self.unknown]
        if len(set(names)) != len(names):
            raise ConfigError("class names must be unique across known and unknown")
        # one instance per class would leave the train split empty
        for key, value, low in (("instances_per_class", self.instances_per_class, 2),
                                ("points", self.points_per_cloud, 4), ("seed", self.seed, 0),
                                ("noise", self.noise, 0), ("scale_jitter", self.scale_jitter, 0),
                                ("tilt", self.tilt, 0)):
            if not (math.isfinite(value) and value >= low):
                raise ConfigError(f"manifest {key} must be finite and >= {low}, got {value}")
        for spec in self.known + self.unknown:
            spec.validate()

    @property
    def class_specs(self) -> list[ClassSpec]:
        return list(self.known) + list(self.unknown)


def default_manifest(seed=7, instances_per_class=200, points_per_cloud=256) -> Manifest:
    """8 known / 4 unknown classes.

    Unknowns are deliberately composed of local structures the knowns carry:
    a capsule is a cylinder barrel with spherical caps, an L-bracket joins
    two boxes, a tube shares the cylinder's wall, and a frustum is a cone
    with the apex sliced off.
    """
    known = [ClassSpec(n, n) for n in (
        "sphere", "cube", "cylinder", "cone", "torus", "pyramid", "ellipsoid",
    )] + [ClassSpec("disc", "ellipsoid", {"ax": 1.0, "ay": 1.0, "az": 0.22})]
    unknown = [
        ClassSpec("tube", "tube"),
        ClassSpec("lbracket", "lbracket"),
        ClassSpec("capsule", "capsule"),
        ClassSpec("cone_frustum", "cone", {"truncate": 0.55}),
    ]
    return Manifest(known, unknown, instances_per_class, points_per_cloud, seed)


def tiny_manifest(seed=7, instances_per_class=24, points_per_cloud=64) -> Manifest:
    """Two very separable known classes plus one unknown; for fast smoke runs."""
    return Manifest(
        known=[ClassSpec("sphere", "sphere"), ClassSpec("cube", "cube")],
        unknown=[ClassSpec("torus", "torus")],
        instances_per_class=instances_per_class,
        points_per_cloud=points_per_cloud,
        seed=seed,
    )


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


_MANIFEST_KEYS = ("seed", "points", "instances_per_class", "noise", "scale_jitter",
                  "tilt", "known", "unknown")


def parse_manifest(text: str) -> Manifest:
    """Parse the flat key-value manifest format (see format_manifest)."""
    fields: dict = {}
    class_defs: dict[str, ClassSpec] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"manifest line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("class "):
            name = key[len("class "):].strip()
            tokens = value.split()
            if not tokens:
                raise ConfigError(f"manifest line {lineno}: empty class definition")
            params = {}
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise ConfigError(
                        f"manifest line {lineno}: class params must be key=value, got {tok!r}"
                    )
                pk, pv = tok.split("=", 1)
                params[pk] = _parse_value(pv)
            class_defs[name] = ClassSpec(name, tokens[0], params)
        elif key in _MANIFEST_KEYS:
            fields[key] = value
        else:
            raise ConfigError(f"manifest line {lineno}: unknown key {key!r}")

    def lookup(name):
        return class_defs.get(name, ClassSpec(name, name))

    try:
        known = [lookup(n) for n in fields.get("known", "").split()]
        unknown = [lookup(n) for n in fields.get("unknown", "").split()]
        manifest = Manifest(
            known=known,
            unknown=unknown,
            instances_per_class=int(fields.get("instances_per_class", 200)),
            points_per_cloud=int(fields.get("points", 256)),
            seed=int(fields.get("seed", 7)),
            noise=float(fields.get("noise", 0.02)),
            scale_jitter=float(fields.get("scale_jitter", 0.1)),
            tilt=float(fields.get("tilt", 0.15)),
        )
    except ValueError as exc:
        raise ConfigError(f"manifest: {exc}") from exc
    manifest.validate()
    return manifest


def format_manifest(manifest: Manifest) -> str:
    lines = [
        "# openset3d toy dataset manifest",
        f"seed = {manifest.seed}",
        f"points = {manifest.points_per_cloud}",
        f"instances_per_class = {manifest.instances_per_class}",
        f"noise = {manifest.noise!r}",
        f"scale_jitter = {manifest.scale_jitter!r}",
        f"tilt = {manifest.tilt!r}",
        "known = " + " ".join(c.name for c in manifest.known),
        "unknown = " + " ".join(c.name for c in manifest.unknown),
    ]
    for spec in manifest.class_specs:
        if spec.shape != spec.name or spec.params:
            params = " ".join(f"{k}={v!r}" for k, v in sorted(spec.params.items()))
            lines.append(f"class {spec.name} = {spec.shape} {params}".rstrip())
    return "\n".join(lines) + "\n"


def load_manifest(path) -> Manifest:
    return parse_manifest(Path(path).read_text())


@dataclass
class CloudRecord:
    object_id: str
    points: np.ndarray  # (N, 3), normalized
    class_name: str
    class_index: int  # index into known classes, -1 for unknown
    known: bool
    split: str  # train | val | test


@dataclass
class ToyDataset:
    manifest: Manifest
    records: list[CloudRecord]

    @property
    def known_classes(self) -> list[str]:
        return [c.name for c in self.manifest.known]

    @property
    def unknown_classes(self) -> list[str]:
        return [c.name for c in self.manifest.unknown]

    def subset(self, split: str, known: bool) -> list[CloudRecord]:
        return [r for r in self.records if r.split == split and r.known == known]

    @property
    def train_known(self):
        return self.subset("train", True)

    @property
    def val_known(self):
        return self.subset("val", True)

    @property
    def test_known(self):
        return self.subset("test", True)

    @property
    def test_unknown(self):
        return self.subset("test", False)


def _split_of(index: int, total: int) -> str:
    # 70/10/20 per class, deterministic in the instance index
    if index < int(0.7 * total):
        return "train"
    if index < int(0.8 * total):
        return "val"
    return "test"


def generate_dataset(manifest: Manifest) -> ToyDataset:
    """Generate every instance of every class, fully seeded per instance."""
    manifest.validate()
    records = []
    known_names = [c.name for c in manifest.known]
    for class_pos, spec in enumerate(manifest.class_specs):
        known = spec.name in known_names
        class_index = known_names.index(spec.name) if known else -1
        for inst in range(manifest.instances_per_class):
            rng = np.random.default_rng(
                np.random.SeedSequence([manifest.seed, class_pos, inst])
            )
            points = random_instance(
                spec.shape, manifest.points_per_cloud, rng,
                noise=manifest.noise, scale_jitter=manifest.scale_jitter,
                tilt=manifest.tilt, **spec.params,
            )
            records.append(CloudRecord(
                object_id=f"{spec.name}/{spec.name}_{inst:04d}",
                points=points,
                class_name=spec.name,
                class_index=class_index,
                known=known,
                split=_split_of(inst, manifest.instances_per_class),
            ))
    return ToyDataset(manifest, records)


# ----------------------------------------------------------------------
# plain-text cloud files


def write_cloud(path, points: np.ndarray, class_name: str | None = None) -> None:
    """One 'x y z' triple per line, optional '# class <name>' header."""
    pts = np.asarray(points, dtype=np.float64)
    lines = []
    if class_name is not None:
        lines.append(f"# class {class_name}")
    for row in pts:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_cloud(path) -> tuple[np.ndarray, str | None]:
    """Returns (points, class name or None).

    A malformed line or a non-finite coordinate is rejected with its number.
    """
    class_name = None
    rows, linenos = [], []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "class":
                class_name = fields[1]
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 coordinates, got {raw!r}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        linenos.append(lineno)
    if not rows:
        raise ValueError(f"{path}: no points found")
    points = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: line {linenos[bad[0]]}: non-finite coordinate")
    return points, class_name


def write_dataset(dataset: ToyDataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.txt").write_text(format_manifest(dataset.manifest))
    for record in dataset.records:
        path = out / (record.object_id + ".txt")
        path.parent.mkdir(exist_ok=True)
        write_cloud(path, record.points, record.class_name)


def load_dataset(dataset_dir) -> ToyDataset:
    """Load a generated dataset; splits re-derive from the stored manifest."""
    root = Path(dataset_dir)
    manifest = load_manifest(root / "manifest.txt")
    known_names = [c.name for c in manifest.known]
    records = []
    for spec in manifest.class_specs:
        known = spec.name in known_names
        class_index = known_names.index(spec.name) if known else -1
        class_dir = root / spec.name
        files = sorted(class_dir.glob(f"{spec.name}_*.txt"))
        if len(files) != manifest.instances_per_class:
            raise ConfigError(
                f"{class_dir}: expected {manifest.instances_per_class} clouds, found {len(files)}"
            )
        for inst, path in enumerate(files):
            points, _ = read_cloud(path)
            records.append(CloudRecord(
                object_id=f"{spec.name}/{path.stem}",
                points=points,
                class_name=spec.name,
                class_index=class_index,
                known=known,
                split=_split_of(inst, manifest.instances_per_class),
            ))
    return ToyDataset(manifest, records)


# ----------------------------------------------------------------------
# saliency cache

_CACHE_MAGIC = b"OS3DSAL1\n"


class SaliencyCache:
    """Per-dataset store of raw saliency scores keyed by object id.

    The cache remembers the checksum of the model that produced the scores;
    check() refuses any other model, so stale saliency can never silently
    steer training.
    """

    def __init__(self, model_checksum: str):
        self.model_checksum = model_checksum
        self._scores: dict[str, np.ndarray] = {}

    def __len__(self):
        return len(self._scores)

    def __contains__(self, object_id):
        return object_id in self._scores

    def check(self, model_checksum: str, records) -> None:
        """Raise StaleCacheError unless the scores came from this model and
        hold one score per point of every record (the training split)."""
        if model_checksum != self.model_checksum:
            raise StaleCacheError(
                f"saliency cache was built from model {self.model_checksum[:12]}..., "
                f"not {model_checksum[:12]}...; rebuild it from this model (retrain "
                "or rerun the saliency command)"
            )
        for rec in records:
            scores = self._scores.get(rec.object_id)
            if scores is None or len(scores) != len(rec.points):
                held = "no scores" if scores is None else f"{len(scores)} scores"
                raise StaleCacheError(
                    f"saliency cache holds {held} for training object {rec.object_id!r}, "
                    f"whose cloud has {len(rec.points)} points; rebuild it for this "
                    "dataset (rerun the saliency command)"
                )

    def put(self, object_id: str, scores: np.ndarray) -> None:
        self._scores[object_id] = np.asarray(scores, dtype=np.float64).copy()

    def get(self, object_id: str) -> np.ndarray:
        if object_id not in self._scores:
            raise CacheMissError(object_id)
        return self._scores[object_id]

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            header = {"model_checksum": self.model_checksum}
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for object_id in sorted(self._scores):
                scores = self._scores[object_id]
                meta = {"id": object_id, "n": int(scores.size)}
                fh.write(json.dumps(meta, sort_keys=True).encode() + b"\n")
                fh.write(scores.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "SaliencyCache":
        """Read a cache file; malformed input raises ValueError naming the
        path and the header or record (1-based), plus the record's id."""
        with open(path, "rb") as fh:
            magic = fh.read(len(_CACHE_MAGIC))
            if magic != _CACHE_MAGIC:
                raise ValueError(f"{path}: not a saliency cache file")
            size = os.fstat(fh.fileno()).st_size
            header = _json_line(fh.readline(), f"{path}: header")
            checksum = header.get("model_checksum") if isinstance(header, dict) else None
            if not isinstance(checksum, str):
                raise ValueError(f"{path}: header: expected an object with a string "
                                 "model_checksum")
            cache = cls(checksum)  # other header keys are ignored
            record = 0
            while True:
                line = fh.readline()
                if not line:
                    break
                record += 1
                where = f"{path}: record {record}"
                meta = _json_line(line, where)
                object_id = meta.get("id") if isinstance(meta, dict) else None
                if not isinstance(object_id, str):
                    raise ValueError(f"{where}: expected an object with a string id")
                where = f"{where} ({object_id!r})"
                n = meta.get("n")
                if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                    raise ValueError(f"{where}: n must be a nonnegative integer, got {n!r}")
                if object_id in cache:
                    raise ValueError(f"{where}: duplicate id")
                if 8 * n > size - fh.tell():  # checked before a huge n allocates
                    raise ValueError(f"{where}: truncated record")
                scores = np.frombuffer(fh.read(8 * n), dtype="<f8").copy()
                if not np.isfinite(scores).all():
                    raise ValueError(f"{where}: non-finite score")
                cache._scores[object_id] = scores
        return cache


def _json_line(line: bytes, where: str):
    try:
        return json.loads(line)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ValueError(f"{where}: {exc}") from exc
