"""Toy benchmark generation, plain-text point-cloud IO, and the array file
that holds checkpoints.

Datasets regenerate byte-identically from (manifest, seed): every instance
draws from its own seed stream keyed by (manifest seed, class index,
instance index), and cloud files are written with shortest round-trip float
formatting.

An array file (`save_arrays`, `load_arrays`) holds a magic line naming its
kind, the sha256 of every byte after that line, one JSON header line
`{"arrays": [[name, shape], ...], "meta": ...}`, and each array's raw
little-endian float64 values in header order: a round trip is bit-exact,
and a changed or missing byte is detected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .shapes import SHAPE_NAMES, SHAPE_PARAMS, random_instance

__all__ = [
    "ConfigError",
    "ClassSpec",
    "Manifest",
    "CloudRecord",
    "ToyDataset",
    "read_settings",
    "coerce",
    "coerce_at",
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
    "save_arrays",
    "load_arrays",
]


class ConfigError(ValueError):
    """Invalid input: a manifest, a run configuration, or a malformed cloud or
    checkpoint file."""


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
        takes = SHAPE_PARAMS[self.shape]
        for key in self.params:
            if key not in takes:
                raise ConfigError(f"class {self.name!r}: shape {self.shape!r} has no parameter "
                                  f"{key!r}; it takes {', '.join(takes)}")


@dataclass
class Manifest:
    known: list[ClassSpec]
    unknown: list[ClassSpec]
    # the scalar fields, in manifest file order
    seed: int = 7
    points_per_cloud: int = 256
    instances_per_class: int = 200
    noise: float = 0.02
    scale_jitter: float = 0.1  # per-axis anisotropic scaling range
    tilt: float = 0.15  # max random tilt angle (radians)

    def validate(self):
        if len(self.known) < 2 or len(self.unknown) < 1:
            raise ConfigError("need at least 2 known and 1 unknown classes")
        names = [c.name for c in self.known + self.unknown]
        if len(set(names)) != len(names):
            raise ConfigError("class names must be unique across known and unknown")
        for key, f in _SCALAR_KEYS.items():
            value, low = getattr(self, f.name), _LOWER_BOUNDS.get(key, 0)
            if not (math.isfinite(value) and value >= low):
                raise ConfigError(f"manifest {key} must be finite and >= {low}, got {value}")
        for spec in self.known + self.unknown:
            spec.validate()

    @property
    def class_specs(self) -> list[ClassSpec]:
        return list(self.known) + list(self.unknown)


def default_manifest(**fields) -> Manifest:
    """8 known / 4 unknown classes; `fields` set Manifest's scalar fields.

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
    return Manifest(known, unknown, **fields)


def tiny_manifest(instances_per_class=24, points_per_cloud=64, **fields) -> Manifest:
    """Two very separable known classes plus one unknown; for fast smoke runs."""
    return Manifest(
        known=[ClassSpec("sphere", "sphere"), ClassSpec("cube", "cube")],
        unknown=[ClassSpec("torus", "torus")],
        instances_per_class=instances_per_class,
        points_per_cloud=points_per_cloud,
        **fields,
    )


def read_settings(text: str, where: str):
    """Yield (line number, key, value) for each `key = value` line of a
    manifest or a run config; '#' comments and blank lines are skipped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{where} line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def coerce(text: str, like):
    """`text` parsed as a value of the type of `like`: bool, int, float, str,
    or a tuple of `like[0]`'s type (float when empty), comma or space separated."""
    if isinstance(like, bool):
        lowered = text.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"expected a boolean, got {text!r}")
    if isinstance(like, tuple):
        element = like[0] if like else 0.0
        return tuple(coerce(v, element) for v in text.replace(",", " ").split())
    return type(like)(text)


def coerce_at(at: str, key: str, text: str, like):
    """coerce(text, like) for `key`; a failure is a ConfigError naming `at` and the key."""
    try:
        return coerce(text, like)
    except ValueError as exc:
        raise ConfigError(f"{at}: bad value for {key}: {exc}") from exc


# manifest key -> the Manifest field it sets, for every field with a default,
# in file order
_SCALAR_KEYS = {("points" if f.name == "points_per_cloud" else f.name): f
                for f in dataclasses.fields(Manifest) if f.default is not dataclasses.MISSING}
# one instance per class would leave the train split empty; the rest are >= 0
_LOWER_BOUNDS = {"instances_per_class": 2, "points": 4}


def parse_manifest(text: str, where: str = "manifest") -> Manifest:
    """Parse the flat key-value manifest format (see format_manifest);
    `where` names the text in errors."""
    scalars: dict = {}
    class_names = {"known": [], "unknown": []}
    class_defs: dict[str, ClassSpec] = {}
    for lineno, key, value in read_settings(text, where):
        at = f"{where} line {lineno}"
        if key.startswith("class "):
            name = key[len("class "):].strip()
            tokens = value.split()
            if not tokens:
                raise ConfigError(f"{at}: empty class definition")
            params = {}
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise ConfigError(f"{at}: class params must be key=value, got {tok!r}")
                pk, pv = tok.split("=", 1)
                params[pk] = pv
            spec = ClassSpec(name, tokens[0], params)
            try:
                spec.validate()  # the shape and the parameter names, before any value is read
            except ConfigError as exc:
                raise ConfigError(f"{at}: {exc}") from exc
            defaults = SHAPE_PARAMS[spec.shape]  # each value takes its default's type
            spec.params = {pk: coerce_at(at, pk, pv, defaults[pk]) for pk, pv in params.items()}
            class_defs[name] = spec
        elif key in class_names:
            class_names[key] = value.split()
        elif key in _SCALAR_KEYS:
            target = _SCALAR_KEYS[key]
            scalars[target.name] = coerce_at(at, key, value, target.default)
        else:
            raise ConfigError(f"{at}: unknown key {key!r}")

    known, unknown = ([class_defs.get(n, ClassSpec(n, n)) for n in class_names[side]]
                      for side in ("known", "unknown"))
    manifest = Manifest(known, unknown, **scalars)
    manifest.validate()
    return manifest


def format_manifest(manifest: Manifest) -> str:
    lines = ["# openset3d toy dataset manifest"]
    lines += [f"{key} = {getattr(manifest, f.name)}" for key, f in _SCALAR_KEYS.items()]
    lines += ["known = " + " ".join(c.name for c in manifest.known),
              "unknown = " + " ".join(c.name for c in manifest.unknown)]
    for spec in manifest.class_specs:
        if spec.shape != spec.name or spec.params:
            params = " ".join(f"{k}={v!r}" for k, v in sorted(spec.params.items()))
            lines.append(f"class {spec.name} = {spec.shape} {params}".rstrip())
    return "\n".join(lines) + "\n"


def load_manifest(path) -> Manifest:
    return parse_manifest(_read_text(path), str(path))


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


def _build_dataset(manifest: Manifest, clouds) -> ToyDataset:
    """One record per cloud; `clouds(class_pos, spec)` yields each instance's
    (file stem, points) in instance order."""
    known_names = [c.name for c in manifest.known]
    records = []
    for class_pos, spec in enumerate(manifest.class_specs):
        known = spec.name in known_names
        class_index = known_names.index(spec.name) if known else -1
        for inst, (stem, points) in enumerate(clouds(class_pos, spec)):
            records.append(CloudRecord(
                object_id=f"{spec.name}/{stem}",
                points=points,
                class_name=spec.name,
                class_index=class_index,
                known=known,
                split=_split_of(inst, manifest.instances_per_class),
            ))
    return ToyDataset(manifest, records)


def generate_dataset(manifest: Manifest) -> ToyDataset:
    """Generate every instance of every class, fully seeded per instance."""
    manifest.validate()

    def clouds(class_pos, spec):
        for inst in range(manifest.instances_per_class):
            rng = np.random.default_rng(
                np.random.SeedSequence([manifest.seed, class_pos, inst])
            )
            yield f"{spec.name}_{inst:04d}", random_instance(
                spec.shape, manifest.points_per_cloud, rng,
                noise=manifest.noise, scale_jitter=manifest.scale_jitter,
                tilt=manifest.tilt, **spec.params,
            )

    return _build_dataset(manifest, clouds)


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


def _read_text(path) -> str:
    """The text of an input file; undecodable bytes raise ConfigError naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_cloud(path) -> tuple[np.ndarray, str | None]:
    """Returns (points, class name or None).

    A row that is not three numbers, and a non-finite coordinate, are rejected
    at `<path> line N`; every malformed file raises ConfigError naming it.
    """
    text = _read_text(path)
    if text and not text.endswith("\n"):
        raise ConfigError(f"{path}: truncated: no final newline")
    class_name = None
    rows, linenos = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            fields = line[1:].split()
            if len(fields) == 2 and fields[0] == "class":
                class_name = fields[1]
            continue
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise ConfigError(f"{path} line {lineno}: point row has {len(fields)} values, "
                              "expected 3")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise ConfigError(f"{path} line {lineno}: point: {exc}") from exc
        linenos.append(lineno)
    if not rows:
        raise ConfigError(f"{path}: no points found")
    points = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    if len(bad):
        raise ConfigError(f"{path} line {linenos[bad[0]]}: point has a non-finite value")
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
    """Load a generated dataset; splits re-derive from the stored manifest,
    and every cloud must hold the manifest's point count."""
    root = Path(dataset_dir)
    if not (root / "manifest.txt").is_file():
        raise ConfigError(f"{root}: no manifest.txt; is this a generated dataset directory?")
    manifest = load_manifest(root / "manifest.txt")

    def clouds(_, spec):
        class_dir = root / spec.name
        files = sorted(class_dir.glob(f"{spec.name}_*.txt"))
        if len(files) != manifest.instances_per_class:
            raise ConfigError(
                f"{class_dir}: expected {manifest.instances_per_class} clouds, found {len(files)}"
            )
        for path in files:
            points = read_cloud(path)[0]
            if len(points) != manifest.points_per_cloud:
                raise ConfigError(f"{path}: expected {manifest.points_per_cloud} points "
                                  f"(the manifest's points), found {len(points)}")
            yield path.stem, points

    return _build_dataset(manifest, clouds)


# ----------------------------------------------------------------------
# array files: checkpoints


def save_arrays(path, kind: str, meta, arrays: dict[str, np.ndarray]) -> None:
    """Write `arrays` (name -> float64 array, in the order given) and the JSON
    value `meta` as an array file of `kind` (see the module docstring)."""
    header = {"arrays": [[name, list(arr.shape)] for name, arr in arrays.items()], "meta": meta}
    body = b"".join([json.dumps(header, sort_keys=True).encode(), b"\n",
                     *(np.asarray(arr, dtype="<f8").tobytes() for arr in arrays.values())])
    digest = hashlib.sha256(body).hexdigest()
    Path(path).write_bytes(f"openset3d {kind} v2\n{digest}\n".encode() + body)


def load_arrays(path, kind: str) -> tuple[object, dict[str, np.ndarray]]:
    """(meta, arrays) of an array file of `kind`. Another kind, a wrong digest,
    a malformed header, a duplicate name, a payload of another length than
    the shapes take, and a non-finite value each raise ConfigError naming the
    file; checking `meta` is the caller's job."""
    data = Path(path).read_bytes()
    magic = f"openset3d {kind} v2\n".encode()
    if not data.startswith(magic):
        raise ConfigError(f"{path}: not an openset3d {kind} file")
    digest, _, body = data[len(magic):].partition(b"\n")
    if digest != hashlib.sha256(body).hexdigest().encode():
        raise ConfigError(f"{path}: damaged or truncated: its sha256 does not match its contents")
    head, _, payload = body.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"{path}: header is not JSON: {exc}") from exc
    if not (isinstance(header, dict) and header.keys() == {"arrays", "meta"}
            and isinstance(header["arrays"], list)):
        raise ConfigError(f'{path}: header: expected {{"arrays": [[name, shape], ...], '
                          f'"meta": ...}}')
    shapes = {}
    for entry in header["arrays"]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise ConfigError(f"{path}: expected a [name, shape] array entry, got {entry!r}")
        name, shape = entry
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ConfigError(f"{path}: bad shape for {name!r}: {shape!r}")
        if name in shapes:
            raise ConfigError(f"{path}: duplicate array name {name!r}")
        shapes[name] = shape
    need = 8 * sum(math.prod(shape) for shape in shapes.values())
    if need != len(payload):  # checked before a huge shape allocates
        raise ConfigError(f"{path}: the payload holds {len(payload)} bytes, but the header's "
                          f"shapes take {need}")
    arrays, offset = {}, 0
    for name, shape in shapes.items():
        values = np.frombuffer(payload, "<f8", math.prod(shape), offset)
        if not np.isfinite(values).all():
            raise ConfigError(f"{path}: array {name!r} has a non-finite value")
        arrays[name] = values.astype(np.float64).reshape(shape)
        offset += values.nbytes
    return header["meta"], arrays
