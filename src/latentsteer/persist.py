"""On-disk formats: JSON bundle/world files, ASCII PGM images.

JSON payloads are built in a fixed key order and serialized with sorted
keys, so identical objects always produce identical bytes and
save -> load -> save round-trips bit-exactly (floats use Python's
shortest round-trip repr via the json module).

`load_bundle` and `load_world` read their file on every call, but parse and
check it only once per process: each memoizes the object it built on the
path string together with the file's exact bytes. A file rewritten at the
same path has new bytes and is parsed again; the same bytes under another
path string get their own entry, so every error message names the path it
was given. Errors are not memoized, so a malformed file raises the same
FormatError on every load. Callers share a memoized object, which is why
every loaded object is immutable: frozen dataclasses, read-only arrays and
read-only mappings. A bundle's stacked map is built once, when it is parsed.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import FormatError
from .models import (
    BINARY,
    CONTINUOUS,
    MULTICLASS,
    AttributeSchema,
    BundleProvenance,
    LatentModel,
    ModelBundle,
    TrainingConfig,
    TrainingMeta,
)
from .world import SyntheticWorld, SyntheticImage, WorldConfig, direction_slots

__all__ = [
    "BUNDLE_FORMAT_VERSION",
    "WORLD_FORMAT_VERSION",
    "save_bundle",
    "load_bundle",
    "bundle_to_payload",
    "payload_to_bundle",
    "save_world",
    "load_world",
    "world_to_payload",
    "payload_to_world",
    "parse_world_config",
    "pgm_text",
    "write_pgm",
    "json_bytes",
]

BUNDLE_FORMAT_VERSION = 1
WORLD_FORMAT_VERSION = 1


def json_bytes(payload: dict) -> bytes:
    """Canonical JSON encoding: sorted keys, 2-space indent, trailing newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


# loaded worlds and bundles memoized per loader; a serving process holds one of each
_MEMO_SIZE = 8


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise FormatError(f"file not found: {path}") from None


def _decode(data: bytes, where: str) -> dict:
    # decoded as Path.read_text decodes a file: UTF-8 with universal newlines
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{where}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{where}: top-level JSON value must be an object")
    return payload


def _read_json(path) -> dict:
    return _decode(_read_bytes(path), str(path))


_REQUIRED = object()
_KINDS = {str: "a string", int: "an integer", float: "a finite number", list: "a list",
          dict: "an object"}


def _require(payload: dict, key: str, where: str, default=_REQUIRED):
    if not isinstance(payload, dict):
        raise FormatError(f"{where}: expected a JSON object")
    if key not in payload and default is _REQUIRED:
        raise FormatError(f"{where}: missing field {key!r}")
    return payload.get(key, default)


def _field(payload: dict, key: str, where: str, kind: type, default=_REQUIRED):
    """payload[key], checked to be of kind: str, int, float, list or dict.

    A missing field reads default; null reads None only where the default is
    None. Any other wrong-typed value raises FormatError naming the field.
    """
    value = _require(payload, key, where, default)
    if value is None and default is None:
        return None
    if (isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)
            or (kind is float and not abs(value) <= sys.float_info.max)):
        raise FormatError(f"{where}: field {key!r} must be {_KINDS[kind]}, "
                          f"got {json.dumps(value)[:40]}")
    return float(value) if kind is float else value


def _array(payload: dict, key: str, where: str, shape: tuple, default=_REQUIRED):
    """A list field as a float array of finite numbers; None in shape matches any length."""
    value = _field(payload, key, where, list, default)
    if value is None:
        return None
    try:
        a = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        a = np.array(np.nan)
    if (a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape))
            or not np.isfinite(a).all()):
        raise FormatError(f"{where}: field {key!r} must be a {len(shape)}-D array of "
                          "finite numbers")
    return a


def _strings(payload: dict, key: str, where: str) -> tuple[str, ...]:
    value = _require(payload, key, where)
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise FormatError(f"{where}: field {key!r} must be a list of strings")
    return tuple(value)


def _check_version(payload: dict, expected: int, where: str) -> None:
    version = _require(payload, "format_version", where)
    if version != expected:
        raise FormatError(f"{where}: format_version {version} unsupported (expected {expected})")


# --------------------------------------------------------------------------
# schema
# --------------------------------------------------------------------------

def schema_to_payload(attr: AttributeSchema) -> dict:
    if attr.kind == CONTINUOUS:
        return {"name": attr.name, "kind": attr.kind, "range": [attr.lo, attr.hi]}
    return {"name": attr.name, "kind": attr.kind, "classes": list(attr.classes)}


def payload_to_schema(payload: dict, where: str = "schema") -> AttributeSchema:
    name = _field(payload, "name", where, str)
    kind = _field(payload, "kind", where, str)
    if kind == CONTINUOUS:
        lo, hi = _array(payload, "range", where, (2,))
        return AttributeSchema.continuous(name, float(lo), float(hi))
    if kind in (BINARY, MULTICLASS):
        return AttributeSchema(name, kind, _strings(payload, "classes", where))
    raise FormatError(f"{where}: unknown attribute kind {kind!r}")


# --------------------------------------------------------------------------
# bundles
# --------------------------------------------------------------------------

def _meta_to_payload(meta: TrainingMeta) -> dict:
    return {
        "epochs_run": meta.epochs_run,
        "final_loss": None if np.isnan(meta.final_loss) else meta.final_loss,
        "grad_norm": None if np.isnan(meta.grad_norm) else meta.grad_norm,
        "test_accuracy": meta.test_accuracy,
        "test_rmse": meta.test_rmse,
    }


def _payload_to_meta(payload: dict, where: str) -> TrainingMeta:
    """Every field is optional; a missing or null loss or gradient norm reads NaN."""
    num = {key: _field(payload, key, where, float, None)
           for key in ("final_loss", "grad_norm", "test_accuracy", "test_rmse")}
    for key in ("final_loss", "grad_norm"):
        num[key] = float("nan") if num[key] is None else num[key]
    return TrainingMeta(epochs_run=_field(payload, "epochs_run", where, int, 0), **num)


def _model_to_payload(model: LatentModel) -> dict:
    """The v1 keys: a multiclass model's rows and class names; else one row, as a direction."""
    if model.kind == MULTICLASS:
        payload = {"kind": MULTICLASS, "class_weights": model.weights.tolist(),
                   "class_intercepts": model.intercepts.tolist(), "class_names": list(model.classes)}
    else:
        payload = {"kind": BINARY if model.kind == BINARY else "regressor",
                   "direction": model.weights[0].tolist(), "intercept": float(model.intercepts[0])}
        if model.kind == BINARY:
            payload.update(negative_class=model.classes[0], positive_class=model.classes[1])
    payload["training_meta"] = _meta_to_payload(model.training_meta)
    return payload


def _payload_to_model(payload: dict, where: str) -> LatentModel:
    kind = _field(payload, "kind", where, str)
    meta = _payload_to_meta(_field(payload, "training_meta", where, dict, {}),
                            f"{where}.training_meta")
    if kind == MULTICLASS:
        rows = (_array(payload, "class_weights", where, (None, None)),
                _array(payload, "class_intercepts", where, (None,)),
                _strings(payload, "class_names", where))
    elif kind in (BINARY, "regressor"):
        classes = ((_field(payload, "negative_class", where, str),
                    _field(payload, "positive_class", where, str)) if kind == BINARY else ())
        rows = ([_array(payload, "direction", where, (None,))],
                [_field(payload, "intercept", where, float)], classes)
    else:
        raise FormatError(f"{where}: unknown model kind {kind!r}")
    try:
        return LatentModel(kind if kind != "regressor" else CONTINUOUS, *rows, meta)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


# the fields a bundle records of its TrainingConfig; older files also carry
# learning_rate and momentum, which the Newton fit does not use
_TRAIN_FIELDS = {"epochs": int, "l2_penalty": float, "split_fraction": float, "seed": int}


def bundle_to_payload(bundle: ModelBundle) -> dict:
    payload = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "latent_dim": bundle.latent_dim,
        "schema": [schema_to_payload(a) for a in bundle.schema],
        "models": {a.name: _model_to_payload(bundle.model_for(a.name)) for a in bundle.schema},
        "provenance": None,
    }
    if bundle.provenance is not None:
        payload["provenance"] = {
            "world_seed": bundle.provenance.world_seed,
            "n_samples": bundle.provenance.n_samples,
            "training_config": {k: getattr(bundle.provenance.train_config, k)
                                for k in _TRAIN_FIELDS},
            "metrics": dict(bundle.provenance.metrics),
        }
    return payload


def payload_to_bundle(payload: dict, where: str = "bundle") -> ModelBundle:
    _check_version(payload, BUNDLE_FORMAT_VERSION, where)
    schema = tuple(
        payload_to_schema(p, f"{where}.schema[{i}]")
        for i, p in enumerate(_field(payload, "schema", where, list))
    )
    models = {
        name: _payload_to_model(p, f"{where}.models[{name}]")
        for name, p in _field(payload, "models", where, dict).items()
    }
    dim = _field(payload, "latent_dim", where, int)
    if any(model.dim != dim for model in models.values()):
        raise FormatError(f"{where}: field 'latent_dim' is {dim}, unlike the models' dim")
    provenance = None
    p = _field(payload, "provenance", where, dict, None)
    if p is not None:
        at = f"{where}.provenance"
        cfg = _field(p, "training_config", at, dict)
        provenance = BundleProvenance(
            world_seed=_field(p, "world_seed", at, int),
            n_samples=_field(p, "n_samples", at, int),
            train_config=TrainingConfig(**{k: _field(cfg, k, f"{at}.training_config", kind)
                                           for k, kind in _TRAIN_FIELDS.items()}),
            metrics=_field(p, "metrics", at, dict, {}),
        )
    return ModelBundle(schema, models, provenance)


def save_bundle(bundle: ModelBundle, path) -> None:
    Path(path).write_bytes(json_bytes(bundle_to_payload(bundle)))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _bundle_from_bytes(data: bytes, where: str) -> ModelBundle:
    return payload_to_bundle(_decode(data, where), where)


def load_bundle(path) -> ModelBundle:
    return _bundle_from_bytes(_read_bytes(path), str(path))


# --------------------------------------------------------------------------
# worlds
# --------------------------------------------------------------------------

def parse_world_config(payload: dict, where: str = "world config") -> WorldConfig:
    dim = _field(payload, "dim", where, int)
    attrs = tuple(
        payload_to_schema(p, f"{where}.attributes[{i}]")
        for i, p in enumerate(_field(payload, "attributes", where, list))
    )
    return WorldConfig(
        dim=dim,
        attributes=attrs,
        entanglement=_array(payload, "entanglement", where, (None, None), None),
        label_noise=_field(payload, "label_noise", where, float, 0.0),
        continuous_profile=_field(payload, "continuous_profile", where, str, "linear"),
        seed=_field(payload, "seed", where, int, 0),
    )


def _world_config_to_payload(cfg: WorldConfig) -> dict:
    return {
        "dim": cfg.dim,
        "attributes": [schema_to_payload(a) for a in cfg.attributes],
        "entanglement": None if cfg.entanglement is None else cfg.entanglement.tolist(),
        "label_noise": cfg.label_noise,
        "continuous_profile": cfg.continuous_profile,
        "seed": cfg.seed,
    }


def world_to_payload(world: SyntheticWorld) -> dict:
    return {
        "format_version": WORLD_FORMAT_VERSION,
        "config": _world_config_to_payload(world.config),
        "directions": [
            {
                "attribute": name,
                "class_name": class_name,
                "direction": world.directions[i].tolist(),
                "intercept": float(world.intercepts[i]),
            }
            for i, (name, class_name) in enumerate(world.slots)
        ],
    }


def payload_to_world(payload: dict, where: str = "world") -> SyntheticWorld:
    _check_version(payload, WORLD_FORMAT_VERSION, where)
    cfg = parse_world_config(_require(payload, "config", where), f"{where}.config")
    slots, directions, intercepts = [], [], []
    for i, e in enumerate(_field(payload, "directions", where, list)):
        at = f"{where}.directions[{i}]"
        slots.append((_field(e, "attribute", at, str),
                      _field(e, "class_name", at, str, None)))
        directions.append(_array(e, "direction", at, (cfg.dim,)))
        intercepts.append(_field(e, "intercept", at, float))
    if tuple(slots) != direction_slots(cfg.attributes):
        raise FormatError(f"{where}: 'directions' do not list the attributes' direction slots")
    return SyntheticWorld(cfg, np.array(directions, dtype=np.float64),
                          np.array(intercepts, dtype=np.float64), tuple(slots))


def save_world(world: SyntheticWorld, path) -> None:
    Path(path).write_bytes(json_bytes(world_to_payload(world)))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _world_from_bytes(data: bytes, where: str) -> SyntheticWorld:
    return payload_to_world(_decode(data, where), where)


def load_world(path) -> SyntheticWorld:
    return _world_from_bytes(_read_bytes(path), str(path))


# --------------------------------------------------------------------------
# images
# --------------------------------------------------------------------------

def pgm_text(image: SyntheticImage) -> str:
    """ASCII PGM (P2, maxval 255); pixel = round(value * 255)."""
    pixels = np.rint(image.pixels * 255.0).astype(int)
    h, w = pixels.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines.extend(" ".join(map(str, row)) for row in pixels.tolist())
    return "\n".join(lines) + "\n"


def write_pgm(image: SyntheticImage, path) -> None:
    Path(path).write_text(pgm_text(image), encoding="ascii")
