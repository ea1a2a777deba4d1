"""On-disk formats: JSON bundle/world files, ASCII PGM images.

JSON payloads are built in a fixed key order and serialized with sorted
keys, so identical objects always produce identical bytes and
save -> load -> save round-trips bit-exactly (floats use Python's
shortest round-trip repr via the json module).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FormatError
from .geometry import Hyperplane
from .models import (
    BINARY,
    CONTINUOUS,
    MULTICLASS,
    AttributeSchema,
    BinaryLatentClassifier,
    BundleProvenance,
    LatentRegressor,
    ModelBundle,
    MultiClassLatentClassifier,
    TrainingConfig,
    TrainingMeta,
)
from .world import SyntheticWorld, SyntheticImage, WorldConfig

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


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FormatError(f"file not found: {path}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: top-level JSON value must be an object")
    return payload


def _require(payload: dict, key: str, where: str):
    if not isinstance(payload, dict):
        raise FormatError(f"{where}: expected a JSON object")
    if key not in payload:
        raise FormatError(f"{where}: missing field {key!r}")
    return payload[key]


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
    name = _require(payload, "name", where)
    kind = _require(payload, "kind", where)
    if kind == CONTINUOUS:
        lo, hi = _require(payload, "range", where)
        return AttributeSchema.continuous(name, float(lo), float(hi))
    if kind in (BINARY, MULTICLASS):
        classes = _require(payload, "classes", where)
        if not isinstance(classes, list) or not all(isinstance(c, str) for c in classes):
            raise FormatError(f"{where}: 'classes' must be a list of strings")
        return AttributeSchema(name, kind, tuple(classes))
    raise FormatError(f"{where}: unknown attribute kind {kind!r}")


# --------------------------------------------------------------------------
# bundles
# --------------------------------------------------------------------------

def _meta_to_payload(meta: TrainingMeta) -> dict:
    return {
        "epochs_run": meta.epochs_run,
        "final_loss": None if np.isnan(meta.final_loss) else meta.final_loss,
        "test_accuracy": meta.test_accuracy,
        "test_rmse": meta.test_rmse,
    }


def _payload_to_meta(payload: dict) -> TrainingMeta:
    return TrainingMeta(
        epochs_run=int(payload.get("epochs_run", 0)),
        final_loss=float("nan") if payload.get("final_loss") is None else float(payload["final_loss"]),
        test_accuracy=payload.get("test_accuracy"),
        test_rmse=payload.get("test_rmse"),
    )


def _model_to_payload(model) -> dict:
    if isinstance(model, BinaryLatentClassifier):
        return {
            "kind": BINARY,
            "direction": model.hyperplane.direction.tolist(),
            "intercept": model.hyperplane.intercept,
            "negative_class": model.negative_class,
            "positive_class": model.positive_class,
            "training_meta": _meta_to_payload(model.training_meta),
        }
    if isinstance(model, MultiClassLatentClassifier):
        return {
            "kind": MULTICLASS,
            "class_weights": model.class_weights.tolist(),
            "class_intercepts": model.class_intercepts.tolist(),
            "class_names": list(model.class_names),
            "training_meta": _meta_to_payload(model.training_meta),
        }
    if isinstance(model, LatentRegressor):
        return {
            "kind": "regressor",
            "direction": model.line.direction.tolist(),
            "intercept": model.line.intercept,
            "training_meta": _meta_to_payload(model.training_meta),
        }
    raise FormatError(f"cannot serialize model type {type(model).__name__}")


def _payload_to_model(payload: dict, where: str):
    kind = _require(payload, "kind", where)
    meta = _payload_to_meta(payload.get("training_meta", {}))
    if kind == BINARY:
        h = Hyperplane(np.array(_require(payload, "direction", where)),
                       float(_require(payload, "intercept", where)))
        return BinaryLatentClassifier(h, _require(payload, "positive_class", where),
                                      _require(payload, "negative_class", where), meta)
    if kind == MULTICLASS:
        return MultiClassLatentClassifier(
            np.array(_require(payload, "class_weights", where)),
            np.array(_require(payload, "class_intercepts", where)),
            tuple(_require(payload, "class_names", where)),
            meta,
        )
    if kind == "regressor":
        h = Hyperplane(np.array(_require(payload, "direction", where)),
                       float(_require(payload, "intercept", where)))
        return LatentRegressor(h, meta)
    raise FormatError(f"{where}: unknown model kind {kind!r}")


def _train_config_to_payload(cfg: TrainingConfig) -> dict:
    return {
        "learning_rate": cfg.learning_rate,
        "epochs": cfg.epochs,
        "l2_penalty": cfg.l2_penalty,
        "split_fraction": cfg.split_fraction,
        "seed": cfg.seed,
        "momentum": cfg.momentum,
    }


def _payload_to_train_config(payload: dict, where: str) -> TrainingConfig:
    return TrainingConfig(
        learning_rate=float(_require(payload, "learning_rate", where)),
        epochs=int(_require(payload, "epochs", where)),
        l2_penalty=float(_require(payload, "l2_penalty", where)),
        split_fraction=float(_require(payload, "split_fraction", where)),
        seed=int(_require(payload, "seed", where)),
        momentum=float(payload.get("momentum", 0.9)),
    )


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
            "training_config": _train_config_to_payload(bundle.provenance.train_config),
            "metrics": dict(bundle.provenance.metrics),
        }
    return payload


def payload_to_bundle(payload: dict, where: str = "bundle") -> ModelBundle:
    _check_version(payload, BUNDLE_FORMAT_VERSION, where)
    schema = tuple(
        payload_to_schema(p, f"{where}.schema[{i}]")
        for i, p in enumerate(_require(payload, "schema", where))
    )
    models_payload = _require(payload, "models", where)
    models = {
        name: _payload_to_model(p, f"{where}.models[{name}]")
        for name, p in models_payload.items()
    }
    provenance = None
    if payload.get("provenance") is not None:
        p = payload["provenance"]
        at = f"{where}.provenance"
        provenance = BundleProvenance(
            world_seed=int(_require(p, "world_seed", at)),
            n_samples=int(_require(p, "n_samples", at)),
            train_config=_payload_to_train_config(_require(p, "training_config", at),
                                                  f"{at}.training_config"),
            metrics=dict(p.get("metrics", {})),
        )
    return ModelBundle(schema, models, provenance)


def save_bundle(bundle: ModelBundle, path) -> None:
    Path(path).write_bytes(json_bytes(bundle_to_payload(bundle)))


def load_bundle(path) -> ModelBundle:
    return payload_to_bundle(_read_json(path), where=str(path))


# --------------------------------------------------------------------------
# worlds
# --------------------------------------------------------------------------

def parse_world_config(payload: dict, where: str = "world config") -> WorldConfig:
    dim = int(_require(payload, "dim", where))
    attrs = tuple(
        payload_to_schema(p, f"{where}.attributes[{i}]")
        for i, p in enumerate(_require(payload, "attributes", where))
    )
    ent = payload.get("entanglement")
    return WorldConfig(
        dim=dim,
        attributes=attrs,
        entanglement=None if ent is None else np.array(ent, dtype=np.float64),
        label_noise=float(payload.get("label_noise", 0.0)),
        continuous_profile=payload.get("continuous_profile", "linear"),
        seed=int(payload.get("seed", 0)),
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
    entries = _require(payload, "directions", where)
    slots, directions, intercepts = [], [], []
    for i, e in enumerate(entries):
        at = f"{where}.directions[{i}]"
        slots.append((_require(e, "attribute", at), e.get("class_name")))
        directions.append(_require(e, "direction", at))
        intercepts.append(_require(e, "intercept", at))
    return SyntheticWorld(cfg, np.array(directions, dtype=np.float64),
                          np.array(intercepts, dtype=np.float64), tuple(slots))


def save_world(world: SyntheticWorld, path) -> None:
    Path(path).write_bytes(json_bytes(world_to_payload(world)))


def load_world(path) -> SyntheticWorld:
    return payload_to_world(_read_json(path), where=str(path))


# --------------------------------------------------------------------------
# images
# --------------------------------------------------------------------------

def pgm_text(image: SyntheticImage) -> str:
    """ASCII PGM (P2, maxval 255); pixel = round(value * 255)."""
    pixels = np.rint(image.pixels * 255.0).astype(int)
    h, w = pixels.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pixels)
    return "\n".join(lines) + "\n"


def write_pgm(image: SyntheticImage, path) -> None:
    Path(path).write_text(pgm_text(image), encoding="ascii")
