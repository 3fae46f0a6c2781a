"""File formats: the binary descriptor-bank format, the JSON manifest,
run configuration, model state, and report emission.

Bank layout (little-endian): magic "KPB1", u32 version = 1, u32 dim,
u64 count, then count*dim float32 values row-major.  All writes go to a
temporary file in the destination directory and are renamed into place
on success, so readers never observe partial artifacts.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile

import numpy as np

from .head import HeadParams, HeadVariant
from .retrieval import DescriptorBank
from .synth import SceneConfig, SPLIT_NAMES
from .training import (AnchorMode, LinearEncoder, LmclConfig, TrainConfig,
                       TrainMode)

BANK_MAGIC = b"KPB1"
BANK_VERSION = 1
_HEADER = struct.Struct("<4sIIQ")

REJECT_TOL = 1e-3      # rows whose norm deviates beyond this are corrupt

REPORT_SCHEMA_VERSION = 1


class BankFormatError(ValueError):
    """Malformed descriptor-bank file; carries the failing byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ManifestError(ValueError):
    """Malformed manifest; carries the failing JSON path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


class ConfigError(ValueError):
    """Malformed run configuration; carries the failing JSON path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write to a sibling temp file, then rename into place.  The file gets
    the mode open() would give it (0o666 less the umask), not mkstemp's
    0o600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_bank(path, descriptors) -> None:
    """Serialize an (N, d) descriptor block to the binary bank format."""
    desc = np.asarray(descriptors, dtype=np.float64)
    if desc.ndim != 2 or desc.shape[0] == 0 or desc.shape[1] == 0:
        raise ValueError("descriptors must be a non-empty (N, d) array")
    count, dim = desc.shape
    header = _HEADER.pack(BANK_MAGIC, BANK_VERSION, dim, count)
    payload = desc.astype("<f4").tobytes(order="C")
    atomic_write_bytes(path, header + payload)


def read_bank(path) -> np.ndarray:
    """Load a bank file; rows are renormalized to unit length.

    Rows with non-finite values, or whose norm deviates from 1 beyond
    REJECT_TOL (far above float32 quantization), are rejected as corrupt
    with the row's byte offset.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise BankFormatError("file shorter than header", len(raw))
    magic, version, dim, count = _HEADER.unpack_from(raw, 0)
    if magic != BANK_MAGIC:
        raise BankFormatError(f"bad magic {magic!r}", 0)
    if version != BANK_VERSION:
        raise BankFormatError(f"unsupported version {version}", 4)
    expected = _HEADER.size + count * dim * 4
    if len(raw) != expected:
        raise BankFormatError(
            f"payload length {len(raw) - _HEADER.size} != count*dim*4 "
            f"= {count * dim * 4}", min(len(raw), expected))
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    desc = flat.astype(np.float64).reshape(count, dim)
    bad = np.flatnonzero(~np.all(np.isfinite(desc), axis=1))
    if bad.size:
        raise BankFormatError(f"row {bad[0]} has non-finite values",
                              _HEADER.size + int(bad[0]) * dim * 4)
    norms = np.linalg.norm(desc, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > REJECT_TOL)
    if bad.size:
        offset = _HEADER.size + int(bad[0]) * dim * 4
        raise BankFormatError(
            f"row {bad[0]} norm {norms[bad[0]]:.6f} deviates beyond "
            f"{REJECT_TOL}", offset)
    return desc / norms[:, None]


def write_manifest(path, bank: DescriptorBank, splits: dict | None = None) -> None:
    """JSON manifest carrying everything about the bank except descriptors."""
    n = len(bank)
    split_list = None
    if splits is not None:
        split_list = [None] * n
        for name in SPLIT_NAMES:
            for i in splits.get(name, ()):
                split_list[int(i)] = name
        if any(s is None for s in split_list):
            raise ValueError("splits do not cover every bank row")
    doc = {
        "ids": bank.ids.tolist(),
        "labels": bank.labels.tolist(),
        "poses": None if bank.poses is None else bank.poses.tolist(),
        "true_kappa": None if bank.true_kappa is None
        else bank.true_kappa.tolist(),
        "kappas": None if bank.kappas is None else bank.kappas.tolist(),
        "split": split_list,
    }
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def read_manifest(path, descriptors) -> tuple:
    """Build a DescriptorBank from a manifest plus its descriptor block.

    Returns (bank, splits) where splits maps split name -> index array
    (empty dict when the manifest has no split assignment).
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"invalid JSON: {exc.msg}",
                                f"line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise ManifestError("manifest must be a JSON object", "$")
    n = len(descriptors)
    for key in ("ids", "labels"):
        if key not in doc or not isinstance(doc[key], list):
            raise ManifestError(f"missing or non-array field {key!r}", f"$.{key}")
        if len(doc[key]) != n:
            raise ManifestError(
                f"{key} length {len(doc[key])} != bank count {n}", f"$.{key}")
    for key in ("poses", "true_kappa", "kappas", "split"):
        val = doc.get(key)
        if val is not None and len(val) != n:
            raise ManifestError(
                f"{key} length {len(val)} != bank count {n}", f"$.{key}")
    bank = DescriptorBank(
        descriptors=descriptors,
        ids=np.asarray(doc["ids"], dtype=np.int64),
        labels=np.asarray(doc["labels"], dtype=np.int64),
        poses=None if doc.get("poses") is None
        else np.asarray(doc["poses"], dtype=np.float64),
        true_kappa=None if doc.get("true_kappa") is None
        else np.asarray(doc["true_kappa"], dtype=np.float64),
        kappas=None if doc.get("kappas") is None
        else np.asarray(doc["kappas"], dtype=np.float64),
    )
    splits = {}
    if doc.get("split") is not None:
        names = doc["split"]
        unknown = sorted(set(names) - set(SPLIT_NAMES))
        if unknown:
            raise ManifestError(f"unknown split names {unknown}", "$.split")
        for name in SPLIT_NAMES:
            splits[name] = np.flatnonzero(
                np.asarray([s == name for s in names]))
    return bank, splits


# ---------------------------------------------------------------------------
# run configuration

_SCENE_KEYS = set(SceneConfig().to_dict())
_TRAIN_KEYS = {"mode", "lam", "lr", "batch_size", "patience", "max_epochs",
               "warmup", "seed", "anchor_mode", "include_self_in_centroid"}
_LMCL_KEYS = {"scale", "margin"}
_BINNING_KEYS = {"num_bins", "strategy"}
_TOP_KEYS = {"scene", "train", "lmcl", "binning", "ks", "tau"}


def default_run_config() -> dict:
    return {
        "scene": SceneConfig().to_dict(),
        "train": {
            "mode": TrainMode.POST_TRAINING.value,
            "lam": 0.01,
            "lr": 0.05,
            "batch_size": 32,
            "patience": 15,
            "max_epochs": 300,
            "warmup": 10,
            "seed": 0,
            "anchor_mode": AnchorMode.CLASS_PROTOTYPE.value,
            "include_self_in_centroid": False,
        },
        "lmcl": {"scale": 30.0, "margin": 0.35},
        "binning": {"num_bins": 10, "strategy": "equal_width"},
        "ks": [1, 5, 10],
        "tau": 25.0,
    }


def _check_keys(section: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys {unknown}", path)


def load_run_config(path=None, overrides: dict | None = None) -> dict:
    """Resolve a run config: defaults, optional JSON file, optional overrides.

    Unknown keys anywhere are rejected so typos cannot silently fall back
    to defaults.
    """
    resolved = default_run_config()
    layers = []
    if path is not None:
        with open(path) as fh:
            try:
                layers.append(json.load(fh))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON: {exc.msg}",
                                  f"line {exc.lineno}") from exc
    if overrides:
        layers.append(overrides)
    for layer in layers:
        if not isinstance(layer, dict):
            raise ConfigError("config must be a JSON object", "$")
        _check_keys(layer, _TOP_KEYS, "$")
        for section, allowed in (("scene", _SCENE_KEYS), ("train", _TRAIN_KEYS),
                                 ("lmcl", _LMCL_KEYS), ("binning", _BINNING_KEYS)):
            if section in layer:
                if not isinstance(layer[section], dict):
                    raise ConfigError(f"{section} must be an object",
                                      f"$.{section}")
                _check_keys(layer[section], allowed, f"$.{section}")
                resolved[section].update(layer[section])
        if "ks" in layer:
            resolved["ks"] = [int(k) for k in layer["ks"]]
        if "tau" in layer:
            resolved["tau"] = float(layer["tau"])
    return resolved


def scene_config_from(resolved: dict) -> SceneConfig:
    scene = dict(resolved["scene"])
    scene["feature_shape"] = tuple(scene["feature_shape"])
    return SceneConfig(**scene)


def train_config_from(resolved: dict) -> TrainConfig:
    train = dict(resolved["train"])
    train["mode"] = TrainMode(train["mode"])
    train["anchor_mode"] = AnchorMode(train["anchor_mode"])
    return TrainConfig(**train)


def lmcl_config_from(resolved: dict) -> LmclConfig:
    return LmclConfig(**resolved["lmcl"])


# ---------------------------------------------------------------------------
# model state

def _head_to_dict(head: HeadParams | None) -> dict | None:
    if head is None:
        return None
    return {
        "variant": head.variant.value,
        "gem_p": float(head.gem_p),
        "proj_w": None if head.proj_w is None else head.proj_w.tolist(),
        "kappa_w": np.asarray(head.kappa_w).tolist(),
        "kappa_b": np.asarray(head.kappa_b).tolist(),
        "train_gem_p": bool(head.train_gem_p),
    }


def _head_from_dict(doc: dict | None) -> HeadParams | None:
    if doc is None:
        return None
    return HeadParams(
        gem_p=doc["gem_p"],
        proj_w=None if doc["proj_w"] is None else np.asarray(doc["proj_w"]),
        kappa_w=np.asarray(doc["kappa_w"]),
        kappa_b=float(np.asarray(doc["kappa_b"]).reshape(-1)[0]),
        variant=HeadVariant(doc["variant"]),
        train_gem_p=doc.get("train_gem_p", False),
    )


def write_model_state(path, head: HeadParams | None = None,
                      encoder: LinearEncoder | None = None,
                      prototypes=None, extra: dict | None = None) -> None:
    """Serialize trained parameters as JSON (floats round-trip exactly)."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "head": _head_to_dict(head),
        "encoder": None if encoder is None else encoder.weights.tolist(),
        "prototypes": None if prototypes is None
        else np.asarray(getattr(prototypes, "weights", prototypes)).tolist(),
        "extra": extra or {},
    }
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def read_model_state(path) -> dict:
    """Returns {"head": HeadParams|None, "encoder": LinearEncoder|None,
    "prototypes": ndarray|None, "extra": dict}."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported model-state schema {doc.get('schema_version')!r}",
            "$.schema_version")
    return {
        "head": _head_from_dict(doc["head"]),
        "encoder": None if doc["encoder"] is None
        else LinearEncoder(np.asarray(doc["encoder"])),
        "prototypes": None if doc["prototypes"] is None
        else np.asarray(doc["prototypes"]),
        "extra": doc.get("extra", {}),
    }


# ---------------------------------------------------------------------------
# reports

def report_document(body: dict, resolved_config: dict, seed: int) -> str:
    """Stable, versioned report JSON embedding the resolved config."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": seed,
        "config": resolved_config,
        **body,
    }
    # a NaN or infinity would be written as a bare token that is not JSON
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def history_csv(history) -> str:
    """Training history as CSV; column set is the union over rows."""
    if not history:
        return ""
    cols = []
    for row in history:
        for key in row:
            if key not in cols:
                cols.append(key)
    lines = [",".join(cols)]
    for row in history:
        lines.append(",".join("" if row.get(c) is None else str(row.get(c))
                              for c in cols))
    return "\n".join(lines) + "\n"
