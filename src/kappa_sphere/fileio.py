"""File formats: the binary descriptor-bank format, the JSON manifest,
the scene record, the recorded retrieval, the run configuration
(`RunConfig`), model state, and the report document.

Bank layout (little-endian): magic "KPB1", u32 version = 1, u32 dim,
u64 count, then count*dim float32 values row-major.  The scene record and
the recorded retrieval are numpy-only .npz archives.  All writes go to a
temporary file in the destination directory and are renamed into place
on success, so readers never observe partial artifacts.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .calibration import (BinningConfig, CalibrationReport, FieldError,
                          json_value)
from .head import GEM_P
from .retrieval import DEFAULT_KS, DEFAULT_TAU, RetrievalResult, Rows
from .scores import LEVELS, methods_at
from .synth import SceneConfig, SPLIT_NAMES, SynthDataset
from .training import LmclConfig, TrainConfig
from .vmf import check_unit_rows

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


class JsonError(ValueError):
    """Malformed JSON document (manifest, run config or report), or a run
    config that contradicts the scene record; carries the failing location:
    a JSON path, a line of invalid JSON or a byte that is not UTF-8."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{message} (at {path})")
        self.path = path


def _read_json(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at `path`, the document `what`
    names; a JsonError at the first byte that is not UTF-8, the line of
    invalid JSON, or `$` for a document that is not an object."""
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.read().decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise JsonError("not UTF-8 text", f"byte {exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise JsonError(f"invalid JSON: {exc.msg}",
                            f"line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise JsonError(f"{what} must be a JSON object", "$")
    return doc


class RecordFileError(ValueError):
    """Malformed .npz record (the scene record or the recorded retrieval);
    carries the file and the failing field (None when the archive itself
    cannot be read)."""

    def __init__(self, message: str, path, field: str | None = None):
        self.path, self.field = os.fspath(path), field
        where = self.path if field is None else f"{self.path}, field {field!r}"
        super().__init__(f"{message} (in {where})")


@contextmanager
def _atomic_file(path):
    """A binary file to write in place of `path`: a sibling temp file,
    renamed into place when the block ends and removed when it raises.
    The file gets the mode open() would give it (0o666 less the umask),
    not mkstemp's 0o600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path, payload: bytes) -> None:
    with _atomic_file(path) as fh:
        fh.write(payload)


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
    with the row's byte offset.  A row is non-finite exactly when its
    norm is: a finite float32 row cannot overflow its float64 sum of
    squares.
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
    norms = np.linalg.norm(desc, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        raise BankFormatError(f"row {bad[0]} has non-finite values",
                              _HEADER.size + int(bad[0]) * dim * 4)
    bad = np.flatnonzero(np.abs(norms - 1.0) > REJECT_TOL)
    if bad.size:
        offset = _HEADER.size + int(bad[0]) * dim * 4
        raise BankFormatError(
            f"row {bad[0]} norm {norms[bad[0]]:.6f} deviates beyond "
            f"{REJECT_TOL}", offset)
    desc /= norms[:, None]
    return desc


def write_manifest(path, rows: Rows, splits: dict) -> None:
    """JSON manifest of a bank's `rows`, everything but its descriptors:
    ids (each row's index), labels, poses, the kappas it has, and each
    row's split."""
    which = np.full(len(rows), len(SPLIT_NAMES))  # no split yet
    for k, name in enumerate(SPLIT_NAMES):
        which[np.asarray(splits.get(name, ()), dtype=np.intp)] = k
    if (which == len(SPLIT_NAMES)).any():
        raise ValueError("splits do not cover every bank row")
    doc = {
        "ids": list(range(len(rows))),
        "labels": rows.labels.tolist(),
        "poses": rows.poses.tolist(),
        "true_kappa": None if rows.true_kappa is None
        else rows.true_kappa.tolist(),
        "kappas": None if rows.kappas is None else rows.kappas.tolist(),
        "split": np.array(SPLIT_NAMES)[which].tolist(),
    }
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


def read_manifest(path, n: int):
    """The (n,) kappas of the manifest at `path`, or None when it holds
    none (before fit).  Each must be a finite number >= 0; a bad one is a
    JsonError at `$.kappas` or `$.kappas[i]`.  The manifest's other fields
    repeat the scene record, whose rows `read_scene_rows` reads."""
    val = _read_json(path, "manifest").get("kappas")
    if val is None:
        return None
    if not isinstance(val, list):
        raise JsonError("missing or non-array field 'kappas'", "$.kappas")
    if len(val) != n:
        raise JsonError(f"kappas length {len(val)} != bank count {n}",
                        "$.kappas")
    if not set(map(type, val)) <= {int, float}:  # a bool is not an int here
        i = next(i for i, v in enumerate(val) if type(v) not in (int, float))
        raise JsonError(f"expected float or int, got {val[i]!r}",
                        f"$.kappas[{i}]")
    try:
        kappas = np.fromiter(val, np.float64, n)
    except OverflowError as exc:
        raise JsonError(f"value out of range: {exc}", "$.kappas") from exc
    # json loads the NaN and Infinity tokens as floats
    bad = np.flatnonzero(~((kappas >= 0) & (kappas < np.inf)))
    if bad.size:
        raise JsonError(f"expected a finite number >= 0, got {kappas[bad[0]]}",
                        f"$.kappas[{bad[0]}]")
    return kappas


# ---------------------------------------------------------------------------
# .npz records


def _write_record(path, **arrays) -> None:
    """A numpy-only .npz archive of `arrays`, streamed into the temp file of
    an atomic write (no copy of the archive is held in memory)."""
    with _atomic_file(path) as fh:
        np.savez(fh, **arrays)


@contextmanager
def _open_record(path):
    """The .npz archive at `path`, loaded with allow_pickle=False.  A file
    that is not one raises RecordFileError, a missing one
    FileNotFoundError."""
    # opened here, not by np.load, which leaves the file open when the
    # archive cannot be read
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise RecordFileError(f"not a readable .npz archive: {exc}",
                                  path) from exc
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise RecordFileError("not an .npz archive", path)
        with archive:
            yield archive


def _record_field(archive, name: str, path, dtype, shape: tuple):
    """One member of an .npz record, checked for its dtype and shape.  A
    `dtype` of str takes a unicode string of any length; a None in `shape`
    takes any length on that axis."""
    if name not in archive.files:
        raise RecordFileError("missing field", path, name)
    try:
        value = archive[name]
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise RecordFileError(f"unreadable: {exc}", path, name) from exc
    if (value.dtype.kind != "U" if dtype is str else value.dtype != dtype) \
            or value.ndim != len(shape):
        expected = "str" if dtype is str else np.dtype(dtype)
        raise RecordFileError(
            f"expected a {len(shape)}-d {expected} array, got "
            f"{value.ndim}-d {value.dtype}", path, name)
    if any(want not in (None, got) for got, want in zip(value.shape, shape)):
        expected = ", ".join("*" if want is None else str(want)
                             for want in shape)
        raise RecordFileError(f"shape {value.shape} != ({expected})", path,
                              name)
    return value


def _check_indices(value, upper: int, path, name: str) -> None:
    """Every entry of the index field `name` lies in [0, upper)."""
    if value.size and (value.min() < 0 or value.max() >= upper):
        raise RecordFileError(f"index outside [0, {upper})", path, name)


def _check_finite(value, path, name: str, nonneg: bool = False) -> None:
    """Every entry of the float field `name` is finite (and >= 0)."""
    ok = (value >= 0) & (value < np.inf) if nonneg else np.isfinite(value)
    if not ok.all():
        at = np.argwhere(~ok)[0]
        want = "a finite number" + (" >= 0" if nonneg else "")
        raise RecordFileError(f"expected {want}, got {value[tuple(at)]} at "
                              f"row {at[0]}", path, name)


# ---------------------------------------------------------------------------
# scene record


def write_scene(path, dataset: SynthDataset) -> None:
    """Record the float64 scene `dataset`: every array it holds (`raw`
    is derived from them on use), its aliased pairs and splits, and its
    SceneConfig as JSON, the record's key.  A numpy-only .npz archive,
    written atomically."""
    rows = dataset.rows
    scene = _section_json("scene", dataset.config)
    _write_record(
        path, scene=np.array(json.dumps(scene, sort_keys=True)),
        descriptors=dataset.descriptors, labels=rows.labels, poses=rows.poses,
        true_kappa=rows.true_kappa, features=dataset.features,
        ambiguity=dataset.ambiguity, prototypes=dataset.prototypes,
        class_poses=dataset.class_poses,
        aliased_pairs=np.array(dataset.aliased_pairs,
                               dtype=np.int64).reshape(-1, 2),
        **{f"split_{name}": dataset.splits[name] for name in SPLIT_NAMES})


def _scene_fields(cfg: SceneConfig) -> dict:
    """Field -> (dtype, shape) of the record of a scene of `cfg`."""
    c, d = cfg.num_classes, cfg.descriptor_dim
    n = c * cfg.images_per_class
    f8, i8 = np.float64, np.int64
    return {"descriptors": (f8, (n, d)), "labels": (i8, (n,)),
            "poses": (f8, (n, 2)), "true_kappa": (f8, (n,)),
            "features": (f8, (n, *cfg.feature_shape)),
            "ambiguity": (f8, (n,)), "prototypes": (f8, (c, d)),
            "class_poses": (f8, (c, 2)), "aliased_pairs": (i8, (None, 2)),
            **{f"split_{name}": (i8, (None,)) for name in SPLIT_NAMES}}


@contextmanager
def _scene_record(path, cfg: SceneConfig):
    """The scene record at `path`, open once its scene section is found
    equal to `cfg`'s; a JsonError at the first key that differs."""
    if not os.path.isfile(path):
        raise RecordFileError("no scene record; run gen first", path)
    scene = _section_json("scene", cfg)
    with _open_record(path) as archive:
        text = str(_record_field(archive, "scene", path, str, ()))
        try:
            recorded = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RecordFileError(f"invalid JSON: {exc.msg}", path,
                                  "scene") from exc
        if not isinstance(recorded, dict):
            raise RecordFileError("not a JSON object", path, "scene")
        for key in sorted(set(recorded) | set(scene)):
            if recorded.get(key) != scene.get(key):
                raise JsonError(
                    f"{os.fspath(path)} holds a scene with {key} = "
                    f"{recorded.get(key)!r}, but this run's config and "
                    f"--seed give {scene.get(key)!r}; give gen's --config "
                    "and --seed, or run gen with these",
                    f"$.scene.{key}")
        yield archive


def check_scene(path, cfg: SceneConfig) -> None:
    """`read_scene`'s first check alone, which match-eval makes: the
    record at `path` holds the scene of `cfg`."""
    with _scene_record(path, cfg):
        pass


# the fields of a scene record that give its rows' ground truth and splits
_ROW_FIELDS = ("labels", "poses", "true_kappa",
               *(f"split_{name}" for name in SPLIT_NAMES))


def _scene_rows(values: dict, cfg: SceneConfig, path) -> tuple:
    """(rows, splits) of a scene record's `values`: the Rows of its poses,
    true kappas and labels, and the split name -> row indices.  Labels
    and split rows must be in range, each split strictly ascending and the
    splits a partition of the rows; poses finite, and true kappas finite
    and >= 0."""
    n = len(values["labels"])
    splits = {name: values[f"split_{name}"] for name in SPLIT_NAMES}
    _check_indices(values["labels"], cfg.num_classes, path, "labels")
    for name, rows in splits.items():
        _check_indices(rows, n, path, f"split_{name}")
        if (np.diff(rows) <= 0).any():
            raise RecordFileError("rows not strictly ascending", path,
                                  f"split_{name}")
    if not np.array_equal(np.sort(np.concatenate(list(splits.values()))),
                          np.arange(n)):
        raise RecordFileError("the splits do not partition the rows", path)
    _check_finite(values["poses"], path, "poses")
    _check_finite(values["true_kappa"], path, "true_kappa", nonneg=True)
    return Rows(poses=values["poses"], true_kappa=values["true_kappa"],
                labels=values["labels"]), splits


def read_scene_rows(path, cfg: SceneConfig) -> tuple:
    """`_scene_rows` of the scene record at `path`, which eval reads: the
    record's key and its row fields alone, checked as `read_scene` checks
    them."""
    spec = _scene_fields(cfg)
    with _scene_record(path, cfg) as archive:
        values = {name: _record_field(archive, name, path, *spec[name])
                  for name in _ROW_FIELDS}
    return _scene_rows(values, cfg, path)


def read_scene(path, cfg: SceneConfig) -> SynthDataset:
    """The scene `write_scene` recorded for the SceneConfig `cfg`.

    A record of another section fails with a JsonError at the first key
    that differs (`$.scene.seed`), naming the file; a missing file, or a
    file that is not such a record, with a RecordFileError naming the file
    and the field (and the first descriptor or prototype row that is not
    finite and unit-norm, or the first pose, true kappa or feature row
    that is not finite).  Every array has the generator's bits; `raw` is
    derived from them only when joint training reads it.
    """
    with _scene_record(path, cfg) as archive:
        values = {name: _record_field(archive, name, path, dtype, shape)
                  for name, (dtype, shape) in _scene_fields(cfg).items()}
    rows, splits = _scene_rows(values, cfg, path)
    _check_indices(values["aliased_pairs"], cfg.num_classes, path,
                   "aliased_pairs")
    # the head's input; ambiguity and class_poses are gen's alone
    _check_finite(values["features"], path, "features")
    for name, rows_name in (("descriptors", "descriptor rows"),
                            ("prototypes", "prototype rows")):
        try:
            check_unit_rows(values[name], name=rows_name)
        except ValueError as exc:
            raise RecordFileError(str(exc), path, name) from exc
    return SynthDataset(
        config=cfg, descriptors=values["descriptors"], rows=rows,
        features=values["features"],
        ambiguity=values["ambiguity"], prototypes=values["prototypes"],
        class_poses=values["class_poses"],
        aliased_pairs=[(int(a), int(b)) for a, b in values["aliased_pairs"]],
        splits=splits)


# ---------------------------------------------------------------------------
# recorded retrieval

# Names the record's layout and the search that wrote it; change it when
# either changes (batch_knn's results, say), so older records stop matching.
_RETRIEVAL_FORMAT = b"kappa-sphere retrieval 2"
_KEY_CHUNK = 1 << 20  # most bytes of a file hashed per read


def inputs_key(bank_path, manifest_path) -> str:
    """The key of a recorded retrieval: sha256 of `_RETRIEVAL_FORMAT`, then
    of each file's length (u64) and exact bytes, bank first.  Neither file
    is parsed; `eval` takes the key before it parses them.

    Each file streams through one buffer of at most _KEY_CHUNK bytes.  Its
    length is the size fstat gives when it is opened; a file that then
    reads another number of bytes (it grew or shrank meanwhile) is an
    OSError naming it."""
    import hashlib  # here: loading OpenSSL costs every command a few ms

    h = hashlib.sha256(_RETRIEVAL_FORMAT)
    for path in (bank_path, manifest_path):
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            h.update(struct.pack("<Q", size))
            buf = memoryview(bytearray(min(size, _KEY_CHUNK) or 1))
            read = 0
            while got := fh.readinto(buf):
                h.update(buf[:got])
                read += got
        if read != size:
            raise OSError(f"{os.fspath(path)} changed while it was hashed: "
                          f"read {read} bytes, its size was {size}")
    return h.hexdigest()


def write_retrieval(path, key: str, db: Rows, queries: Rows,
                    results: RetrievalResult) -> None:
    """Record a top-K search of `queries` against `db` under `key`
    (`inputs_key` of the files their rows were read from): its (n, K) db
    row indices and cosines, and both sides' poses and kappas (none when
    a side has none).  A numpy-only .npz archive, written atomically."""
    sides = {"query": queries, "db": db}
    _write_record(
        path, key=np.array(key),
        ref_indices=np.asarray(results.ref_indices, dtype=np.int64),
        similarities=np.asarray(results.similarities, dtype=np.float64),
        **{f"{side}_poses": b.poses for side, b in sides.items()},
        **{f"{side}_kappas": b.kappas for side, b in sides.items()
           if b.kappas is not None})


def read_retrieval(path, key: str, k: int) -> tuple:
    """(db, queries, results): the Rows, poses and kappas, of the two
    sides of the search `write_retrieval` recorded under `key`, and its
    first k columns as a RetrievalResult.

    A miss is a RecordFileError naming the file and the command to run:
    no file (run eval first), a record under another key (other input
    bytes, or an older format: run eval again), or fewer than k columns
    (run eval with a K of at least k, unless k exceeds the db).  So is a file that is not an .npz
    archive, or a record under `key` that is not a valid one, with the
    field.  The query poses give n >= 1 and the db poses N: ref_indices
    must be (n, K), 1 <= K <= N, with every entry in [0, N); similarities
    must have its shape; a kappa field must be as long as its side's
    poses; poses and cosines must be finite, and kappas finite and >= 0.
    """
    if not os.path.isfile(path):
        raise RecordFileError("no recorded search; run eval first", path)
    f8 = np.float64
    with _open_record(path) as archive:
        if str(_record_field(archive, "key", path, str, ())) != key:
            raise RecordFileError("a search of other inputs; run eval again",
                                  path)
        values = {name: _record_field(archive, name, path, f8, (None, 2))
                  for name in ("query_poses", "db_poses")}
        n, rows = len(values["query_poses"]), len(values["db_poses"])
        order = _record_field(archive, "ref_indices", path, np.int64,
                              (n, None))
        values["similarities"] = _record_field(
            archive, "similarities", path, f8, order.shape)
        for side, length in (("query", n), ("db", rows)):
            name = f"{side}_kappas"
            if name in archive.files:
                values[name] = _record_field(archive, name, path, f8,
                                             (length,))
    if n == 0 or not 1 <= order.shape[1] <= rows:
        raise RecordFileError(
            f"shape {order.shape} does not fit {n} queries against the "
            f"{rows} rows of db_poses", path, "ref_indices")
    if order.min() < 0 or order.max() >= rows:
        raise RecordFileError(f"index outside [0, {rows}), the rows of "
                              "db_poses", path, "ref_indices")
    for name, value in values.items():
        _check_finite(value, path, name, nonneg=name.endswith("kappas"))
    if k > order.shape[1]:
        raise RecordFileError(
            f"a top-{order.shape[1]} search of {rows} db rows; " + (
                f"k = {k} exceeds the db" if k > rows
                else f"run eval with a K of at least {k}"), path)
    # contiguous, as batch_knn returns them
    return (Rows(values["db_poses"], values.get("db_kappas")),
            Rows(values["query_poses"], values.get("query_kappas")),
            RetrievalResult(
                ref_indices=np.ascontiguousarray(order[:, :k]),
                similarities=np.ascontiguousarray(
                    values["similarities"][:, :k])))


# ---------------------------------------------------------------------------
# run configuration

_SECTIONS = {"scene": SceneConfig, "train": TrainConfig, "lmcl": LmclConfig,
             "binning": BinningConfig}
_SECTION_KEYS = {name: {f.name for f in fields(cls)}
                 for name, cls in _SECTIONS.items()}
_SECTION_KEYS["binning"].remove("clamp")  # eval fixes clamping per method
_TOP_KEYS = {*_SECTIONS, "ks", "tau"}
_FLOAT_MAX = sys.float_info.max


def _section_json(name: str, section) -> dict:
    """The config keys of the section `name` as JSON holds them: an enum
    as its value, a tuple as a list."""
    values = {f.name: getattr(section, f.name) for f in fields(section)}
    return {key: v.value if isinstance(v, Enum)
            else list(v) if isinstance(v, tuple) else v
            for key, v in values.items() if key in _SECTION_KEYS[name]}


@dataclass(frozen=True)
class RunConfig:
    """A resolved run config: one dataclass per section, the K of Recall@K
    and ECE@K, and the positive radius tau.  The binning's clamp is the
    default, which eval replaces per method."""

    scene: SceneConfig = field(default_factory=SceneConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    lmcl: LmclConfig = field(default_factory=LmclConfig)
    binning: BinningConfig = field(default_factory=BinningConfig)
    ks: tuple = DEFAULT_KS
    tau: float = DEFAULT_TAU

    def to_json(self) -> dict:
        """The config's one JSON form: config.json holds it and every
        report embeds it."""
        return {**{name: _section_json(name, getattr(self, name))
                   for name in _SECTIONS},
                "ks": list(self.ks), "tau": self.tau}


def _check_keys(section: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise JsonError(f"unknown keys {unknown}", path)


def load_run_config(path=None, seed: int | None = None) -> RunConfig:
    """Resolve a run config: the defaults, the JSON document at `path` if
    given, and `seed`, if given, as the seed of its scene and its training.

    Unknown keys anywhere are rejected so typos cannot silently fall back
    to defaults, and every section is built once, so a bad value fails
    here with its JSON path rather than in a later command.
    """
    doc = {} if path is None else _read_json(path, "config")
    _check_keys(doc, _TOP_KEYS, "$")
    given = {section: doc.get(section, {}) for section in _SECTIONS}
    for section, allowed in _SECTION_KEYS.items():
        if not isinstance(given[section], dict):
            raise JsonError(f"{section} must be an object", f"$.{section}")
        _check_keys(given[section], allowed, f"$.{section}")
    if seed is not None:
        for section in ("scene", "train"):
            given[section] = {**given[section], "seed": seed}
    ks, tau = doc.get("ks", list(DEFAULT_KS)), doc.get("tau", DEFAULT_TAU)
    if (not isinstance(ks, list) or not ks
            or not set(map(type, ks)) <= {int} or min(ks) < 1):
        raise JsonError("ks must be a non-empty array of positive integers, "
                        f"got {ks!r}", "$.ks")
    # false for NaN, infinity and an int beyond the float range
    if type(tau) not in (int, float) or not 0 < tau <= _FLOAT_MAX:
        raise JsonError(f"tau must be a finite positive number, got {tau!r}",
                        "$.tau")
    return RunConfig(**{section: _section_config(section, values)
                        for section, values in given.items()},
                     ks=tuple(ks), tau=float(tau))


def _section_config(section: str, values: dict):
    """The dataclass of a config section from the `values` the config
    gives it (the rest keep their defaults).  A bad value, or one that
    fails a check of its own field, is located at its key; a violated
    constraint between keys at the section."""
    cls = _SECTIONS[section]
    defaults = cls()
    try:
        return cls(**{key: json_value(key, value, getattr(defaults, key))
                      for key, value in values.items()})
    except FieldError as exc:
        raise JsonError(str(exc), f"$.{section}.{exc.key}") from exc
    except ValueError as exc:
        raise JsonError(str(exc), f"$.{section}") from exc


# ---------------------------------------------------------------------------
# model state

def _head_to_dict(head: dict | None) -> dict | None:
    if head is None:
        return None
    # the one head's fixed settings stay in the record as constants, so
    # its layout does not change
    return {
        "variant": "aggregation",
        "gem_p": GEM_P,
        "proj_w": head["proj_w"].tolist(),
        "kappa_w": head["kappa_w"].tolist(),
        "kappa_b": head["kappa_b"].item(),
        "train_gem_p": False,
    }


def write_model_state(path, head: dict | None = None,
                      encoder: np.ndarray | None = None,
                      prototypes: np.ndarray | None = None,
                      extra: dict | None = None) -> None:
    """Serialize trained parameters as JSON (floats round-trip exactly).
    A record of the run, like history.csv: no command reads it back."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "head": _head_to_dict(head),
        "encoder": None if encoder is None else encoder.tolist(),
        "prototypes": None if prototypes is None else prototypes.tolist(),
        "extra": extra or {},
    }
    atomic_write_text(path, json.dumps(doc, sort_keys=True))


# ---------------------------------------------------------------------------
# reports

def report_document(body: dict, run: RunConfig) -> str:
    """Stable, versioned report JSON embedding the run config and its
    scene seed."""
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": run.scene.seed,
        "config": run.to_json(),
        **body,
    }
    # a NaN or infinity would be written as a bare token that is not JSON
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def read_report(path) -> dict:
    """The report document at `path` as JSON holds it, with each entry of
    its `reports` decoded by `CalibrationReport.from_dict`.  Every number
    is one the writer can produce, and each entry is the one its name and
    the document say: its level the document's ("query" or "match"), its
    method one that scores.METHODS has at that level, and its name
    "<method>@<k>" (query level) or "<method>" with the document's k
    (match level), so `report --svg` names each diagram after a distinct
    entry.  Each `unsupported` entry is a method of that level with no
    report and a string reason.  Checked whole, so a malformed document
    fails with a located JsonError before a caller reads any of it."""
    doc = _read_json(path, "report")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        raise JsonError("unsupported report schema "
                        f"{doc.get('schema_version')!r}", "$.schema_version")
    for key, types in (("reports", {dict}), ("recalls", {dict, type(None)}),
                       ("unsupported", {dict, type(None)})):
        if type(doc.get(key)) not in types:
            raise JsonError(f"missing or malformed field {key!r}", f"$.{key}")
    level = doc.get("level")
    try:
        json_value("seed", doc.get("seed"), 0)
        if level not in LEVELS:
            raise FieldError("level", f"one of {list(LEVELS)}", level)
        if level == "match":
            json_value("k", doc.get("k"), 0)
        if doc.get("spearman_kappa") is not None:
            json_value("spearman_kappa", doc["spearman_kappa"], 0.0)
        for k, recall in (doc.get("recalls") or {}).items():
            if not (k.isdecimal() and str(int(k)) == k and int(k) >= 1):
                raise FieldError(f"recalls.{k}", "a recall key must be a "
                                 f"positive integer, got {k!r}")
            json_value(f"recalls.{k}", recall, 0.0)
    except FieldError as exc:
        raise JsonError(str(exc), f"$.{exc.key}") from exc
    # `report --svg` names each diagram after its entry's method and level
    methods = methods_at(level)
    allowed = {"method": methods, "level": (level,)}
    reports = {}
    for name, entry in doc["reports"].items():
        if not isinstance(entry, dict):
            raise JsonError("a report entry must be an object",
                            f"$.reports.{name}")
        try:
            rep = reports[name] = CalibrationReport.from_dict(entry)
            for key, values in allowed.items():
                if getattr(rep, key) not in values:
                    raise FieldError(key, f"one of {list(values)}",
                                     getattr(rep, key))
        except FieldError as exc:
            raise JsonError(str(exc), f"$.reports.{name}.{exc.key}") from exc
        want = f"{rep.method}@{rep.k}" if level == "query" else rep.method
        if name != want:
            raise JsonError(f"an entry of method {rep.method!r} at k "
                            f"{rep.k} must be named {want!r}",
                            f"$.reports.{name}")
        if level == "match" and rep.k != doc["k"]:
            raise JsonError("a match-level entry must be at the document's "
                            f"k {doc['k']}, got {rep.k}", f"$.reports.{name}")
    reported = {rep.method for rep in reports.values()}
    for name, reason in (doc.get("unsupported") or {}).items():
        if name not in methods or name in reported or type(reason) is not str:
            raise JsonError(f"an unsupported entry must name one of "
                            f"{list(methods)} that has no report and give a "
                            f"string, got {name!r}: {reason!r}",
                            f"$.unsupported.{name}")
    return {**doc, "reports": reports}


def history_csv(history) -> str:
    """Training history as CSV: a header of the first row's keys, which
    every row of one fit has, then one line per epoch."""
    cols = list(history[0])
    lines = [cols, *([row[col] for col in cols] for row in history)]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)
