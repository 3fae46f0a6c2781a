"""Binary bank format, manifest, run config, and model state I/O."""

import csv
import io
import json
import os
import stat
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kappa_sphere.fileio import (_KEY_CHUNK, REPORT_SCHEMA_VERSION,
                                 BankFormatError, JsonError, RecordFileError,
                                 RunConfig, atomic_write_text, inputs_key,
                                 load_run_config, read_bank, read_manifest,
                                 read_retrieval, read_scene, read_scene_rows,
                                 report_document, write_bank, write_manifest,
                                 write_model_state, write_retrieval,
                                 write_scene, history_csv)
from kappa_sphere.calibration import BinningConfig, BinStrategy
from kappa_sphere.head import init_head
from kappa_sphere.retrieval import DEFAULT_KS, DEFAULT_TAU, Rows, batch_knn
from kappa_sphere.synth import SPLIT_NAMES, SceneConfig, generate_scene
from kappa_sphere.training import (LmclConfig, TrainConfig, TrainMode,
                                   train_joint, train_post)
from oracles import SAMPLER_KAPPA_LIMITS, unit_rows, whole_file_key


class TestBankFormat:
    def test_round_trip_bit_identical_files(self, rng, tmp_path):
        desc = unit_rows(rng, 17, 8)
        p1, p2 = tmp_path / "a.kpb", tmp_path / "b.kpb"
        write_bank(p1, desc)
        write_bank(p2, read_bank(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, rng, tmp_path):
        desc = unit_rows(rng, 3, 5)
        path = tmp_path / "bank.kpb"
        write_bank(path, desc)
        raw = path.read_bytes()
        magic, version, dim, count = struct.unpack_from("<4sIIQ", raw)
        assert magic == b"KPB1"
        assert (version, dim, count) == (1, 5, 3)
        assert len(raw) == 20 + 3 * 5 * 4

    def test_load_renormalizes_float32_quantization(self, rng, tmp_path):
        desc = unit_rows(rng, 10, 32)
        path = tmp_path / "bank.kpb"
        write_bank(path, desc)
        loaded = read_bank(path)
        np.testing.assert_allclose(np.linalg.norm(loaded, axis=1), 1.0,
                                   atol=1e-15)
        np.testing.assert_allclose(loaded, desc, atol=1e-6)

    @pytest.mark.parametrize("n, d", [(1, 1), (17, 8), (3000, 64)])
    def test_load_has_the_bits_of_dividing_by_the_norms(self, rng, tmp_path,
                                                        n, d):
        # rows off unit length by up to the tolerance's half, normalized
        # in place with the bits of a division by their float64 norms
        desc = unit_rows(rng, n, d) * rng.uniform(1 - 5e-4, 1 + 5e-4, (n, 1))
        path = tmp_path / "bank.kpb"
        write_bank(path, desc)
        stored = desc.astype(np.float32).astype(np.float64)
        want = stored / np.linalg.norm(stored, axis=1)[:, None]
        assert read_bank(path).tobytes() == want.tobytes()

    def test_largest_finite_row_fails_the_norm_check(self, rng, tmp_path):
        # float32's largest value squares far inside the float64 range, so
        # a row of it has a finite norm: it is rejected as a norm beyond
        # the tolerance, at its offset, not as a non-finite row
        path = tmp_path / "bank.kpb"
        write_bank(path, unit_rows(rng, 5, 4))
        raw = bytearray(path.read_bytes())
        row_off = 20 + 2 * 4 * 4
        big = float(np.finfo(np.float32).max)
        raw[row_off:row_off + 16] = struct.pack("<4f", big, -big, big, big)
        path.write_bytes(bytes(raw))
        with pytest.raises(BankFormatError, match="row 2 norm") as exc:
            read_bank(path)
        assert exc.value.offset == row_off
        assert "non-finite" not in str(exc.value)

    def test_bad_magic_offset_zero(self, rng, tmp_path):
        path = tmp_path / "bank.kpb"
        write_bank(path, unit_rows(rng, 2, 4))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BankFormatError) as exc:
            read_bank(path)
        assert exc.value.offset == 0

    def test_bad_version_offset_four(self, rng, tmp_path):
        path = tmp_path / "bank.kpb"
        write_bank(path, unit_rows(rng, 2, 4))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(BankFormatError) as exc:
            read_bank(path)
        assert exc.value.offset == 4

    def test_truncated_payload(self, rng, tmp_path):
        path = tmp_path / "bank.kpb"
        write_bank(path, unit_rows(rng, 4, 4))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(BankFormatError):
            read_bank(path)

    def test_corrupt_row_rejected_with_offset(self, rng, tmp_path):
        path = tmp_path / "bank.kpb"
        write_bank(path, unit_rows(rng, 5, 4))
        raw = bytearray(path.read_bytes())
        # scale row 2 by writing garbage over its 4 floats
        row_off = 20 + 2 * 4 * 4
        raw[row_off:row_off + 16] = struct.pack("<4f", 5.0, 5.0, 5.0, 5.0)
        path.write_bytes(bytes(raw))
        with pytest.raises(BankFormatError) as exc:
            read_bank(path)
        assert exc.value.offset == row_off
        assert "row 2" in str(exc.value)

    def test_nonfinite_row_rejected_with_offset(self, rng, tmp_path):
        # a NaN row has a NaN norm, which no norm-deviation test rejects
        path = tmp_path / "bank.kpb"
        write_bank(path, unit_rows(rng, 5, 4))
        raw = bytearray(path.read_bytes())
        row_off = 20 + 3 * 4 * 4
        raw[row_off + 4:row_off + 8] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(BankFormatError) as exc:
            read_bank(path)
        assert exc.value.offset == row_off
        assert "row 3" in str(exc.value) and "non-finite" in str(exc.value)

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            write_bank(tmp_path / "x.kpb", np.empty((0, 4)))


class TestManifest:
    """write_manifest records every field of the bank's Rows; read_manifest
    reads back its kappas alone, as the scene record gives the others."""

    # the SPLIT_NAMES index of each of make_bank's 9 rows
    SPLIT = np.repeat(np.arange(3, dtype=np.int8), (5, 2, 2))

    def make_bank(self, rng, n=9):
        return Rows(labels=np.arange(n) % 3, poses=rng.uniform(0, 10, (n, 2)),
                    true_kappa=rng.uniform(5, 500, n),
                    kappas=rng.uniform(1, 100, n))

    def test_round_trip(self, rng, tmp_path):
        # JSON's float repr round-trips, so the kappas keep their bits, and
        # the rows the package no longer reads keep theirs for other readers
        bank = self.make_bank(rng)
        path = tmp_path / "manifest.json"
        write_manifest(path, bank, self.SPLIT)
        assert _same_bits(read_manifest(path, len(bank)), bank.kappas)
        doc = json.loads(path.read_text())
        assert doc["ids"] == list(range(len(bank)))
        for name in ("labels", "poses", "true_kappa"):
            assert _same_bits(np.asarray(doc[name]), getattr(bank, name))

    def test_optional_fields_absent(self, rng, tmp_path):
        # a bank has no kappa before fit
        bank = Rows(self.make_bank(rng).poses, labels=np.arange(9) % 3)
        path = tmp_path / "manifest.json"
        write_manifest(path, bank, self.SPLIT)
        assert read_manifest(path, len(bank)) is None

    @pytest.mark.parametrize("values, path", [
        ({1: np.inf, 2: -3.0}, "$.kappas[1]"),  # the first bad one
        ({2: -3.0}, "$.kappas[2]"),  # would be floored to 1.0
        ({0: np.nan}, "$.kappas[0]"),
    ], ids=["inf before negative", "negative", "NaN"])
    def test_non_finite_or_negative_value_located(self, rng, tmp_path,
                                                  values, path):
        # json writes and loads NaN and Infinity as bare tokens
        bank = self.make_bank(rng)
        for index, value in values.items():
            bank.kappas[index] = value
        manifest = tmp_path / "manifest.json"
        write_manifest(manifest, bank, self.SPLIT)
        with pytest.raises(JsonError) as exc:
            read_manifest(manifest, len(bank))
        assert exc.value.path == path

    @pytest.mark.parametrize("at, value, path", [
        (None, 5, "$.kappas"), (None, {"0": 1.0}, "$.kappas"),
        (4, "x", "$.kappas[4]"), (4, True, "$.kappas[4]"),
        (4, [1.0], "$.kappas[4]"), (4, None, "$.kappas[4]"),
        (4, 10**400, "$.kappas")],  # fails the conversion, at the field
        ids=["number", "object", "string item", "bool item", "array item",
             "null item", "int beyond float"])
    def test_item_type_located(self, rng, tmp_path, at, value, path):
        # the field is null or an array of numbers, and a bool is no number
        bank = self.make_bank(rng)
        manifest = tmp_path / "manifest.json"
        write_manifest(manifest, bank, self.SPLIT)
        doc = json.loads(manifest.read_text())
        if at is None:
            doc["kappas"] = value
        else:
            doc["kappas"][at] = value
        manifest.write_text(json.dumps(doc))
        with pytest.raises(JsonError) as exc:
            read_manifest(manifest, len(bank))
        assert exc.value.path == path

    def test_incomplete_split_rejected_on_write(self, rng, tmp_path):
        # one code per bank row: a code array of another length is refused
        # and nothing is written
        bank = self.make_bank(rng)
        for split in (self.SPLIT[:5], np.append(self.SPLIT, 0)):
            with pytest.raises(ValueError, match="one code in"):
                write_manifest(tmp_path / "m.json", bank, split)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("code", [3, -1])
    def test_split_code_out_of_range_rejected_on_write(self, rng, tmp_path,
                                                       code):
        # a -1 would index SPLIT_NAMES from its end
        bank, split = self.make_bank(rng), self.SPLIT.copy()
        split[4] = code
        with pytest.raises(ValueError, match=r"one code in \[0, 3\)"):
            write_manifest(tmp_path / "m.json", bank, split)
        assert list(tmp_path.iterdir()) == []

    def test_split_column_names_each_row(self, rng, tmp_path):
        # the column names each row's split from its code
        bank = self.make_bank(rng)
        split = rng.permutation(self.SPLIT)
        path = tmp_path / "manifest.json"
        write_manifest(path, bank, split)
        want = [SPLIT_NAMES[code] for code in split]
        assert json.loads(path.read_text())["split"] == want

    def test_length_mismatch(self, rng, tmp_path):
        bank = self.make_bank(rng)
        path = tmp_path / "manifest.json"
        write_manifest(path, bank, self.SPLIT)
        with pytest.raises(JsonError) as exc:
            read_manifest(path, 5)
        assert exc.value.path == "$.kappas"
        assert "kappas length 9 != bank count 5" in str(exc.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{not json")
        with pytest.raises(JsonError):
            read_manifest(path, 2)


class TestRunConfig:
    def test_defaults_build_objects(self):
        run = load_run_config()
        assert run == RunConfig()
        assert run.scene.num_classes == 32
        assert run.train.mode is TrainMode.POST_TRAINING

    def test_file_layer_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scene": {"num_classes": 8},
                                    "tau": 50.0}))
        run = load_run_config(path)
        assert run.scene.num_classes == 8
        assert run.scene.descriptor_dim == 64  # untouched default
        assert run.tau == 50.0

    def test_seed_overrides_both_seeds(self, tmp_path):
        # --seed sets the scene's and the training's seed; the rest of the
        # file stands
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scene": {"num_classes": 8, "seed": 1},
                                    "train": {"seed": 2, "lr": 0.05}}))
        run = load_run_config(path, seed=5)
        assert (run.scene.seed, run.train.seed) == (5, 5)
        assert (run.scene.num_classes, run.train.lr) == (8, 0.05)
        assert load_run_config(seed=5) == RunConfig(
            scene=SceneConfig(seed=5), train=TrainConfig(seed=5))

    @pytest.mark.parametrize("d, largest", SAMPLER_KAPPA_LIMITS)
    def test_kappa_max_beyond_the_sampler_located(self, tmp_path, d,
                                                  largest):
        # the scene's largest kappa must be one the sampler draws in its
        # descriptor_dim: the config is refused before gen writes anything
        path = tmp_path / "config.json"
        beyond = float(np.nextafter(largest, np.inf))
        for kappa_max in (largest, beyond):
            path.write_text(json.dumps({"scene": {"descriptor_dim": d,
                                                  "kappa_max": kappa_max}}))
            if kappa_max == largest:
                assert load_run_config(path).scene.kappa_max == largest
                continue
            with pytest.raises(JsonError) as exc:
                load_run_config(path)
            assert exc.value.path == "$.scene.kappa_max"
            assert str(exc.value).startswith(
                f"kappa_max must be small enough for the vMF sampler in "
                f"d={d}, got {beyond!r}")

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scne": {}}))
        with pytest.raises(JsonError, match="scne"):
            load_run_config(path)

    def test_unknown_section_key_rejected(self, tmp_path):
        # the second is a train key that earlier versions wrote to
        # config.json: such a run directory is rejected at the section
        path = tmp_path / "config.json"
        for key, value in (("learning_rate", 0.1),
                           ("anchor_mode", "class_prototype")):
            path.write_text(json.dumps({"train": {key: value}}))
            with pytest.raises(JsonError, match=key) as exc:
                load_run_config(path)
            assert exc.value.path == "$.train"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2")
        with pytest.raises(JsonError):
            load_run_config(path)

    def test_defaults_round_trip(self, monkeypatch, tmp_path):
        # the section dataclasses are the one source of run defaults: the
        # default config's JSON builds them back, and fit_head's fallback
        # is it
        from kappa_sphere import pipeline

        path = tmp_path / "config.json"
        path.write_text(json.dumps(RunConfig().to_json()))
        run = load_run_config(path)
        assert (run.scene, run.train, run.lmcl, run.binning) == (
            SceneConfig(), TrainConfig(), LmclConfig(), BinningConfig())
        assert (run.ks, run.tau) == (DEFAULT_KS, DEFAULT_TAU)

        seen = []
        monkeypatch.setattr(pipeline, "train_post",
                            lambda *args, **kwargs: seen.append(args[5]))
        scene = SceneConfig(num_classes=8, images_per_class=10,
                            descriptor_dim=16, seed=3)
        pipeline.fit_head(generate_scene(scene))
        assert seen == [load_run_config(seed=3).train]

    def test_empty_ks_rejected(self, tmp_path):
        # eval has no K to report and match-eval none to score
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"ks": []}))
        with pytest.raises(JsonError, match="non-empty") as exc:
            load_run_config(path)
        assert exc.value.path == "$.ks"

    def test_binning_clamp_rejected(self, tmp_path):
        # eval clamps per method, so a config clamp would be ignored
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"binning": {"clamp": "none"}}))
        with pytest.raises(JsonError, match=r"clamp.*\$\.binning"):
            load_run_config(path)


class TestModelState:
    """model.json is a record of the run, like history.csv: no command reads
    it back.  Its floats round-trip exactly through the JSON."""

    @staticmethod
    def load(path):
        with open(path) as fh:
            return json.load(fh)

    def test_head_round_trip(self, rng, tmp_path):
        head = init_head((8, 4, 4), hidden=6, rng=rng)
        head["kappa_b"][0] = 0.3125  # init_head's bias is 0.0: write another
        path = tmp_path / "model.json"
        write_model_state(path, head=head, extra={"note": "x"})
        doc = self.load(path)
        for name in ("kappa_w", "proj_w"):
            assert _same_bits(np.asarray(doc["head"][name]),
                              head[name]), name
        assert doc["head"]["kappa_b"] == 0.3125
        assert isinstance(doc["head"]["kappa_b"], float)
        assert doc["extra"] == {"note": "x"}

    def test_full_state_round_trip(self, rng, tmp_path):
        head = init_head((8, 4, 4), hidden=5, rng=rng)
        head["kappa_b"][0] = -0.1  # no exact binary fraction; repr round-trips
        encoder = rng.standard_normal((4, 6))
        protos = unit_rows(rng, 3, 4)
        path = tmp_path / "model.json"
        write_model_state(path, head=head, encoder=encoder, prototypes=protos)
        doc = self.load(path)
        # the head block keeps the one head's fixed settings as constants
        assert set(doc["head"]) == {"variant", "gem_p", "proj_w", "kappa_w",
                                    "kappa_b", "train_gem_p"}
        assert doc["head"]["variant"] == "aggregation"
        assert doc["head"]["gem_p"] == 3.0
        assert isinstance(doc["head"]["gem_p"], float)
        assert doc["head"]["train_gem_p"] is False
        for name in ("kappa_w", "proj_w"):
            assert _same_bits(np.asarray(doc["head"][name]),
                              head[name]), name
        assert doc["head"]["kappa_b"] == -0.1
        assert _same_bits(np.asarray(doc["encoder"]), encoder)
        assert _same_bits(np.asarray(doc["prototypes"]), protos)

    def test_none_head(self, tmp_path):
        path = tmp_path / "model.json"
        write_model_state(path)
        assert self.load(path) == {
            "schema_version": REPORT_SCHEMA_VERSION, "head": None,
            "encoder": None, "prototypes": None, "extra": {}}


class TestArtifacts:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_follows_umask(self, tmp_path, umask):
        path = tmp_path / "a.json"
        old = os.umask(umask)
        try:
            atomic_write_text(path, "{}")
            atomic_write_text(path, "[]")  # replacing keeps the same mode
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask
        assert path.read_text() == "[]"

    def test_report_rejects_non_finite_values(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                report_document({"ece": bad}, RunConfig())
        json.loads(report_document({"spearman_kappa": None}, RunConfig()))


def _same_bits(got, want) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestSceneRecord:
    """gen records the float64 scene in scene.npz; fit and train read it
    back instead of generating the scene again."""

    SMALL = {"num_classes": 8, "images_per_class": 10, "descriptor_dim": 16}

    @pytest.mark.parametrize("scene", [{}, {"aliasing_rate": 0.0}],
                             ids=["default", "no aliasing"])
    def test_read_back_is_the_generated_scene(self, tmp_path, scene):
        cfg = SceneConfig(**scene)
        want = generate_scene(cfg)
        path = tmp_path / "scene.npz"
        write_scene(path, want)
        got = read_scene(path, cfg)
        assert got.config == want.config
        for name in ("labels", "poses", "true_kappa"):
            assert _same_bits(getattr(got.rows, name),
                              getattr(want.rows, name)), name
        assert got.rows.kappas is None and want.rows.kappas is None
        for name in ("descriptors", "features", "raw", "prototypes",
                     "split"):
            assert _same_bits(getattr(got, name), getattr(want, name)), name
        assert want.split.dtype == np.int8
        assert set(got.splits) == set(want.splits) == set(SPLIT_NAMES)
        for name in SPLIT_NAMES:
            assert _same_bits(got.splits[name], want.splits[name]), name
        assert got.aliased_pairs == want.aliased_pairs
        assert {type(v) for pair in got.aliased_pairs for v in pair} <= {int}
        assert (want.aliased_pairs == []) == ("aliasing_rate" in scene)
        # eval's reader of the rows gives the same bits
        rows, splits = read_scene_rows(path, cfg)
        assert rows.kappas is None
        for name in ("labels", "poses", "true_kappa"):
            assert _same_bits(getattr(rows, name),
                              getattr(want.rows, name)), name
        assert set(splits) == set(SPLIT_NAMES)
        for name in SPLIT_NAMES:
            assert _same_bits(splits[name], want.splits[name]), name

    @pytest.fixture()
    def recorded(self, tmp_path):
        cfg = SceneConfig(**self.SMALL)
        path = tmp_path / "scene.npz"
        write_scene(path, generate_scene(cfg))
        return path, cfg

    @pytest.mark.parametrize("garble, field", [
        ("float32 descriptors", "descriptors"),
        ("one label short", "labels"),
        ("label out of range", "labels"),
        ("pickled features", "features"),
        ("no prototypes", "prototypes"),
        ("prototype row 2 off the sphere", "prototypes"),
        ("prototype row 5 NaN", "prototypes"),
        ("descriptor row 3 off the sphere", "descriptors"),
        ("descriptor row 7 NaN", "descriptors"),
        ("pair out of range", "aliased_pairs"),
        ("scene not JSON", "scene"),
        ("split code 3", "split"),
        ("split code -1", "split"),
        ("poses row 3 nan", "poses"),
        ("poses row 8 -inf", "poses"),
        ("true_kappa row 5 -2", "true_kappa"),
        ("true_kappa row 3 inf", "true_kappa"),
        ("features row 7 inf", "features"),
    ])
    def test_bad_record_fails_with_its_location(self, recorded, garble,
                                                field):
        # a row that is not finite (and unit-norm) is named with its field;
        # eval's reader of the rows fails as read_scene does on them
        path, cfg = recorded
        with np.load(path) as npz:
            record = dict(npz)
        row = None
        if garble.startswith(("prototype row", "descriptor row")):
            row = int(garble.split()[2])
            name = garble.split()[0] + "s"
            record[name][row] *= np.nan if garble.endswith("NaN") else 1.01
        elif " row " in garble:  # "<field> row <row> <value>"
            row = int(garble.split()[2])
            value = record[field]
            value[(row,) + (0,) * (value.ndim - 1)] = float(garble.split()[3])
        elif garble == "float32 descriptors":
            record["descriptors"] = record["descriptors"].astype(np.float32)
        elif garble == "one label short":
            record["labels"] = record["labels"][1:]
        elif garble == "label out of range":
            record["labels"][-1] = self.SMALL["num_classes"]
        elif garble == "pickled features":
            record["features"] = record["features"].astype(object)
        elif garble == "no prototypes":
            del record["prototypes"]
        elif garble == "pair out of range":
            record["aliased_pairs"][0, 1] = -1
        elif garble == "scene not JSON":
            record["scene"] = np.array("{seed")
        else:  # "split code <code>"
            record["split"][4] = int(garble.split()[2])
        np.savez(path, **record)
        readers = [read_scene] + [read_scene_rows] * (field in {
            "scene", "labels", "poses", "true_kappa", "split"})
        for reader in readers:
            with pytest.raises(RecordFileError) as exc:
                reader(path, cfg)
            assert exc.value.path == str(path) and exc.value.field == field
            if field in ("prototypes", "descriptors") and row is not None:
                assert f"unit-norm; row {row} has norm" in str(exc.value)
            elif row is not None:
                assert str(exc.value).endswith(
                    f" at row {row} (in {path}, field {field!r})")
            elif field == "split":
                assert str(exc.value).startswith("index outside [0, 3) ")

    @pytest.mark.parametrize("scene, key", [
        ({"images_per_class": 20}, "images_per_class"),
        ({"feature_shape": (4, 4, 4)}, "feature_shape")])
    def test_another_scene_fails_at_its_key(self, recorded, scene, key):
        # a record is only ever read for the scene it holds: a config that
        # differs is an error, never a silent regeneration
        path, _ = recorded
        cfg = SceneConfig(**{**self.SMALL, **scene})
        with pytest.raises(JsonError) as exc:
            read_scene(path, cfg)
        assert exc.value.path == f"$.scene.{key}"
        assert str(path) in str(exc.value)

    def test_failed_write_keeps_the_old_file(self, recorded, monkeypatch):
        # a record streams into its temp file: a write that fails midway
        # removes the temp file and leaves the previous record in place
        path, cfg = recorded
        before = path.read_bytes()
        dataset = read_scene(path, cfg)

        def failing(fh, **arrays):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", failing)
        with pytest.raises(OSError, match="disk full"):
            write_scene(path, dataset)
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == ["scene.npz"]


def _side_rows(side) -> Rows:
    """The Rows of a side of TestRetrievalRecord's `banks`."""
    return Rows(**{k: v for k, v in side.items() if k != "descriptors"})


class TestRetrievalRecord:
    @pytest.fixture()
    def banks(self, rng):
        def bank(n):  # a side's descriptors, then the fields of its Rows
            return {"descriptors": unit_rows(rng, n, 6),
                    "labels": np.zeros(n, dtype=np.int64),
                    "poses": rng.uniform(0, 9, (n, 2)),
                    "kappas": rng.uniform(1, 9, n)}
        return bank(30), bank(7)

    @staticmethod
    def _key(tmp_path, db, queries) -> str:
        """inputs_key of the bank and manifest holding `db` then
        `queries`."""
        both = {name: np.concatenate([db[name], queries[name]])
                for name in db}
        split = np.repeat(np.int8([1, 2]),
                          (len(db["poses"]), len(queries["poses"])))
        bank, manifest = tmp_path / "bank.kpb", tmp_path / "manifest.json"
        write_bank(bank, both["descriptors"])
        write_manifest(manifest, _side_rows(both), split)
        return inputs_key(bank, manifest)

    def test_prefix_round_trip(self, banks, tmp_path):
        db, queries = banks
        path = tmp_path / "retrieval.npz"
        write_retrieval(path, "key", _side_rows(db), _side_rows(queries),
                        batch_knn(queries["descriptors"], db["descriptors"],
                                  10))
        for k in (1, 4, 10):
            got_db, got_queries, got = read_retrieval(path, "key", k)
            want = batch_knn(queries["descriptors"], db["descriptors"], k)
            for name in ("ref_indices", "similarities"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
            for side, bank in ((got_db, db), (got_queries, queries)):
                np.testing.assert_array_equal(side.poses, bank["poses"])
                np.testing.assert_array_equal(side.kappas, bank["kappas"])
        # a miss names the file and the command that writes a record
        for where, key, k, command in (
                (path, "key", 11, "run eval with a K of at least 11"),
                (path, "key", 31, "k = 31 exceeds the db"),  # of 30 rows
                (path, "another key", 1, "run eval again"),
                (tmp_path / "none.npz", "key", 1, "run eval first")):
            with pytest.raises(RecordFileError, match=command) as exc:
                read_retrieval(where, key, k)
            assert exc.value.path == str(where) and exc.value.field is None

    @pytest.mark.parametrize("field", ["descriptors"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_key_covers_every_search_input(self, banks, tmp_path, field,
                                           side):
        key = self._key(tmp_path, *banks)
        changed = list(banks)
        values = banks[side][field][::-1].copy()
        changed[side] = {**banks[side], field: values}
        assert self._key(tmp_path, *changed) != key

    @pytest.mark.parametrize("field", ["poses", "kappas"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_key_covers_what_match_eval_scores(self, banks, tmp_path, field,
                                               side):
        # a hit scores the recorded poses and kappas, so they are keyed too
        key = self._key(tmp_path, *banks)
        changed = list(banks)
        values = banks[side][field].copy()
        values[-1] += 1.0
        changed[side] = {**banks[side], field: values}
        assert self._key(tmp_path, *changed) != key

    def test_key_hashes_bytes_without_parsing_them(self, tmp_path):
        # any bytes hash, and a byte moved across the two files' boundary
        # changes the key
        bank, manifest = tmp_path / "bank.kpb", tmp_path / "manifest.json"
        bank.write_bytes(b"not a bank")
        manifest.write_bytes(b"{not json")
        key = inputs_key(bank, manifest)
        # the key these bytes had when each file was read whole: a record
        # written then is still a hit
        assert key == ("b4269678f8280c0a4790ed0901f3b3be"
                       "47e249949085a165acda3b21b6253fb4")
        bank.write_bytes(b"not a bank{")
        manifest.write_bytes(b"not json")
        assert inputs_key(bank, manifest) != key

    @pytest.mark.parametrize("sizes", [
        (0, 1), (20, 4096), (_KEY_CHUNK + 1, 3 * _KEY_CHUNK + 7)],
        ids=["empty", "shorter than a chunk", "several chunks"])
    def test_key_streams_the_whole_files(self, tmp_path, sizes):
        # streamed through one bounded buffer, each file hashes as if read
        # whole
        rng = np.random.default_rng(sizes[1])
        paths = tmp_path / "bank.kpb", tmp_path / "manifest.json"
        for path, size in zip(paths, sizes):
            path.write_bytes(rng.bytes(size))
        assert inputs_key(*paths) == whole_file_key(*paths)
        assert inputs_key(*paths[::-1]) == whole_file_key(*paths[::-1])

    @pytest.mark.parametrize("size", [100, _KEY_CHUNK + 100])
    @pytest.mark.parametrize("delta", [-3, 5], ids=["grew", "shrank"])
    @pytest.mark.parametrize("which", [0, 1], ids=["bank", "manifest"])
    def test_a_file_that_changes_while_hashed_fails(self, tmp_path,
                                                    monkeypatch, size, delta,
                                                    which):
        # the length hashed is the size fstat gave; a file that then reads
        # more or fewer bytes is an OSError naming it
        paths = tmp_path / "bank.kpb", tmp_path / "manifest.json"
        for path in paths:
            path.write_bytes(b"x" * size)
        real, changed = os.fstat, os.stat(paths[which]).st_ino

        def fstat(fd):
            st = real(fd)
            if st.st_ino != changed:
                return st
            values = list(st[:10])
            values[stat.ST_SIZE] += delta
            return os.stat_result(values)

        with monkeypatch.context() as m:
            m.setattr(os, "fstat", fstat)
            with pytest.raises(OSError) as exc:
                inputs_key(*paths)
        assert str(paths[which]) in str(exc.value)
        assert f"its size was {size + delta}" in str(exc.value)

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "retrieval.npz"
        np.save(path, np.zeros(3))
        os.replace(str(path) + ".npy", path)
        with pytest.raises(RecordFileError) as exc:
            read_retrieval(path, "key", 1)
        assert exc.value.path == str(path) and exc.value.field is None


class TestHistoryCsv:
    def test_reads_back_every_trainer_history(self):
        # history.csv holds the rows `_fit` makes: every row of one fit has
        # the first row's keys, a watched metric NaN when nothing is
        # evaluated; at lam = 0 joint training watches no ece1
        rng = np.random.default_rng(0)
        unit = unit_rows(rng, 12, 6)
        features, labels = rng.random((12, 3)), np.arange(12) % 4
        raw = rng.standard_normal((12, 5))
        head = init_head((3, 2, 2), hidden=4, rng=rng)
        encoder = rng.standard_normal((6, 5))
        cfg = TrainConfig(max_epochs=6, warmup=0, patience=1)

        def joint(lam, hook):
            return train_joint(features, raw, labels, encoder, unit[:4], head,
                               TrainConfig(**{**vars(cfg), "lam": lam}),
                               LmclConfig(), eval_hook=hook)[3]

        cases = [
            (["metric"], train_post(features, unit, labels, unit[:4], head,
                                    cfg)[1]),
            (["metric"], train_post(features, unit, labels, unit[:4], head,
                                    cfg, lambda h: h["kappa_b"][0])[1]),
            (["recall1", "ece1"], joint(0.5, lambda e, p, h: (
                e[0, 0], p[0, 0]))),
            (["recall1"], joint(0.0, lambda e, p, h: (e[0, 0],)))]
        for watched, history in cases:
            rows = list(csv.DictReader(io.StringIO(history_csv(history))))
            assert list(rows[0]) == ["epoch", "loss", *watched, "phase"]
            assert rows == [{key: str(value) for key, value in row.items()}
                            for row in history]
        assert {row["phase"] for row in cases[2][1]} == {1, 2}


# JSON values of every type; `_not_of` keeps those of other types
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=1))


def _not_of(*types):
    return _JSON_VALUES.filter(lambda v: type(v) not in types)


# floats that json writes and loads as the bare NaN and Infinity tokens
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


class TestBoundaryProperties:
    """Type-substituted and truncated manifest kappas and config fields
    raise a JsonError at the field's JSON path, or at the line of a
    truncated file, and a corrupted bank raises BankFormatError at its
    byte offset, never anything else."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bank_corruption(self, data):
        count, dim = 6, 5
        rows = unit_rows(np.random.default_rng(0), count, dim)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bank.kpb")
            write_bank(path, rows)
            raw = bytearray(open(path, "rb").read())
            how = data.draw(st.sampled_from(
                ["truncate", "magic", "version", "dim", "count", "scale",
                 "non_finite"]), label="how")
            if how == "truncate":
                raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
                # the header's shape asks for more bytes than the file has
                expected = len(raw)
            elif how == "magic":
                raw[0:4] = data.draw(st.binary(min_size=4, max_size=4)
                                     .filter(lambda b: b != b"KPB1"))
                expected = 0
            elif how == "version":
                struct.pack_into("<I", raw, 4, data.draw(
                    st.integers(0, 2**32 - 1).filter(lambda v: v != 1)))
                expected = 4
            elif how in ("dim", "count"):
                fmt, at, old = (("<I", 8, dim) if how == "dim"
                                else ("<Q", 12, count))
                value = data.draw(st.integers(0, 2**32 - 1)
                                  .filter(lambda v: v != old))
                struct.pack_into(fmt, raw, at, value)
                shape = {"dim": dim, "count": count, how: value}
                # a wrong dim or count shows as a payload length mismatch,
                # at the first byte the header's shape does not account for
                expected = min(len(raw), 20 + shape["dim"] * shape["count"] * 4)
            else:
                i = data.draw(st.integers(0, count - 1), label="row")
                expected = 20 + i * dim * 4
                row = np.frombuffer(raw, "<f4", dim, expected).copy()
                if how == "scale":
                    row *= data.draw(st.floats(0.0, 0.99)
                                     | st.floats(1.01, 100.0))
                else:
                    row[data.draw(st.integers(0, dim - 1))] = data.draw(
                        st.sampled_from([np.nan, np.inf, -np.inf]))
                raw[expected:expected + dim * 4] = row.tobytes()
            with open(path, "wb") as fh:
                fh.write(raw)
            with pytest.raises(BankFormatError) as exc:
                read_bank(path)
        assert exc.value.offset == expected, (how, exc.value.offset)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_manifest_fields(self, data):
        # the kappas fail at their JSON path; a change to any other field
        # leaves them as they were, as read_manifest reads them alone
        rng = np.random.default_rng(0)
        bank = TestManifest().make_bank(rng, n=6)
        split = np.repeat(np.arange(3, dtype=np.int8), 2)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "manifest.json")
            write_manifest(path, bank, split)
            text = open(path).read()
            doc = json.loads(text)
            field = data.draw(st.sampled_from(sorted(doc)), label="field")
            how = data.draw(st.sampled_from(["field", "truncate", "item",
                                             "file"]), label="how")
            expected = "$.kappas"
            if how == "field":
                doc[field] = data.draw(_not_of(list, type(None)))
            elif how == "truncate":
                doc[field] = doc[field][:data.draw(st.integers(0, 5))]
            elif how == "item":
                i = data.draw(st.integers(0, 5), label="i")
                expected = f"$.kappas[{i}]"
                doc[field][i] = data.draw(
                    _not_of(int, float) | _NON_FINITE
                    | st.integers(max_value=-1)
                    | st.floats(max_value=-1e-300))
            if how == "file":
                expected = "line "
                payload = text[:data.draw(st.integers(0, len(text) - 1))]
            else:
                payload = json.dumps(doc)
            with open(path, "w") as fh:
                fh.write(payload)
            if field != "kappas" and how != "file":
                assert _same_bits(read_manifest(path, len(bank)),
                                  bank.kappas)
                return
            with pytest.raises(JsonError) as exc:
                read_manifest(path, len(bank))
        assert exc.value.path.startswith(expected), (how, exc.value.path)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_config_fields(self, data):
        doc = RunConfig().to_json()
        keys = [(section, key) for section in ("scene", "train", "lmcl",
                                               "binning")
                for key in sorted(doc[section])]
        target = data.draw(st.sampled_from(
            keys + [("ks",), ("tau",), ("file",)]), label="target")
        enum_values = {m.value for e in (TrainMode, BinStrategy) for m in e}
        expected = "$." + ".".join(target)
        if len(target) == 2:
            section, key = target
            default = doc[section][key]
            if isinstance(default, list):      # feature_shape
                k = data.draw(st.integers(0, len(default) - 1))
                bad = data.draw(
                    _not_of(list) | st.just(default[:k])
                    | _not_of(int).map(lambda v: default[:k] + [v]
                                       + default[k + 1:]))
            elif isinstance(default, str):     # an enum
                bad = data.draw(_not_of(str) | st.text(max_size=5).filter(
                    lambda v: v not in enum_values))
            elif isinstance(default, bool):
                bad = data.draw(_not_of(bool))
            else:
                bad = data.draw(_not_of(int) if isinstance(default, int)
                                else _not_of(int, float) | _NON_FINITE)
            doc = {section: {key: bad}}
        elif target == ("ks",):
            doc = {"ks": data.draw(_not_of(list)
                                   | _not_of(int).map(lambda v: [1, v]))}
        elif target == ("tau",):
            doc = {"tau": data.draw(_not_of(int, float) | _NON_FINITE
                                    | st.integers(max_value=0)
                                    | st.floats(max_value=0.0))}
        text = json.dumps(doc)
        if target == ("file",):
            expected = "line "
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                fh.write(text)
            with pytest.raises(JsonError) as exc:
                load_run_config(path)
        assert exc.value.path.startswith(expected), (target, exc.value.path)
