"""CLI surface: artifact generation, determinism, error paths."""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kappa_sphere import bench, fileio, retrieval, scores as sc, synth
from kappa_sphere.cli import _resolve, build_parser, main
from kappa_sphere.pipeline import evaluate_matches
from oracles import whole_file_key

SMALL_CONFIG = {
    "scene": {"num_classes": 8, "images_per_class": 10, "descriptor_dim": 16,
              "aliasing_rate": 0.25, "seed": 0},
    "train": {"max_epochs": 8, "patience": 3, "warmup": 2, "lr": 0.05},
}


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace every binding of the function `original` in the package."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("kappa_sphere") \
                and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, replacement)


def _config_with(out, path, **keys) -> list:
    """["--config", path] for a copy of `out`'s config.json with `keys`
    set at its top level: the one way to give eval and match-eval their
    K, bins or binning."""
    config = json.loads((out / "config.json").read_text())
    path.write_text(json.dumps({**config, **keys}))
    return ["--config", str(path)]


def _copy_scene(workdir, out):
    """A new run directory holding the module scene's bank, manifest,
    config and scene record."""
    out.mkdir()
    for name in ("bank.kpb", "manifest.json", "config.json", "scene.npz"):
        (out / name).write_bytes((workdir["out"] / name).read_bytes())
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A small scene generated and fitted once for the whole module."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    out = root / "run"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--out", str(out)]) == 0
    return {"root": root, "cfg": cfg, "out": out}


@pytest.fixture(scope="module")
def cli_default(tmp_path_factory):
    """A run directory of the shipped scene, fitted and evaluated."""
    root = tmp_path_factory.mktemp("cli-default")
    cfg = root / "config.json"
    cfg.write_text(json.dumps({"scene": {"descriptor_dim": 64},
                               "train": {"max_epochs": 40}}))
    out = root / "run"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["fit", "--out", str(out)]) == 0
    assert main(["eval", "--out", str(out)]) == 0
    assert main(["match-eval", "--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_artifacts(self, workdir):
        out = workdir["out"]
        for name in ("bank.kpb", "manifest.json", "config.json", "scene.npz"):
            assert (out / name).exists()

    def test_deterministic_bytes(self, workdir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = str(workdir["cfg"])
        assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "bank.kpb").read_bytes() == (b / "bank.kpb").read_bytes()
        assert (a / "manifest.json").read_bytes() == \
            (b / "manifest.json").read_bytes()
        assert (a / "scene.npz").read_bytes() == (b / "scene.npz").read_bytes()

    def test_seed_override_recorded(self, workdir, tmp_path):
        out = tmp_path / "seeded"
        assert main(["gen", "--config", str(workdir["cfg"]), "--seed", "9",
                     "--out", str(out)]) == 0
        recorded = json.loads((out / "config.json").read_text())
        assert recorded["scene"]["seed"] == 9
        assert recorded["train"]["seed"] == 9


class TestFit:
    def test_writes_model_and_kappas(self, workdir):
        out = workdir["out"]
        assert (out / "model.json").exists()
        assert (out / "history.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kappas"] is not None
        assert min(manifest["kappas"]) > 0.0

    def test_deterministic(self, workdir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = str(workdir["cfg"])
        for out in (a, b):
            assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
            assert main(["fit", "--out", str(out)]) == 0
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "manifest.json").read_bytes() == \
            (b / "manifest.json").read_bytes()


class TestTrain:
    def test_lambda_zero_records_no_head(self, tmp_path):
        # at lam = 0 nothing trains the kappa head, so train records no
        # head and no kappas (replacing fit's), and eval files the kappa
        # scores as unsupported instead of scoring an untrained head
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "train": {
            **SMALL_CONFIG["train"], "lam": 0.0}}))
        out = tmp_path / "run"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        for command in ("fit", "train", "eval"):
            assert main([command, "--out", str(out)]) == 0, command
        model = json.loads((out / "model.json").read_text())
        assert model["head"] is None and model["extra"]["lam"] == 0.0
        assert model["encoder"] and model["prototypes"]
        assert json.loads((out / "manifest.json").read_text())["kappas"] \
            is None
        report = json.loads((out / "report.json").read_text())
        assert report["spearman_kappa"] is None
        assert set(report["unsupported"]) == {"resultant", "inv_kappa"}


class TestSceneRecord:
    """fit and train read the scene gen recorded in scene.npz; they never
    generate it, and a record that is missing or not for the resolved
    scene fails with its file and field or its `$.scene` key."""

    @pytest.mark.parametrize("command", ["fit", "train"])
    def test_reads_the_record_and_never_generates(self, workdir, tmp_path,
                                                  command, monkeypatch):
        out = _copy_scene(workdir, tmp_path / "run")

        def no_generation(*args, **kwargs):
            raise AssertionError(f"{command} generated the scene")

        _patch_everywhere(monkeypatch, synth.generate_scene, no_generation)
        assert main([command, "--out", str(out)]) == 0

    @staticmethod
    def _garble(path, fault) -> None:
        """Rewrite the scene record at `path` with `fault`."""
        with np.load(path) as npz:
            record = dict(npz)
        if fault == "float32 features":
            record["features"] = record["features"].astype(np.float32)
        elif fault == "NaN pose":
            record["poses"][3, 0] = np.nan
        elif fault == "negative true kappa":
            record["true_kappa"][5] = -2.0
        elif fault == "inf feature":
            record["features"][7, 0, 0, 0] = np.inf
        else:  # "split code 3"
            record["split"][4] = 3
        np.savez(path, **record)

    @pytest.mark.parametrize("command", ["fit", "train"])
    @pytest.mark.parametrize("fault, where", [
        ("missing", "run gen first"),
        ("another seed", "(at $.scene.seed)"),
        ("truncated", "not a readable .npz archive"),
        ("float32 features", "field 'features'"),
        ("NaN pose", "field 'poses'"),
        ("negative true kappa", "field 'true_kappa'"),
        ("inf feature", "field 'features'"),
    ])
    def test_bad_record_fails_with_its_location(self, workdir, tmp_path,
                                                capsys, command, fault,
                                                where):
        out = _copy_scene(workdir, tmp_path / "run")
        path = out / "scene.npz"
        argv = [command, "--out", str(out)]
        if fault == "missing":
            path.unlink()
        elif fault == "another seed":
            argv += ["--seed", "1"]
        elif fault == "truncated":
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        else:
            self._garble(path, fault)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and where in err
        # a rejected command writes nothing: no non-finite row of the
        # record reaches manifest.json
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("fault, where", [
        ("NaN pose", "at row 3 (in {path}, field 'poses')"),
        ("negative true kappa", "at row 5 (in {path}, field 'true_kappa')"),
        ("split code 3", "index outside [0, 3) (in {path}, field 'split')")],
        ids=["NaN pose", "negative true kappa", "split code 3"])
    def test_eval_reads_the_rows_from_the_record(self, workdir, tmp_path,
                                                 capsys, fault, where):
        # eval takes the scene's rows from scene.npz, checked as fit and
        # train check them: a bad one fails with its field and first row,
        # and nothing is printed or written
        out = _copy_scene(workdir, tmp_path / "run")
        path = out / "scene.npz"
        self._garble(path, fault)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["eval", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and \
            captured.err.endswith(where.format(path=path) + "\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestRawInputs:
    def test_only_train_builds_raw(self, workdir, tmp_path, monkeypatch):
        # raw (descriptors and flattened feature maps) feeds joint training
        # alone: gen and fit never build it, and train builds it once
        out = tmp_path / "run"

        def refuse(*args, **kwargs):
            raise AssertionError("raw built outside joint training")

        with monkeypatch.context() as m:
            _patch_everywhere(m, synth.raw_inputs, refuse)
            assert main(["gen", "--config", str(workdir["cfg"]),
                         "--out", str(out)]) == 0
            assert main(["fit", "--out", str(out)]) == 0

        original, calls = synth.raw_inputs, []

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        _patch_everywhere(monkeypatch, original, spy)
        assert main(["train", "--out", str(out)]) == 0
        assert len(calls) == 1


class TestCheckpointSelection:
    # 8 validation queries: enough for a changed ECE or Recall@1 to show
    CONFIG = {"scene": {"num_classes": 16, "images_per_class": 10,
                        "descriptor_dim": 16, "seed": 0},
              "train": {"max_epochs": 20, "patience": 3, "warmup": 0}}

    @pytest.mark.parametrize("command", ["fit", "train"])
    @pytest.mark.parametrize("override", [
        {"tau": 5.0},  # inside the pose jitter: some same-place hits fail
        {"binning": {"num_bins": 4}}], ids=["tau", "num_bins"])
    def test_validation_follows_tau_and_binning(self, tmp_path, command,
                                                override):
        # the validation metric that picks the checkpoint is measured
        # under the config's tau and binning, not fixed defaults
        histories = []
        for name, config in (("base", self.CONFIG),
                             ("changed", {**self.CONFIG, **override})):
            cfg, out = tmp_path / f"{name}.json", tmp_path / name
            cfg.write_text(json.dumps(config))
            assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
            assert main([command, "--out", str(out)]) == 0
            histories.append((out / "history.csv").read_text())
        assert histories[0] != histories[1]


class TestEval:
    def test_report_written_and_deterministic(self, workdir):
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        first = (out / "report.json").read_bytes()
        assert main(["eval", "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == first

    def test_report_contents(self, workdir):
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["level"] == "query"
        assert set(doc["recalls"]) == {"1", "5", "10"}
        assert "resultant@1" in doc["reports"]
        assert "l2@1" in doc["reports"]
        assert doc["spearman_kappa"] is not None
        # SUE's neighbourhood is recorded in the report, not in the config
        # (config.json is read back and rejects unknown keys)
        assert doc["sue_k"] == retrieval.SUE_K == 10
        assert "sue_k" not in doc["config"]
        rep = doc["reports"]["resultant@1"]
        assert sum(rep["bin_counts"]) == rep["total"]
        assert 0.0 <= rep["ece"] <= 1.0

    def test_k_filter(self, workdir, tmp_path):
        out = workdir["out"]
        config = _config_with(out, tmp_path / "k1.json", ks=[1])
        assert main(["eval", "--out", str(out), *config]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert sorted(doc["reports"]) == [f"{m}@1"
                                          for m in sorted(sc.ALL_METHODS)]
        assert doc["sue_k"] == retrieval.SUE_K  # whatever ks lists

    def test_svg_emitted(self, workdir, tmp_path):
        # eval writes no diagram; `report --svg` renders its report's
        out = _copy_scene(workdir, tmp_path / "o")
        config = _config_with(out, tmp_path / "k1.json", ks=[1])
        assert main(["eval", "--out", str(out), *config]) == 0
        assert not sorted(out.glob("*.svg"))
        assert main(["report", str(out / "report.json"), "--svg"]) == 0
        svg = (out / "reliability_resultant_k1.svg").read_text()
        assert svg.startswith("<svg")

    def test_quantile_strategy_recorded(self, workdir, tmp_path):
        out = workdir["out"]
        config = _config_with(out, tmp_path / "quantile.json", ks=[1],
                              binning={"num_bins": 5,
                                       "strategy": "quantile"})
        assert main(["eval", "--out", str(out), *config]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["reports"]["resultant@1"]["strategy"] == "quantile"
        assert doc["reports"]["resultant@1"]["num_bins"] == 5
        # the report records the config the run read
        assert doc["config"] == json.loads(Path(config[1]).read_text())
        assert doc["config"]["ks"] == [1]
        assert doc["config"]["binning"] == {"num_bins": 5,
                                            "strategy": "quantile"}

    def test_the_manifest_rows_are_not_inputs(self, cli_default, tmp_path):
        # eval reads the rows from scene.npz and only the kappas from the
        # manifest: its other fields, reversed, leave the report's bytes
        out = tmp_path / "run"
        shutil.copytree(cli_default, out)
        doc = json.loads((out / "manifest.json").read_text())
        for name in ("ids", "labels", "poses", "true_kappa", "split"):
            doc[name].reverse()
        (out / "manifest.json").write_text(json.dumps(doc, sort_keys=True))
        assert main(["eval", "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == \
            (cli_default / "report.json").read_bytes()

    @pytest.mark.parametrize("shape", ["width", "rows"])
    def test_a_bank_of_another_shape_fails(self, workdir, tmp_path, capsys,
                                           monkeypatch, shape):
        # the bank must hold the scene's rows at its descriptor width,
        # checked before the search: nothing is printed or written
        out = _copy_scene(workdir, tmp_path / "o")
        desc = fileio.read_bank(out / "bank.kpb")
        other = desc[:-1] if shape == "rows" else desc[:, ::2] / \
            np.linalg.norm(desc[:, ::2], axis=1, keepdims=True)
        fileio.write_bank(out / "bank.kpb", other)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        searches = TestRecordedRetrieval._count_searches(monkeypatch)
        assert main(["eval", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and searches == []
        assert captured.err == (
            f"error: {out / 'bank.kpb'} holds descriptors of shape "
            f"{other.shape}, but the scene's are {desc.shape}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files


class TestRunConfig:
    """The run config is the one source of a run's settings: eval and
    match-eval read K, the bins, the binning and tau from it alone."""

    def test_each_command_takes_only_its_own_options(self):
        parser = build_parser()
        sub, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
        options = {name: sorted(a.dest for a in p._actions
                                if not isinstance(a, argparse._HelpAction))
                   for name, p in sub.choices.items()}
        run = ["config", "out", "seed"]
        assert options == {"gen": run, "fit": run, "train": run,
                           "eval": run, "match-eval": run,
                           "report": ["path", "svg"],
                           "bench": ["out", "seed"]}
        assert sum(map(len, options.values())) == 19

    @pytest.mark.parametrize("argv", [
        ["eval", "--k", "1"], ["eval", "--bins", "5"],
        ["eval", "--binning", "quantile"], ["eval", "--method", "l2"],
        ["match-eval", "--k", "1"], ["match-eval", "--bins", "5"],
        ["match-eval", "--binning", "quantile"]],
        ids=" ".join)
    def test_a_setting_flag_is_an_argument_error(self, workdir, capsys,
                                                 argv):
        out = workdir["out"]
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in \
            capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files

    def test_reports_record_the_config_json_beside_them(self, workdir,
                                                        tmp_path):
        out = tmp_path / "run"
        assert main(["gen", "--config", str(workdir["cfg"]),
                     "--out", str(out)]) == 0
        for command in ("fit", "eval", "match-eval"):
            assert main([command, "--out", str(out)]) == 0
        config = json.loads((out / "config.json").read_text())
        for report in ("report.json", "match_report.json"):
            assert json.loads((out / report).read_text())["config"] == config


class TestMatchEval:
    def test_match_report(self, workdir):
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        assert main(["match-eval", "--out", str(out)]) == 0
        doc = json.loads((out / "match_report.json").read_text())
        assert doc["level"] == "match" and doc["k"] == 1
        assert set(doc["reports"]) == {"resultant", "l2"}
        assert doc["reports"]["resultant"]["level"] == "match"
        assert doc["unsupported"] == {}

    def test_files_a_method_without_kappas_as_unsupported(self, workdir,
                                                          tmp_path, capsys):
        # before fit, the manifest holds no kappas: match-eval scores l2
        # alone and says, in its report and on stdout, why the pair score
        # is missing, with the reason the method table gives
        out = tmp_path / "unfitted"
        assert main(["gen", "--config", str(workdir["cfg"]),
                     "--out", str(out)]) == 0
        assert main(["eval", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["match-eval", "--out", str(out)]) == 0
        reason = sc.METHODS[sc.ALL_METHODS.index("resultant")].needs["kappa_r"]
        assert f"match resultant    unsupported: {reason}\n" in \
            capsys.readouterr().out
        doc = json.loads((out / "match_report.json").read_text())
        assert set(doc["reports"]) == {"l2"}
        assert doc["unsupported"] == {"resultant": reason}
        assert main(["report", str(out / "match_report.json")]) == 0
        assert capsys.readouterr().out.endswith(
            f"resultant             unsupported: {reason}\n")

    def test_method_flag_rejected(self, workdir, capsys):
        # match-eval scores every pair it can; a method subset it would
        # ignore is an argument error, not a run that scores l2 and
        # resultant anyway
        with pytest.raises(SystemExit) as exc:
            main(["match-eval", "--out", str(workdir["out"]),
                  "--method", "bogus,nothing"])
        assert exc.value.code == 2
        assert "--method" in capsys.readouterr().err


class TestRecordedRetrieval:
    """eval records its top-K search in retrieval.npz, with the poses and
    kappas it scores, keyed by the bytes of bank.kpb and manifest.json;
    match-eval scores the first k columns when the files hash to the key
    and k is at most K.  Any other record is an error that names the file
    and the command to run: match-eval never parses the inputs or
    searches."""

    @pytest.fixture()
    def evaluated(self, workdir, tmp_path):
        out = _copy_scene(workdir, tmp_path / "run")
        assert main(["eval", "--out", str(out)]) == 0
        assert (out / "retrieval.npz").is_file()
        return out

    @staticmethod
    def _count_searches(monkeypatch) -> list:
        """Patch batch_knn to record the k of every search it runs."""
        original, ks = retrieval.batch_knn, []

        def spy(queries, refs, k, **kwargs):
            ks.append(k)
            return original(queries, refs, k, **kwargs)

        _patch_everywhere(monkeypatch, original, spy)
        return ks

    @staticmethod
    def _searched_reports(out, argv_tail) -> tuple:
        """(k, reports) that match-eval with `argv_tail` should write for
        the run `out`: its inputs parsed and searched afresh at k, then
        scored by evaluate_matches."""
        run = _resolve(build_parser().parse_args(
            ["match-eval", "--out", str(out), *argv_tail]))
        k = run.ks[0]
        rows, splits = fileio.read_scene_rows(out / "scene.npz", run.scene)
        desc = fileio.read_bank(out / "bank.kpb")
        rows = rows.with_kappas(
            fileio.read_manifest(out / "manifest.json", len(desc)))
        db, queries = rows.subset(splits["db"]), rows.subset(splits["query"])
        ev = evaluate_matches(db, queries,
                              retrieval.batch_knn(desc[splits["query"]],
                                                  desc[splits["db"]], k),
                              binning=run.binning, tau=run.tau)
        # as the report's JSON reads back
        return k, json.loads(json.dumps(
            {m: rep.to_dict() for m, rep in ev.reports.items()}))

    @pytest.mark.parametrize("case", [None, "5", "10", "quantile binning",
                                      "another tau", "no kappas",
                                      "keyed by whole-file reads"])
    def test_match_eval_reads_the_record(self, evaluated, workdir, tmp_path,
                                         monkeypatch, case):
        # a hit decodes neither input file and runs no search; its
        # positives and bins follow match-eval's own tau and binning, and
        # its report is the one a fresh search at k gives.  A record keyed
        # as before the key streamed its files (each read whole) still hits
        out, flags = evaluated, []
        if case == "keyed by whole-file reads":
            record = out / "retrieval.npz"
            with np.load(record) as npz:
                arrays = {name: npz[name] for name in npz.files}
            arrays["key"] = np.array(whole_file_key(out / "bank.kpb",
                                                    out / "manifest.json"))
            np.savez(record, **arrays)
        elif case in ("5", "10"):
            flags = _config_with(out, tmp_path / "k.json", ks=[int(case)])
        elif case == "quantile binning":
            flags = _config_with(out, tmp_path / "quantile.json",
                                 binning={"num_bins": 4,
                                          "strategy": "quantile"})
        elif case == "another tau":
            config = tmp_path / "tau.json"
            config.write_text(json.dumps({**SMALL_CONFIG, "tau": 10.0}))
            flags = ["--config", str(config)]
        elif case == "no kappas":
            out = tmp_path / "gen-only"
            assert main(["gen", "--config", str(workdir["cfg"]), "--out",
                         str(out)]) == 0
            assert main(["eval", "--out", str(out)]) == 0
            with np.load(out / "retrieval.npz") as record:
                assert not {"query_kappas", "db_kappas"} & set(record.files)
        k, searched = self._searched_reports(out, flags)

        def refuse(*args, **kwargs):
            raise AssertionError("match-eval parsed an input or searched")

        for original in (fileio.read_scene_rows, fileio.read_bank,
                         fileio.read_manifest, retrieval.batch_knn):
            _patch_everywhere(monkeypatch, original, refuse)
        assert main(["match-eval", "--out", str(out), *flags]) == 0
        doc = json.loads((out / "match_report.json").read_text())
        assert doc["k"] == k
        assert doc["reports"] == searched

    @pytest.mark.parametrize("change, command", [
        ("train", "run eval again"),
        ("perturbed row", "run eval again"),
        ("deeper k", "run eval with a K of at least 11"),
        ("no file", "run eval first"),
        ("edited kappas", "run eval again"),
        ("old format", "run eval again")],
        ids=["train", "perturbed row", "deeper k", "no file", "edited kappas",
             "old format"])
    def test_a_miss_is_an_error_that_names_the_command(
            self, evaluated, tmp_path, capsys, monkeypatch, change, command):
        # any change to either file's bytes is a miss, kappas included (fit
        # writes new ones): match-eval without eval again fails, and
        # neither searches nor touches the last match report
        flags = []
        record = evaluated / "retrieval.npz"
        assert main(["match-eval", "--out", str(evaluated)]) == 0
        report = (evaluated / "match_report.json").read_bytes()
        if change == "train":
            assert main(["train", "--out", str(evaluated)]) == 0
        elif change == "perturbed row":
            desc = fileio.read_bank(evaluated / "bank.kpb")
            manifest = json.loads((evaluated / "manifest.json").read_text())
            i = manifest["split"].index("db")
            desc[i] += 0.05 * desc[i - 1]
            desc[i] /= np.linalg.norm(desc[i])
            fileio.write_bank(evaluated / "bank.kpb", desc)
        elif change == "deeper k":
            with np.load(record) as npz:
                depth = npz["ref_indices"].shape[1]
            assert depth == 10
            flags = _config_with(evaluated, tmp_path / "deeper.json",
                                 ks=[depth + 1])
        elif change == "no file":
            record.unlink()
        elif change == "edited kappas":
            doc = json.loads((evaluated / "manifest.json").read_text())
            doc["kappas"] = [2.0 * v for v in doc["kappas"]]
            (evaluated / "manifest.json").write_text(json.dumps(doc))
        else:
            # the layout of format 1: the search alone, under its own tag
            with monkeypatch.context() as m:
                m.setattr(fileio, "_RETRIEVAL_FORMAT",
                          b"kappa-sphere retrieval 1")
                old_key = fileio.inputs_key(evaluated / "bank.kpb",
                                            evaluated / "manifest.json")
            with np.load(record) as npz:
                np.savez(record, key=np.array(old_key),
                         ref_indices=npz["ref_indices"],
                         similarities=npz["similarities"])
        files = sorted(p.name for p in evaluated.iterdir())
        searches = self._count_searches(monkeypatch)
        capsys.readouterr()
        assert main(["match-eval", "--out", str(evaluated), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert f"{command} (in {record})" in captured.err
        assert searches == []
        assert sorted(p.name for p in evaluated.iterdir()) == files
        assert (evaluated / "match_report.json").read_bytes() == report

    @pytest.mark.parametrize("garble, field", [
        ("truncated", None),
        ("noise", None),
        ("no key", "key"),
        ("float indices", "ref_indices"),
        ("index out of range", "ref_indices"),
        ("one query short", "ref_indices"),
        ("short similarities", "similarities"),
        ("pickled similarities", "similarities"),
        ("NaN query kappa", "query_kappas"),
        ("negative db kappa", "db_kappas"),
        ("infinite query pose", "query_poses"),
        ("NaN db pose", "db_poses"),
        ("one query kappa short", "query_kappas"),
        ("db kappas short of the largest index", "db_kappas"),
        ("db rows short of the largest index", "ref_indices"),
    ])
    def test_bad_record_fails_with_its_location(self, evaluated, capsys,
                                                garble, field):
        path = evaluated / "retrieval.npz"
        payload = path.read_bytes()
        with np.load(path) as npz:
            record = dict(npz)
        if garble == "truncated":
            path.write_bytes(payload[:len(payload) // 2])
        elif garble == "noise":
            path.write_bytes(np.random.default_rng(0).bytes(len(payload)))
        else:
            order, sims = record["ref_indices"], record["similarities"]
            if garble == "no key":
                del record["key"]
            elif garble == "float indices":
                record["ref_indices"] = order.astype(float)
            elif garble == "index out of range":
                order[-1, -1] = 10**6
            elif garble == "one query short":
                record.update(ref_indices=order[1:], similarities=sims[1:])
            elif garble == "short similarities":
                record["similarities"] = sims[:, :-1]
            elif garble == "pickled similarities":
                record["similarities"] = sims.astype(object)
            elif garble == "NaN query kappa":
                record["query_kappas"][3] = np.nan
            elif garble == "negative db kappa":
                record["db_kappas"][order[2, 0]] = -1.0
            elif garble == "infinite query pose":
                record["query_poses"][1, 0] = np.inf
            elif garble == "NaN db pose":
                record["db_poses"][order[0, 1], 1] = np.nan
            elif garble == "one query kappa short":
                record["query_kappas"] = record["query_kappas"][:-1]
            else:
                # the db fields stop before the row ref_indices reaches
                top = order.max()
                names = ["db_kappas"] + (["db_poses"] if garble.startswith(
                    "db rows") else [])
                for name in names:
                    record[name] = record[name][:top]
            np.savez(path, **record)
        assert main(["match-eval", "--out", str(evaluated)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err
        if field is not None:
            assert f"field {field!r}" in err
        # eval never reads the record: it searches and rewrites it
        assert main(["eval", "--out", str(evaluated)]) == 0
        assert path.read_bytes() == payload
        assert main(["match-eval", "--out", str(evaluated)]) == 0

    @pytest.mark.parametrize("command, option, key", [
        ("eval", "--seed", "seed"), ("match-eval", "--seed", "seed"),
        ("eval", "--config", "num_classes"),
        ("match-eval", "--config", "num_classes")])
    def test_another_scene_fails_before_anything_is_read(
            self, evaluated, tmp_path, capsys, monkeypatch, command, option,
            key):
        # a report records its run's scene: eval and match-eval check the
        # run config's scene against scene.npz first, as fit and train do,
        # and hash, search and write nothing for another scene
        assert main(["match-eval", "--out", str(evaluated)]) == 0
        files = {p.name: p.read_bytes() for p in evaluated.iterdir()}
        original, hashed = fileio.inputs_key, []
        _patch_everywhere(monkeypatch, original,
                          lambda *paths: hashed.append(paths)
                          or original(*paths))
        searches = self._count_searches(monkeypatch)
        scene = json.loads((evaluated / "config.json").read_text())["scene"]
        argv = ["--seed", "5"] if option == "--seed" else _config_with(
            evaluated, tmp_path / "other.json",
            scene={**scene, "num_classes": 16})
        capsys.readouterr()
        assert main([command, "--out", str(evaluated), *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and hashed == [] and searches == []
        assert captured.err.startswith("error: ") and \
            captured.err.endswith(f"(at $.scene.{key})\n")
        # true whichever of --config and --seed gave the value, and its
        # remedy names both
        given = "5" if option == "--seed" else "16"
        assert f"but this run's config and --seed give {given}; give gen's " \
            "--config and --seed, or run gen with these" in captured.err
        assert {p.name: p.read_bytes() for p in evaluated.iterdir()} == files
        # the recorded seed, which the benchmark passes to every command
        for name in ("eval", "match-eval"):
            assert main([name, "--out", str(evaluated),
                         "--seed", str(scene["seed"])]) == 0
        assert {p.name: p.read_bytes() for p in evaluated.iterdir()} == files

    def test_eval_rejects_a_k_deeper_than_the_db_before_searching(
            self, evaluated, tmp_path, capsys, monkeypatch):
        # the config cannot know the database size; eval checks K against
        # it before the search, at $.ks, and keeps its last outputs
        rows = json.loads((evaluated / "manifest.json").read_text()
                          )["split"].count("db")
        outputs = {name: (evaluated / name).read_bytes()
                   for name in ("report.json", "retrieval.npz")}
        searches = self._count_searches(monkeypatch)
        capsys.readouterr()
        assert main(["eval", "--out", str(evaluated),
                     *_config_with(evaluated, tmp_path / "deep.json",
                                   ks=[1, rows + 1])]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and searches == []
        assert captured.err == (f"error: K = {rows + 1} exceeds the {rows} "
                                "rows of the database (at $.ks)\n")
        for name, payload in outputs.items():
            assert (evaluated / name).read_bytes() == payload
        assert main(["eval", "--out", str(evaluated),
                     *_config_with(evaluated, tmp_path / "db.json",
                                   ks=[rows])]) == 0
        assert searches == [rows]


class TestReportCommand:
    def test_renders_tables(self, workdir, capsys):
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "resultant@1" in text
        assert "bin  count  observed  expected" in text

    @pytest.mark.parametrize("command, report", [
        ("eval", "report.json"), ("match-eval", "match_report.json")])
    def test_svg_names_match_the_evaluating_command(self, workdir, tmp_path,
                                                    command, report):
        # `report --svg` writes exactly one diagram per entry, named
        # reliability_<method>_k<K>.svg for eval's "<method>@<K>" and
        # reliability_match_<method>_k<K>.svg for match-eval's "<method>"
        out = _copy_scene(workdir, tmp_path / "o")
        assert main(["eval", "--out", str(out)]) == 0
        if command == "match-eval":  # it scores eval's recorded search
            assert main([command, "--out", str(out)]) == 0
        assert main(["report", str(out / report), "--svg"]) == 0
        doc = json.loads((out / report).read_text())
        if command == "eval":
            want = [f"reliability_{m}_k{k}.svg"
                    for m, k in (name.split("@") for name in doc["reports"])]
        else:
            want = [f"reliability_match_{m}_k{doc['k']}.svg"
                    for m in doc["reports"]]
        assert len(want) > 1
        assert sorted(p.name for p in out.glob("*.svg")) == sorted(want)

    def test_rejects_wrong_schema(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        assert main(["report", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, where", [
        (lambda doc: [doc], "(at $)"),
        (lambda doc: {k: v for k, v in doc.items() if k != "reports"},
         "(at $.reports)"),
        (lambda doc: {**doc, "reports": []}, "(at $.reports)"),
        (lambda doc: {k: v for k, v in doc.items() if k != "seed"},
         "(at $.seed)"),
        (lambda doc: {**doc, "seed": "0"}, "(at $.seed)"),
        (lambda doc: {**doc, "recalls": [1]}, "(at $.recalls)"),
        (lambda doc: {**doc, "recalls": {**doc["recalls"], "5": "0.9"}},
         "(at $.recalls.5)"),
        (lambda doc: {**doc, "recalls": {"top": 0.5}}, "(at $.recalls.top)"),
        (lambda doc: {**doc, "spearman_kappa": "0.9"},
         "(at $.spearman_kappa)"),
        (lambda doc: {**doc, "unsupported": ["pa"]}, "(at $.unsupported)"),
        # numbers the writer (allow_nan=False) cannot produce
        (lambda doc: {**doc, "seed": True}, "(at $.seed)"),
        (lambda doc: {**doc, "spearman_kappa": float("nan")},
         "(at $.spearman_kappa)"),
        (lambda doc: {**doc, "recalls": {**doc["recalls"],
                                         "5": float("inf")}},
         "(at $.recalls.5)"),
        (lambda doc: {**doc, "recalls": {"0": 0.5}}, "(at $.recalls.0)"),
        (lambda doc: {**doc, "recalls": {"05": 0.5}}, "(at $.recalls.05)"),
        (lambda doc: {**doc, "level": "other"}, "(at $.level)"),
        (lambda doc: {k: v for k, v in doc.items() if k != "level"},
         "(at $.level)")],
        ids=["array", "no reports", "reports not an object", "no seed",
             "string seed", "recalls an array", "string recall",
             "recall key not a K", "string spearman",
             "unsupported an array", "bool seed", "NaN spearman",
             "infinite recall", "recall key 0", "padded recall key",
             "unknown level", "no level"])
    def test_rejects_a_malformed_document_before_printing(
            self, workdir, tmp_path, capsys, edit, where):
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(edit(json.loads(
            (out / "report.json").read_text()))))
        capsys.readouterr()
        assert main(["report", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and where in captured.err


    @staticmethod
    def _rejects_the_second_entry(out, tmp_path, capsys, edit) -> tuple:
        """(name, error) of `report`, with and without --svg, on a copy of
        `out`'s report.json whose second entry `edit` changed: the same
        error both times, with nothing printed or written."""
        doc = json.loads((out / "report.json").read_text())
        second = sorted(doc["reports"])[1]
        edit(doc["reports"][second])
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(doc))
        errors = []
        for flags in ([], ["--svg"]):
            capsys.readouterr()
            assert main(["report", str(bad), *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error:")
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert not sorted(tmp_path.glob("*.svg"))
        return second, errors[0]

    @pytest.mark.parametrize("edit, field", [
        (lambda rep: rep.pop("bin_counts"), "bin_counts"),
        (lambda rep: rep.pop("ece"), "ece"),
        (lambda rep: rep["bin_observed"].pop(), "bin_observed"),
        (lambda rep: rep["bin_expected"].append(0.5), "bin_expected"),
        (lambda rep: rep.update(total="9"), "total"),
        (lambda rep: rep["bin_counts"].__setitem__(0, 1.5), "bin_counts"),
        (lambda rep: rep.update(clamp_bounds=5), "clamp_bounds"),
        (lambda rep: rep.update(num_bins=rep["num_bins"] + 2), "bin_counts"),
        (lambda rep: rep.update(num_bins=str(rep["num_bins"])), "num_bins"),
        (lambda rep: rep.update(total=True), "total")],
        ids=["no bin_counts", "no ece", "short bin_observed",
             "long bin_expected", "string total", "float count",
             "number clamp_bounds", "num_bins beyond the bins",
             "string num_bins", "bool total"])
    def test_checks_every_entry_before_printing(self, workdir, tmp_path,
                                                capsys, edit, field):
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        second, err = self._rejects_the_second_entry(out, tmp_path, capsys,
                                                     edit)
        assert f"(at $.reports.{second}.{field})" in err

    @pytest.mark.parametrize("unsupported, name, message", [
        ({"bogus": "x"}, "bogus", "got 'bogus': 'x'"),
        ({"pa": 3}, "pa", "got 'pa': 3"),
        ({"l2": ["x"]}, "l2", "got 'l2': ['x']"),
        ({"l2": "x"}, "l2", "got 'l2': 'x'")],
        ids=["unknown method", "number reason", "reported, list reason",
             "reported"])
    def test_checks_every_unsupported_entry_before_printing(
            self, workdir, tmp_path, capsys, unsupported, name, message):
        # an unsupported entry names a query-level method that has no
        # report, with its reason as a string; pa's reports are dropped so
        # that it may be listed
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        doc["reports"] = {key: rep for key, rep in doc["reports"].items()
                          if rep["method"] != "pa"}
        bad = tmp_path / "r.json"
        for value, status in ((unsupported, 1), ({"pa": "no PA"}, 0)):
            bad.write_text(json.dumps({**doc, "unsupported": value}))
            for flags in ([], ["--svg"]):
                capsys.readouterr()
                assert main(["report", str(bad), *flags]) == status
                captured = capsys.readouterr()
                if status:
                    assert captured.out == ""
                    assert "that has no report and give a string, " \
                        f"{message} " in captured.err
                    assert captured.err.endswith(
                        f"(at $.unsupported.{name})\n")
                    assert not sorted(tmp_path.glob("*.svg"))
        assert "pa                    unsupported: no PA" in captured.out

    @pytest.mark.parametrize("edit, message, field", [
        (lambda rep: rep.update(foo=1), "unknown key 'foo'", "foo"),
        (lambda rep: rep.update(strategy="bogus"), "'bogus'", "strategy"),
        (lambda rep: rep.pop("clamp"), "missing key 'clamp'", "clamp")],
        ids=["extra key", "unknown strategy", "no clamp"])
    def test_svg_decodes_every_entry_before_printing(
            self, workdir, tmp_path, capsys, edit, message, field):
        # a diagram reads fields the table does not print; the table
        # rejects them too, so both decode every entry before the first line
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        second, err = self._rejects_the_second_entry(out, tmp_path, capsys,
                                                     edit)
        assert message in err
        assert f"(at $.reports.{second}.{field})" in err

    def test_invalid_json_is_located_at_its_line(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text('{"schema_version": 1,\n "seed": }\n')
        assert main(["report", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: invalid JSON: Expecting value "
                                "(at line 2)\n")

    @pytest.mark.parametrize("report, edit, message, where", [
        ("report.json", lambda doc: doc["reports"]["inv_kappa@10"].update(
            k=1), "must be named 'inv_kappa@1'", "$.reports.inv_kappa@10"),
        ("report.json", lambda doc: doc["reports"]["l2@1"].update(
            level="match"), "level must be one of ['query']",
         "$.reports.l2@1.level"),
        ("match_report.json", lambda doc: doc["reports"]["l2"].update(k=5),
         "the document's k 1, got 5", "$.reports.l2"),
        ("match_report.json", lambda doc: doc["reports"].update(
            {"l2@1": doc["reports"].pop("l2")}), "must be named 'l2'",
         "$.reports.l2@1"),
        ("match_report.json", lambda doc: doc["reports"]["l2"].update(
            level="query"), "level must be one of ['match']",
         "$.reports.l2.level"),
        ("match_report.json", lambda doc: doc.pop("k"), "k must be int",
         "$.k"),
        # PA and SUE have no match-level form, which match-eval never writes
        ("match_report.json", lambda doc: doc["reports"]["l2"].update(
            method="pa"), "method must be one of ['resultant', 'l2'], got "
         "'pa'", "$.reports.l2.method"),
        ("match_report.json", lambda doc: doc["reports"]["l2"].update(
            method="sue"), "method must be one of ['resultant', 'l2'], got "
         "'sue'", "$.reports.l2.method")],
        ids=["query k", "query entry of match level", "match k",
             "match name", "match entry of query level", "no match k",
             "match pa", "match sue"])
    def test_rejects_an_entry_its_name_and_document_do_not_describe(
            self, cli_default, tmp_path, capsys, report, edit, message,
            where):
        # `report --svg` names each diagram after its entry's level,
        # method and k, so an entry that another could share a file with
        # is refused before anything is printed or any diagram written
        doc = json.loads((cli_default / report).read_text())
        edit(doc)
        bad = tmp_path / report
        bad.write_text(json.dumps(doc))
        for flags in ([], ["--svg"]):
            capsys.readouterr()
            assert main(["report", str(bad), *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert message in captured.err
            assert captured.err.endswith(f"(at {where})\n")
        assert not sorted(tmp_path.rglob("*.svg"))

    @pytest.mark.parametrize("field, value", [
        ("method", "x/y"), ("method", "../x"), ("level", "other")])
    def test_rejects_a_method_or_level_a_diagram_cannot_be_named_by(
            self, cli_default, tmp_path, capsys, field, value):
        # `report --svg` names each diagram after its entry's level and
        # method, so an entry of another method or level is refused before
        # anything is printed or any diagram written
        where = tmp_path / "a" / "b"
        where.mkdir(parents=True)
        (where / "report.json").write_bytes(
            (cli_default / "report.json").read_bytes())
        second, err = self._rejects_the_second_entry(
            where, where, capsys, lambda rep: rep.update({field: value}))
        assert f"{field} must be one of" in err and repr(value) in err
        assert f"(at $.reports.{second}.{field})" in err
        assert not sorted(tmp_path.rglob("*.svg"))
        assert not sorted(cli_default.rglob("*.svg"))

    def test_reads_every_report_the_cli_writes(self, cli_default, tmp_path):
        # fileio.read_report decodes each entry the writer wrote back into
        # the same JSON, so a writer change the reader rejects fails here
        out = tmp_path / "run"
        shutil.copytree(cli_default, out)
        quantile = _config_with(out, tmp_path / "quantile.json",
                                binning={"strategy": "quantile"})
        for command, report in (
                (["eval"], "report.json"),
                (["eval", *quantile], "report.json"),
                (["match-eval"], "match_report.json")):
            assert main([*command, "--out", str(out)]) == 0
            written = json.loads((out / report).read_text())
            doc = fileio.read_report(out / report)
            assert sorted(doc["reports"]) == sorted(written["reports"])
            for name, entry in written["reports"].items():
                assert doc["reports"][name].to_dict() == entry


class TestErrors:
    def test_missing_artifacts_exit_nonzero(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", "--out", str(empty)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"train": {"learning_rate": 1.0}}))
        assert main(["gen", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("config, path", [
        ({"ks": 5}, "$.ks"),
        ({"tau": [1]}, "$.tau"),
        ({"scene": {"num_classes": "8"}}, "$.scene.num_classes"),
        ({"train": {"mode": "nope"}}, "$.train.mode"),
        ({"scene": {"num_classes": 4}}, "$.scene"),  # 1 aliased class
        ({"scene": {"aliasing_rate": 0.01}}, "$.scene"),  # 0 aliased classes
        ({"scene": {"descriptor_dim": 1}}, "$.scene.descriptor_dim"),
        # cannot stratify
        ({"scene": {"images_per_class": 4}}, "$.scene.images_per_class"),
        ({"ks": []}, "$.ks"),  # eval and match-eval need a K
        ({"ks": [1, 1, 5]}, "$.ks"),  # a report holds each K once
        ({"tau": 0}, "$.tau"),
        ({"tau": -5}, "$.tau"),
        ({"tau": float("nan")}, "$.tau"),  # every match would be negative
        ({"tau": float("inf")}, "$.tau"),
        ({"tau": 10 ** 400}, "$.tau"),  # no float holds it
        ({"train": {"lr": float("inf")}}, "$.train.lr"),
        ({"lmcl": {"scale": float("nan")}}, "$.lmcl.scale"),
        ({"scene": {"pose_jitter": -10 ** 400}}, "$.scene.pose_jitter"),
        # numpy would fail without a key, or (noise) flip a sign silently
        ({"scene": {"pose_jitter": -5}}, "$.scene.pose_jitter"),
        ({"scene": {"noise_std": -1}}, "$.scene.noise_std"),
        ({"scene": {"seed": -3}}, "$.scene.seed"),
        ({"train": {"seed": -3}}, "$.train.seed"),  # gen reads no train seed
        # a check of one key alone is located at that key
        ({"train": {"lr": 0}}, "$.train.lr"),
        ({"train": {"patience": 0}}, "$.train.patience"),
        ({"train": {"lam": -0.5}}, "$.train.lam"),
        ({"train": {"warmup": -1}}, "$.train.warmup"),
        ({"train": {"batch_size": 0}}, "$.train.batch_size"),
        ({"train": {"max_epochs": 0}}, "$.train.max_epochs"),
        ({"lmcl": {"margin": 1.5}}, "$.lmcl.margin"),
        ({"lmcl": {"scale": -30}}, "$.lmcl.scale"),
        ({"binning": {"num_bins": 1}}, "$.binning.num_bins"),
        ({"scene": {"aliasing_rate": 1.5}}, "$.scene.aliasing_rate"),
        ({"scene": {"num_classes": 1}}, "$.scene.num_classes"),
        ({"scene": {"images_per_class": 0}}, "$.scene.images_per_class"),
        ({"scene": {"kappa_min": 0}}, "$.scene.kappa_min"),
        # beyond what the vMF sampler draws in d = 64: a math domain error
        ({"scene": {"kappa_max": 3e17}}, "$.scene.kappa_max"),
        # a constraint between keys: no epoch past the warmup, so the fit
        # would keep its starting parameters
        ({"train": {"max_epochs": 5}}, "$.train"),
    ])
    def test_bad_config_value_located(self, tmp_path, capsys, config, path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main(["gen", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert f"(at {path})" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # failed before any write

    def test_bad_seed_option_located(self, tmp_path, capsys):
        # --seed gives the scene's seed and the training's; the scene's
        # section is built first, so the failure is located there
        assert main(["gen", "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == \
            "error: seed must be >= 0, got -1 (at $.scene.seed)\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, message", [
        ({"train": {"lr": 0}}, "lr must be > 0, got 0 (at $.train.lr)"),
        ({"lmcl": {"margin": 1.5}},
         "margin must be in [0, 1), got 1.5 (at $.lmcl.margin)"),
        ({"binning": {"num_bins": 1}},
         "num_bins must be >= 2, got 1 (at $.binning.num_bins)"),
        ({"scene": {"descriptor_dim": 1}},
         "descriptor_dim must be >= 2, got 1 (at $.scene.descriptor_dim)"),
        ({"scene": {"kappa_min": 0}},
         "kappa_min must be > 0, got 0 (at $.scene.kappa_min)"),
    ])
    def test_single_key_check_names_its_value(self, tmp_path, capsys, config,
                                              message):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main(["gen", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_inseparable_prototypes_reported(self, tmp_path, capsys):
        # 64 prototypes cannot all keep |cos| < 0.5 in d = 16; gen names
        # the keys to change instead of ending in a traceback
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scene": {
            "num_classes": 64, "images_per_class": 20, "descriptor_dim": 16}}))
        out = tmp_path / "o"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: could not separate 64 prototypes")
        assert "scene.num_classes" in err and "scene.descriptor_dim" in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, path", [
        (lambda kappas: 5, "$.kappas"),
        (lambda kappas: ["x", *kappas[1:]], "$.kappas[0]"),
        (lambda kappas: [True, *kappas[1:]], "$.kappas[0]"),
        (lambda kappas: [kappas[0], -1.0, *kappas[2:]], "$.kappas[1]"),
        (lambda kappas: kappas[:2], "$.kappas")],
        ids=["number", "string item", "bool item", "negative item",
             "short"])
    def test_bad_manifest_value_located(self, workdir, tmp_path, capsys,
                                        edit, path):
        # eval reads the manifest's kappas alone (the scene record gives
        # the other rows): a bad one fails at its path, and nothing is
        # written
        out = _copy_scene(workdir, tmp_path / "o")
        doc = json.loads((workdir["out"] / "manifest.json").read_text())
        doc["kappas"] = edit(doc["kappas"])
        (out / "manifest.json").write_text(json.dumps(doc))
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["eval", "--out", str(out)]) == 1
        assert f"(at {path})" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files

    @pytest.mark.parametrize("broken, message", [
        (b'{"tau": 1,\n "ks": }\n',
         "invalid JSON: Expecting value (at line 2)"),
        (b"[1, 2]", "must be a JSON object (at $)"),
        (b'{"tau": "\xff"}', "not UTF-8 text (at byte 9)")],
        ids=["invalid JSON", "array", "not UTF-8"])
    @pytest.mark.parametrize("document", ["manifest.json", "config.json",
                                          "report.json"])
    def test_a_broken_document_is_located(self, workdir, tmp_path, capsys,
                                          document, broken, message):
        # the run directory's three JSON documents share one decoder: each
        # fails at its location, with nothing printed or written
        out = _copy_scene(workdir, tmp_path / "o")
        (out / document).write_bytes(broken)
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        argv = ["report", str(out / document), "--svg"] \
            if document == "report.json" else ["eval", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and \
            captured.err.endswith(f"{message}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files

    def test_gen_rejects_joint_mode(self, tmp_path, capsys):
        # train.mode selects fit's objective; train always trains jointly,
        # so a config that names joint training fails where it is loaded
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "train": {
            **SMALL_CONFIG["train"], "mode": "joint_training"}}))
        out = tmp_path / "o"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "post_training" in err and "(at $.train.mode)" in err
        assert not out.exists()


# the benchmark harness's entry, after an atexit hook that prints a marker
# when the interpreter finalizes
_FINALIZED = "finalized"
_ENTRY = ("import atexit, sys\n"
          f"atexit.register(print, {_FINALIZED!r})\n"
          "from kappa_sphere.cli import main\n"
          "sys.exit(main())")


def _program(argv, **popen) -> subprocess.Popen:
    """`argv` run by a fresh interpreter as the program, stdout and stderr
    piped; without PYTHONUNBUFFERED, stdout is block-buffered, so a
    command that ended before flushing would lose its output."""
    src = os.path.dirname(os.path.dirname(fileio.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-c", _ENTRY, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, **popen)


def _run_program(argv, **popen):
    """(status, stdout, stderr) of `argv` run as the program."""
    proc = _program(argv, **popen)
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


class TestProgramExit:
    """Run as the program, a command ends the process at its last flush,
    skipping finalization; main(argv) returns."""

    def test_each_command_prints_what_it_prints_in_process(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL_CONFIG))
        out = tmp_path / "run"
        for argv in (["gen", "--config", str(cfg), "--out", str(out)],
                     *([command, "--out", str(out)] for command in
                       ("fit", "eval", "match-eval", "train")),
                     ["report", str(out / "report.json")]):
            capsys.readouterr()
            assert main(argv) == 0, argv
            printed = capsys.readouterr().out
            assert _run_program(argv) == (0, printed, ""), argv

    def test_statuses(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"ks": []}))
        status, out, err = _run_program(
            ["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert (status, out) == (1, "")
        assert err.startswith("error: ") and err.endswith("(at $.ks)\n")
        # an argparse exit takes the interpreter's usual exit
        status, out, err = _run_program(
            ["eval", "--out", str(tmp_path / "o"), "--seed", "x"])
        assert (status, out) == (2, f"{_FINALIZED}\n")
        assert "invalid int value: 'x'" in err
        # started with its stdout closed, Python has no sys.stdout to flush
        cfg.write_text(json.dumps(SMALL_CONFIG))
        assert _run_program(
            ["gen", "--config", str(cfg), "--out", str(tmp_path / "o")],
            preexec_fn=lambda: os.close(1)) == (0, "", "")
        assert (tmp_path / "o" / "scene.npz").is_file()

    def test_a_reader_that_closes_early_fails_the_report(self, workdir,
                                                         tmp_path):
        # 2,000 bins print far more than a pipe holds, so the reader's
        # close meets a write still to come, which fails the command
        out = _copy_scene(workdir, tmp_path / "o")
        bins = _config_with(out, tmp_path / "bins.json",
                            binning={"num_bins": 2000})
        assert main(["eval", *bins, "--out", str(out)]) == 0
        proc = _program(["report", str(out / "report.json")])
        assert proc.stdout.readline().startswith("seed 0")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) != 0
        assert "Broken pipe" in err


class TestPooling:
    @pytest.mark.parametrize("command", ["fit", "train"])
    def test_each_scene_row_pooled_once(self, workdir, tmp_path, command,
                                        monkeypatch):
        # the training batches, the epoch hooks and the final kappas of a
        # command all read one pooling of the scene's frozen maps
        from kappa_sphere import head

        original, rows = head.aggregate, []

        def spy(fms):
            rows.append(len(fms))
            return original(fms)

        _patch_everywhere(monkeypatch, original, spy)
        out = tmp_path / "run"
        assert main(["gen", "--config", str(workdir["cfg"]),
                     "--out", str(out)]) == 0
        assert main([command, "--out", str(out)]) == 0
        scene = SMALL_CONFIG["scene"]
        assert rows == [scene["num_classes"] * scene["images_per_class"]]


class TestBench:
    def test_config_flag_rejected(self, capsys):
        # bench reads no run config, so argparse refuses --config
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", "missing.json"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_negative_seed_located(self, capsys, monkeypatch):
        # refused before any timing, worded as the run config's seeds
        def no_timing(*args, **kwargs):
            raise AssertionError("bench timed a negative seed")

        monkeypatch.setattr(bench, "run_bench", no_timing)
        assert main(["bench", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == \
            "error: seed must be >= 0, got -1 (at --seed)\n"


class TestUnsupportedMethods:
    def test_one_row_database_files_pa_and_sue_unsupported(self, rng):
        # PA and SUE need a second neighbor; the other methods still run.
        from kappa_sphere.pipeline import evaluate_queries
        from kappa_sphere.retrieval import Rows, batch_knn

        w = rng.standard_normal((4, 8))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        poses = rng.uniform(0, 100, (4, 2))
        bank = Rows(poses[:1], kappas=rng.uniform(2, 50, 1))
        queries = Rows(poses[1:], kappas=rng.uniform(2, 50, 3))
        ev = evaluate_queries(bank, queries, batch_knn(w[1:], w[:1], 1),
                              ks=(1,))
        assert set(ev.unsupported) == {"pa", "sue", "sue_log"}
        assert "2 retrieved neighbors" in ev.unsupported["pa"]
        assert ("resultant", 1) in ev.reports
        assert ("l2", 1) in ev.reports

    def test_scorer_error_is_not_filed_as_unsupported(self, rng):
        # A NaN kappa is a fault in the inputs, not a missing input: it
        # must surface instead of turning the method into "unsupported".
        from kappa_sphere.pipeline import evaluate_queries
        from kappa_sphere.retrieval import Rows, batch_knn

        w = rng.standard_normal((12, 8))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        poses = rng.uniform(0, 100, (12, 2))
        bank = Rows(poses[:8], kappas=rng.uniform(2, 50, 8))
        q_kappas = rng.uniform(2, 50, 4)
        q_kappas[2] = np.nan
        queries = Rows(poses[8:], kappas=q_kappas)
        with pytest.raises(ValueError, match="finite"):
            evaluate_queries(bank, queries, batch_knn(w[8:], w[:8], 8),
                             ks=(1,))
