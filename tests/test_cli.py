"""CLI surface: artifact generation, determinism, error paths."""

import json
import os

import numpy as np
import pytest

from kappa_sphere.cli import main

SMALL_CONFIG = {
    "scene": {"num_classes": 8, "images_per_class": 10, "descriptor_dim": 16,
              "aliasing_rate": 0.25, "seed": 0},
    "train": {"max_epochs": 8, "patience": 3, "warmup": 2, "lr": 0.05},
}


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


class TestGen:
    def test_writes_artifacts(self, workdir):
        out = workdir["out"]
        for name in ("bank.kpb", "manifest.json", "config.json"):
            assert (out / name).exists()

    def test_deterministic_bytes(self, workdir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = str(workdir["cfg"])
        assert main(["gen", "--config", cfg, "--out", str(a)]) == 0
        assert main(["gen", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "bank.kpb").read_bytes() == (b / "bank.kpb").read_bytes()
        assert (a / "manifest.json").read_bytes() == \
            (b / "manifest.json").read_bytes()

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
        rep = doc["reports"]["resultant@1"]
        assert sum(rep["bin_counts"]) == rep["total"]
        assert 0.0 <= rep["ece"] <= 1.0

    def test_method_and_k_filters(self, workdir):
        out = workdir["out"]
        assert main(["eval", "--out", str(out), "--method", "l2,pa",
                     "--k", "1"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert sorted(doc["reports"]) == ["l2@1", "pa@1"]

    def test_svg_emitted(self, workdir):
        out = workdir["out"]
        assert main(["eval", "--out", str(out), "--k", "1", "--method",
                     "resultant", "--svg"]) == 0
        svg = (out / "reliability_resultant_k1.svg").read_text()
        assert svg.startswith("<svg")

    def test_unknown_method_fails(self, workdir, capsys):
        assert main(["eval", "--out", str(workdir["out"]),
                     "--method", "entropy"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_quantile_strategy_recorded(self, workdir):
        out = workdir["out"]
        assert main(["eval", "--out", str(out), "--binning", "quantile",
                     "--k", "1", "--bins", "5"]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["reports"]["resultant@1"]["strategy"] == "quantile"
        assert doc["reports"]["resultant@1"]["num_bins"] == 5
        # the flags are part of the run's config, and recorded as such
        assert doc["config"]["ks"] == [1]
        assert doc["config"]["binning"] == {"num_bins": 5,
                                            "strategy": "quantile"}


class TestMatchEval:
    def test_match_report(self, workdir):
        out = workdir["out"]
        assert main(["match-eval", "--out", str(out), "--k", "1"]) == 0
        doc = json.loads((out / "match_report.json").read_text())
        assert doc["level"] == "match"
        assert set(doc["reports"]) == {"resultant", "l2"}
        assert doc["reports"]["resultant"]["level"] == "match"


class TestReportCommand:
    def test_renders_tables(self, workdir, capsys):
        out = workdir["out"]
        assert main(["eval", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out / "report.json")]) == 0
        text = capsys.readouterr().out
        assert "resultant@1" in text
        assert "bin  count  observed  expected" in text

    def test_rejects_wrong_schema(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        assert main(["report", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


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
        ({"scene": {"descriptor_dim": 1}}, "$.scene"),
        ({"scene": {"images_per_class": 4}}, "$.scene"),  # cannot stratify
    ])
    def test_bad_config_value_located(self, tmp_path, capsys, config, path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main(["gen", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        assert f"(at {path})" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, path", [
        ("poses", 5, "$.poses"),
        ("split", [[1]], "$.split[0]"),
        ("poses", [[1, 2, 3]], "$.poses[0]"),
        ("ids", ["x"], "$.ids[0]"),
    ])
    def test_bad_manifest_value_located(self, workdir, tmp_path, capsys,
                                        field, value, path):
        out = tmp_path / "o"
        out.mkdir()
        for name in ("bank.kpb", "config.json"):
            (out / name).write_bytes((workdir["out"] / name).read_bytes())
        doc = json.loads((workdir["out"] / "manifest.json").read_text())
        doc[field] = value if not isinstance(value, list) \
            else value + doc[field][len(value):]
        (out / "manifest.json").write_text(json.dumps(doc))
        assert main(["eval", "--out", str(out)]) == 1
        assert f"(at {path})" in capsys.readouterr().err

    def test_fit_rejects_joint_mode(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        doc = dict(SMALL_CONFIG)
        doc["train"] = {**SMALL_CONFIG["train"], "mode": "joint_training"}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["fit", "--out", str(out)]) == 1
        assert "post_training" in capsys.readouterr().err


class TestUnsupportedMethods:
    def test_sue_reported_unsupported_without_poses(self, rng):
        # Pipeline-level: a pose-less bank with explicit ground truth must
        # still evaluate the other methods and report SUE as unsupported.
        from kappa_sphere.pipeline import evaluate_queries
        from kappa_sphere.retrieval import (DescriptorBank, GroundTruth,
                                            GroundTruthMode)

        w = rng.standard_normal((12, 8))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        bank = DescriptorBank(descriptors=w[:8], ids=np.arange(8),
                              labels=np.zeros(8),
                              kappas=rng.uniform(2, 50, 8))
        queries = DescriptorBank(descriptors=w[8:], ids=np.arange(8, 12),
                                 labels=np.zeros(4),
                                 kappas=rng.uniform(2, 50, 4))
        gt = GroundTruth(mode=GroundTruthMode.EXPLICIT_POSITIVES,
                         positives={i: {0} for i in range(8, 12)})
        ev = evaluate_queries(bank, queries, ks=(1,), gt=gt)
        assert "sue" in ev.unsupported
        assert "sue_log" in ev.unsupported
        assert ("resultant", 1) in ev.reports
        assert ("l2", 1) in ev.reports

    def test_one_row_database_files_pa_and_sue_unsupported(self, rng):
        # PA and SUE need a second neighbor; the other methods still run.
        from kappa_sphere.pipeline import evaluate_queries
        from kappa_sphere.retrieval import DescriptorBank

        w = rng.standard_normal((4, 8))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        poses = rng.uniform(0, 100, (4, 2))
        bank = DescriptorBank(descriptors=w[:1], ids=np.arange(1),
                              labels=np.zeros(1), poses=poses[:1],
                              kappas=rng.uniform(2, 50, 1))
        queries = DescriptorBank(descriptors=w[1:], ids=np.arange(1, 4),
                                 labels=np.zeros(3), poses=poses[1:],
                                 kappas=rng.uniform(2, 50, 3))
        ev = evaluate_queries(bank, queries, ks=(1,))
        assert set(ev.unsupported) == {"pa", "sue", "sue_log"}
        assert "2 retrieved neighbors" in ev.unsupported["pa"]
        assert ("resultant", 1) in ev.reports
        assert ("l2", 1) in ev.reports

    def test_scorer_error_is_not_filed_as_unsupported(self, rng):
        # A NaN kappa is a fault in the inputs, not a missing input: it
        # must surface instead of turning the method into "unsupported".
        from kappa_sphere.pipeline import evaluate_queries
        from kappa_sphere.retrieval import DescriptorBank

        w = rng.standard_normal((12, 8))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        poses = rng.uniform(0, 100, (12, 2))
        bank = DescriptorBank(descriptors=w[:8], ids=np.arange(8),
                              labels=np.zeros(8), poses=poses[:8],
                              kappas=rng.uniform(2, 50, 8))
        q_kappas = rng.uniform(2, 50, 4)
        q_kappas[2] = np.nan
        queries = DescriptorBank(descriptors=w[8:], ids=np.arange(8, 12),
                                 labels=np.zeros(4), poses=poses[8:],
                                 kappas=q_kappas)
        with pytest.raises(ValueError, match="finite"):
            evaluate_queries(bank, queries, ks=(1,))
