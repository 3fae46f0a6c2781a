"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The smoke tests drive the real CLI on a 160-image scene, with a reference
run around every command, so they take about a minute and a half.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """One smoke run per workload; cli-default, which runs every command,
    goes through the traced path, which also runs an untraced round."""
    runs = {}
    for name, trace in (("cli-default", True), ("eval-30k", False)):
        work = tmp_path_factory.mktemp(name)
        runs[name] = (work, harness.run_benchmark(
            ROOT, work, harness.smoke(harness.WORKLOADS[name]), seed=3,
            seconds=0.0, trace=trace))
    return runs


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_smoke_workload_runs_clean(smoke_runs, name):
    _, detail = smoke_runs[name]
    result = detail["result"]
    assert detail["problems"] == []
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 5
    expected = harness.PER_LAYER if detail["trace"] else harness.END_TO_END
    assert set(result["metrics"]) == set(expected)
    if not detail["trace"]:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    workload = harness.WORKLOADS[name]
    assert set(detail["digests"]) == {
        f"{command}/{artifact}"
        for command in workload.setup + workload.measured
        for artifact in harness.DIGESTED
        if artifact in harness.ARTIFACTS[command]}


def test_traced_smoke_counts_every_layer(smoke_runs):
    metrics = {k: v["value"] for k, v in smoke_runs["cli-default"][1]["result"]
               ["metrics"].items()}
    for name, value in metrics.items():
        if name.endswith(".calls") or name in harness.COUNTERS:
            assert value > 0, name
    assert metrics["training.epochs"] == 4  # two fixed epochs, fit and train
    assert 0 < metrics["trace.covered_frac.eval"] < 1


def test_output_check_rejects_a_wrong_report(tmp_path):
    workload = harness.smoke(harness.WORKLOADS["cli-default"])
    run = harness.Run(tmp_path, workload, 3, harness.child_env(ROOT), {})
    run.setup()
    run.commands(("fit", "eval"))
    assert run.problems == [] and run.attempted == 3
    report = json.loads((run.run_dir / "report.json").read_text())
    report["recalls"]["5"] -= 1.0 / 64
    report["reports"]["l2@1"]["ece"] += 1e-9
    (run.run_dir / "report.json").write_text(json.dumps(report))
    problems = harness.check_report(run.run_dir, workload)
    assert len(problems) == 2
    assert problems[0].startswith("Recall@5") and "l2@1 ECE" in problems[1]


def test_changed_digest_fails_the_command_that_wrote_it(smoke_runs):
    work, detail = smoke_runs["eval-30k"]
    store = json.loads((work / "digests.json").read_text())
    (key, known), = store.items()
    known["eval/report.json"] = "0" * 64
    (work / "digests.json").write_text(json.dumps(store))
    again = harness.run_benchmark(
        ROOT, work, harness.smoke(harness.WORKLOADS["eval-30k"]), seed=3,
        seconds=0.0, trace=False)
    assert again["result"]["failed"] == 1
    assert again["problems"] == [
        "eval: report.json digest differs from an earlier round or run"]


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 9]
    spans = [
        [0, 0.0, 10.0, -1, None],
        [1, 1.0, 5.0, 0, None],
        [2, 2.0, 3.0, 1, None],
        [3, 6.0, 9.0, 0, 7],
    ]
    assert harness.self_times(spans) == [3.0, 3.0, 1.0, 3.0]
    doc = {"names": ["cli.main", "pipeline.fit_head", "head.forward_batch",
                     "retrieval.batch_knn"],
           "spans": spans, "counts": {"retrieval.batch_knn.pairs": 7}}
    assert harness.covered_share(doc, wall_s=20.0) == pytest.approx(0.35)
    metrics = harness.layer_metrics([doc, doc])
    assert metrics["cli.main.self_s"] == 6.0
    assert metrics["pipeline.fit_head.self_s"] == 6.0
    assert metrics["head.forward_batch.calls"] == 2
    assert metrics["retrieval.batch_knn.pairs"] == 14
    assert metrics["retrieval.batch_knn.sim_mb"] == 7 * 8 / 2**20


def test_metric_names_are_declared_in_benchmark_json():
    for kind, emitted in (("end_to_end", harness.END_TO_END),
                          ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        for name in emitted:
            assert METRIC_NAME.fullmatch(name), name
        assert declared == emitted
    assert [w["name"] for w in DECLARED["workloads"]] == list(harness.WORKLOADS)


def test_refuses_to_run_without_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "harness.py"), "--workload",
         "cli-default", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_a_round_is_scaled_by_the_references_around_it():
    # a host twice as slow doubles both the round and its references
    fast = harness.Pass(wall_s=6.0, refs=[0.4, 0.6, 0.5])
    slow = harness.Pass(wall_s=12.0, refs=[0.8, 1.2, 1.0])
    assert fast.norm_s == pytest.approx(6.0 * harness.REF_NOMINAL_S / 0.5)
    assert slow.norm_s == pytest.approx(fast.norm_s)
