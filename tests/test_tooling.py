"""The layer tracer's targets and the names the benchmark harness imports
from the package exist, so a rename fails here rather than in a benchmark
run; the benchmark runs eval before every match-eval; the ECE oracle
shares no code with the fast path; no package module imports scipy, and
the CLI's modules start without it; every module-level function and class
of the package runs outside the tests; every raise in the package is an
exception the CLI reports; --help and argument errors return without
loading numpy; every demo runs; no CLI command leaves a temp file in its
run directory; no module but scores spells a method's name; traced scores
keep their spans; gen does not load numpy.ma; no package module leaves
work to interpreter finalization; no scorer receives a descriptor; and
only the training loop gathers a batch."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "kappa_sphere"
TRACE_RUNNER = ROOT / "perfbench" / "trace_runner.py"
HARNESS = ROOT / "perfbench" / "harness.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this tree, run on `args`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _fresh_python(code: str) -> str:
    """Stdout of `code` run by a fresh interpreter that imports this tree."""
    proc = _run_python(["-c", code])
    proc.check_returncode()
    return proc.stdout.strip()


def _load(path):
    """The module at `path`, under a private name that is in sys.modules
    only while the module runs (a dataclass looks its module up)."""
    name = f"_tooling_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _trace_runner():
    return _load(TRACE_RUNNER)


def test_trace_targets_exist():
    trace_runner = _trace_runner()
    missing = [f"{module}.{name}"
               for module, functions in trace_runner.TARGETS.items()
               for name in functions
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert not missing, missing


def test_trace_path_counters_read_the_first_parameter():
    # The tracer counts fileio.bytes_read from a target's first argument or
    # its `path` keyword; a target that took its file elsewhere would count
    # 0 bytes without failing.
    trace_runner = _trace_runner()
    counted = {f"{module}.{name}": getattr(importlib.import_module(module),
                                           name)
               for module, functions in trace_runner.TARGETS.items()
               for name, (_, _, count) in functions.items()
               if count is trace_runner._path_size}
    assert counted
    wrong = [name for name, fn in counted.items()
             if list(inspect.signature(fn).parameters)[:1] != ["path"]]
    assert not wrong, wrong


def test_trace_epoch_counters_read_the_history():
    # The tracer counts training.epochs from a trainer's result by
    # position; a reordered result would count the head's three entries.
    # Without an eval hook every configured epoch runs.
    import numpy as np

    from kappa_sphere.head import init_head
    from kappa_sphere.training import (LmclConfig, TrainConfig, train_joint,
                                       train_post)
    from oracles import unit_rows

    targets = _trace_runner().TARGETS["kappa_sphere.training"]
    rng = np.random.default_rng(0)
    unit = unit_rows(rng, 12, 6)
    features, labels = rng.random((12, 3)), np.arange(12) % 4
    raw = rng.standard_normal((12, 5))
    protos = unit[:4].copy()
    head = init_head((3, 2, 2), hidden=4, rng=rng)
    cfg = TrainConfig(max_epochs=2, warmup=0)
    for name, run in (
            ("train_post", lambda: train_post(features, unit, labels, protos,
                                              head, cfg)),
            ("train_joint", lambda: train_joint(
                features, raw, labels, rng.standard_normal((6, 5)), protos,
                head, cfg, LmclConfig()))):
        _, counter, count = targets[name]
        assert counter == "training.epochs"
        assert count((), {}, run()) == cfg.max_epochs, name


def test_trace_pair_counter_reads_the_search_shape():
    # The tracer counts retrieval.batch_knn.pairs, n*N, from a search's
    # first two arguments by position: the queries, then the reference
    # rows.  A reordered signature would count something else unseen.
    import inspect

    import numpy as np

    from kappa_sphere.retrieval import batch_knn

    traced, counter, count = _trace_runner().TARGETS[
        "kappa_sphere.retrieval"]["batch_knn"]
    assert traced and counter == "retrieval.batch_knn.pairs"
    assert list(inspect.signature(batch_knn).parameters)[:2] == [
        "queries", "refs"]
    refs = np.random.default_rng(0).standard_normal((40, 6))
    refs /= np.linalg.norm(refs, axis=1, keepdims=True)
    args = (refs[:7], refs, 3)
    result = batch_knn(*args)
    assert count(args, {}, result) == len(result) * len(refs) == 7 * 40


def test_traced_scores_keep_their_spans(tmp_path):
    # The tracer replaces scores.score_query and scores.match_uncertainty
    # in every package module as it is imported; a caller that reached one
    # through a reference stored elsewhere (a method table) would drop its
    # calls out of the scores.* spans.  eval scores each query-level
    # method once and fuses kappas once, inside the resultant's call;
    # match-eval fuses them once more, for the pairs.
    from kappa_sphere import scores as sc
    from kappa_sphere.cli import main

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "scene": {"num_classes": 8, "images_per_class": 10,
                  "descriptor_dim": 16},
        "train": {"max_epochs": 2, "warmup": 0}}))
    out = tmp_path / "run"
    for argv in (["gen", "--config", str(cfg)], ["fit"]):
        assert main([*argv, "--out", str(out)]) == 0
    want = {"eval": {"score_query": (len(sc.methods_at(sc.QUERY)),
                                     "pipeline.evaluate_queries"),
                     "match_uncertainty": (1, "scores.score_query")},
            "match-eval": {"score_query": (0, None),
                           "match_uncertainty": (1,
                                                 "pipeline.evaluate_matches")}}
    for command, functions in want.items():
        spans = tmp_path / f"{command}.json"
        proc = _run_python([str(TRACE_RUNNER), str(spans), "--", command,
                            "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        trace = json.loads(spans.read_text())
        names = trace["names"]
        for function, (calls, parent) in functions.items():
            found = [span for span in trace["spans"]
                     if names[span[0]] == f"scores.{function}"]
            assert len(found) == calls, (command, function)
            assert {names[trace["spans"][span[3]][0]] for span in found} \
                <= {parent}, (command, function)


def test_ece_oracle_shares_no_code_with_the_fast_path():
    # criterion 4 and the benchmark's eval check compare the ECE with
    # ece_bruteforce_oracle exactly; an oracle that called the fast path's
    # clamp, binning or anchors would agree with a bug in them
    tree = ast.parse((PACKAGE / "calibration.py").read_text())
    oracle, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "ece_bruteforce_oracle"]
    used = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(oracle)
             if isinstance(node, ast.Attribute)}
    assert not used & {"clamp_values", "bin_assign", "_ece_report",
                       "expected_level", "_clamp_indices", "CLAMP_LOW_PCT",
                       "CLAMP_HIGH_PCT"}, used


def test_harness_imports_exist():
    # The harness checks eval's report against names it imports from the
    # package it measures (the ECE oracle among them).  The benchmark runs
    # the harness of its own commit, so moving one of those names out of
    # the package fails every benchmark eval check.
    imports = [node for node in ast.walk(ast.parse(HARNESS.read_text()))
               if isinstance(node, ast.ImportFrom)
               and (node.module or "").startswith("kappa_sphere")]
    assert imports
    missing = [f"{node.module}.{alias.name}" for node in imports
               for alias in node.names
               if not hasattr(importlib.import_module(node.module),
                              alias.name)]
    assert not missing, missing


def test_harness_configs_load(tmp_path):
    # every run config the harness hands to gen, full size and smoke,
    # loads; gen's config.json loads back to the same RunConfig, and gen
    # run on it writes the same bytes again
    from kappa_sphere.cli import main
    from kappa_sphere.fileio import load_run_config

    harness = _load(HARNESS)
    configs = [w.config for w in harness.WORKLOADS.values()]
    configs += [harness.smoke(w).config for w in harness.WORKLOADS.values()]
    for i, config in enumerate(configs):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(config))
        run = load_run_config(path)
        if run.scene.num_classes * run.scene.images_per_class > 1000:
            continue  # the 30k-image scene: loading it is the check
        first, second = tmp_path / f"gen{i}", tmp_path / f"regen{i}"
        assert main(["gen", "--config", str(path), "--out", str(first)]) == 0
        assert load_run_config(first / "config.json") == run
        assert main(["gen", "--config", str(first / "config.json"),
                     "--out", str(second)]) == 0
        assert (second / "config.json").read_bytes() == \
            (first / "config.json").read_bytes()


def _parsed(paths):
    return {path: ast.parse(path.read_text()) for path in paths}


def test_method_names_are_spelled_only_in_scores():
    # scores.METHODS is the one table of the methods; a module that spelled
    # a method's name would be a second place to change with it
    from kappa_sphere import scores as sc

    found = [f"{path.name}:{node.lineno} {node.value!r}"
             for path, tree in _parsed(sorted(PACKAGE.glob("*.py"))).items()
             if path.name != "scores.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in sc.ALL_METHODS]
    assert len(sc.ALL_METHODS) == 6
    assert not found, found


def test_no_scorer_receives_a_descriptor():
    # descriptors travel as bare matrices to the search and the trainers;
    # the scores, ground truth and success marking read a Rows record of
    # poses and kappas, which has no descriptor field to carry one
    from dataclasses import fields

    from kappa_sphere.retrieval import Rows

    trees = _parsed([PACKAGE / "scores.py", PACKAGE / "retrieval.py"])
    readers = {"scores.py": trees[PACKAGE / "scores.py"]}
    readers.update({f"retrieval.{node.name}": node
                    for node in trees[PACKAGE / "retrieval.py"].body
                    if isinstance(node, ast.FunctionDef)
                    and node.name in ("positive_mask", "mark_successes")})
    assert len(readers) == 3
    found = [f"{where}:{node.lineno}" for where, tree in readers.items()
             for node in ast.walk(tree)
             if "descriptors" in (getattr(node, "id", None),
                                  getattr(node, "attr", None),
                                  getattr(node, "arg", None))]
    assert not found, found
    assert "descriptors" not in {f.name for f in fields(Rows)}


def test_only_the_fit_gathers_a_batch():
    # the trainers hand `_fit` bare per-sample arrays and it gathers every
    # batch from them: no other function of training (a trainer or a
    # closure of one) subscripts an array with the batch index, and no
    # record type carries the samples
    tree = _parsed([PACKAGE / "training.py"])[PACKAGE / "training.py"]
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    # the batch index: the names _fit binds to a slice of its permutation
    batch = {target.id for node in ast.walk(functions["_fit"])
             if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Subscript)
             and getattr(node.value.value, "id", None) == "perm"
             for target in node.targets}
    assert batch == {"idx"}

    def gathers(function):
        return [node.lineno for node in ast.walk(function)
                if isinstance(node, ast.Subscript)
                and getattr(node.slice, "id", None) in batch]

    assert gathers(functions["_fit"])
    found = {name: gathers(function) for name, function in functions.items()
             if name != "_fit" and gathers(function)}
    assert not found, found
    assert {node.name for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)} == {
        "TrainMode", "TrainConfig", "LmclConfig", "AdamState"}


def _package_imports(top_level) -> list:
    """"<file>:<line> <module>" for each import, function-level ones too,
    in the package of a module whose top-level name is in `top_level`."""
    found = []
    for path, tree in _parsed(sorted(PACKAGE.glob("*.py"))).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] in top_level]
    return found


def test_no_package_module_imports_scipy():
    # scipy is a test dependency; the oracles that need it live in
    # tests/oracles.py.
    found = _package_imports({"scipy"})
    assert not found, found


def test_package_leaves_no_work_to_finalization():
    # run as the program, a command ends with os._exit once stdout and
    # stderr are flushed (cli.main), which would cut short a thread, a
    # child process, an atexit hook or a signal handler
    found = _package_imports({"_thread", "atexit", "concurrent",
                              "multiprocessing", "signal", "threading"})
    assert not found, found


def test_package_names_run_outside_the_tests():
    # What the tests exercise is what production runs: every module-level
    # function and class of the package is referenced by code outside
    # tests/ (a package module, a demo or the benchmark), not only defined.
    # A reference is matched by name alone, so the check errs toward passing.
    production = sorted(PACKAGE.glob("*.py")) + DEMOS + sorted(
        (ROOT / "perfbench").glob("*.py"))
    used = set()
    for tree in _parsed(production).values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    defined = [(path.stem, node.name)
               for path, tree in _parsed(sorted(PACKAGE.glob("*.py"))).items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    unused = {f"{module}.{name}" for module, name in defined
              if name not in used}
    assert unused == set()


def test_package_raises_what_the_cli_reports():
    # cli.main prints "error: ..." for ValueError, OSError and KeyError, so
    # any other exception a command raises ends in a traceback.  Each
    # raise is resolved in its module's namespace; a bare re-raise passes
    # on what its handler caught.
    import builtins

    reported = (ValueError, OSError, KeyError)
    found = []
    for path, tree in _parsed(sorted(PACKAGE.glob("*.py"))).items():
        name = "kappa_sphere" if path.stem == "__init__" \
            else f"kappa_sphere.{path.stem}"
        namespace = {**vars(builtins), **vars(importlib.import_module(name))}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            try:
                cls = eval(ast.unparse(exc), namespace)
            except NameError:
                cls = None
            if not (isinstance(cls, type) and issubclass(cls, reported)):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(exc)}")
    assert not found, found


def test_cli_modules_import_without_scipy():
    # scipy is a test dependency: no module a CLI command loads may pull
    # it in.  A fresh interpreter, because this test process has it loaded.
    code = ("import sys\n"
            "import kappa_sphere.cli, kappa_sphere.pipeline, kappa_sphere.fileio\n"
            "import kappa_sphere.synth, kappa_sphere.training, kappa_sphere.bench\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert _fresh_python(code) == "[]"


def test_help_and_argument_errors_skip_numpy():
    # the reason the package and the CLI defer their heavy imports
    code = ("import sys\n"
            "from kappa_sphere.cli import main\n"
            "for argv in (['--help'], ['eval', '--help'], ['eval'],\n"
            "             ['eval', '--out', 'o', '--seed', 'x'], ['nope']):\n"
            "    try:\n"
            "        main(argv)\n"
            "    except SystemExit:\n"
            "        pass\n"
            "    else:\n"
            "        raise AssertionError(argv)\n"
            "print('numpy' in sys.modules)")
    assert _fresh_python(code).splitlines()[-1] == "False"


def test_gen_skips_numpy_ma(tmp_path):
    # numpy.ma costs about 17 ms to import, and np.unique loads it; no
    # command needs it, gen included
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scene": {"num_classes": 8,
                                         "images_per_class": 10,
                                         "descriptor_dim": 16}}))
    code = ("import sys\n"
            "from kappa_sphere.cli import main\n"
            f"assert main(['gen', '--config', {str(cfg)!r}, '--out',\n"
            f"             {str(tmp_path / 'run')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)")
    assert _fresh_python(code).splitlines()[-1] == "False"


def test_harness_commands_parse(tmp_path):
    # every command a workload runs, full size and smoke, parses as the
    # harness builds it, so removing an option the benchmark passes fails
    # here rather than in every benchmark run
    from kappa_sphere.cli import build_parser

    harness = _load(HARNESS)
    parser = build_parser()
    workloads = list(harness.WORKLOADS.values())
    workloads += [harness.smoke(w) for w in workloads]
    for i, workload in enumerate(workloads):
        run = harness.Run(tmp_path / str(i), workload, 0, {}, {})
        for command in workload.setup + workload.measured:
            argv = run.argv(command)
            assert argv[:3] == [sys.executable, "-c", harness.CLI_ENTRY]
            args = parser.parse_args(argv[3:])
            assert (args.command, args.out, args.seed) == \
                (command, str(run.run_dir), 0)


def test_harness_runs_eval_before_every_match_eval():
    # match-eval scores the search eval recorded, and gen, fit and train
    # rewrite the inputs that search is keyed by; a workload that reached
    # match-eval otherwise would fail every benchmark check.  Walked over
    # a set-up and two rounds, so a round's end meets the next one's start.
    harness = _load(HARNESS)
    workloads = list(harness.WORKLOADS.values())
    workloads += [harness.smoke(w) for w in workloads]
    for workload in workloads:
        commands = workload.setup + 2 * workload.measured
        assert "match-eval" in commands, workload.name
        recorded = False
        for i, command in enumerate(commands):
            if command in ("gen", "fit", "train"):
                recorded = False
            elif command == "eval":
                recorded = True
            elif command == "match-eval":
                assert recorded, (workload.name, commands[:i + 1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # in a scratch directory: scene_walkthrough writes its SVG there
    proc = _run_python([str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_commands_leave_no_temp_files(tmp_path):
    # every artifact is written to a .tmp-* sibling and renamed into place,
    # the scene record and the recorded retrieval streamed into theirs
    from kappa_sphere.cli import main

    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "scene": {"num_classes": 8, "images_per_class": 10,
                  "descriptor_dim": 16},
        "train": {"max_epochs": 2, "warmup": 0}}))
    out = tmp_path / "run"
    for argv, status in ((["gen", "--config", str(cfg)], 0), (["fit"], 0),
                         (["eval"], 0), (["match-eval"], 0), (["train"], 0),
                         (["fit", "--seed", "1"], 1)):  # another scene
        assert main([*argv, "--out", str(out)]) == status, argv
        assert not sorted(out.glob(".tmp-*")), argv
