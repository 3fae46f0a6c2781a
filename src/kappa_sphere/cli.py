"""Command-line surface.

Subcommands:

* ``gen``        generate a synthetic scene -> bank + manifest + config +
                 scene record
* ``fit``        post-train the kappa head on the scene gen recorded
* ``train``      joint training (margin loss + weighted vMF term) on it
* ``eval``       query-level Recall@K + ECE@K reports for every method
* ``match-eval`` match-level calibration reports of the search eval
                 recorded
* ``report``     render a report JSON as text tables (optionally the
                 reliability diagrams as SVG)
* ``bench``      latency benchmark of the kappa path

A run's settings have one source, its config: ``--config`` or, after
``gen``, the ``config.json`` in ``--out``.  ``--seed`` overrides its seeds;
K (``ks``), the bins (``binning``) and tau are set there alone, so a
report's ``config`` block is the config its run read.

Heavy imports happen inside the command functions, so ``--help`` and
argument errors return without loading numpy.

Run as the program (the ``kappa-sphere`` console script, or
``sys.exit(main())``), a command ends the process at its last flush and
skips the interpreter's finalization; ``main(argv)`` returns its status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kappa-sphere",
        description="Hyperspherical uncertainty for place recognition: "
                    "vMF concentration training, resultant uncertainty "
                    "scores, and rank-based calibration.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the commands of a run directory, each set up by the run config
    for name, help_text in (
            ("gen", "generate a synthetic scene"),
            ("fit", "post-train the kappa head"),
            ("train", "joint training of encoder + head"),
            ("eval", "query-level evaluation"),
            ("match-eval", "match-level evaluation of eval's search")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="run-config JSON path")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="artifact directory")

    p = sub.add_parser("report", help="render a report JSON")
    p.add_argument("path", help="report JSON file")
    p.add_argument("--svg", action="store_true",
                   help="write reliability diagrams next to the report")

    p = sub.add_parser("bench", help="latency benchmark")
    p.add_argument("--seed", type=int, help="seed of the benchmark's inputs")
    p.add_argument("--out", default=None, help="optional output directory")

    return parser


# ---------------------------------------------------------------------------


def _resolve(args):
    """The run config: --config or, after gen, the config.json gen recorded
    in --out, with --seed overriding its seeds."""
    from . import fileio

    path = args.config
    if path is None and args.command != "gen":
        recorded = _paths(args.out)["config"]
        path = recorded if os.path.exists(recorded) else None
    return fileio.load_run_config(path, args.seed)


def _paths(out):
    return {
        "bank": os.path.join(out, "bank.kpb"),
        "manifest": os.path.join(out, "manifest.json"),
        "config": os.path.join(out, "config.json"),
        "model": os.path.join(out, "model.json"),
        "history": os.path.join(out, "history.csv"),
        "retrieval": os.path.join(out, "retrieval.npz"),
        "scene": os.path.join(out, "scene.npz"),
    }


def _write_artifacts(out, run, descriptors, rows, splits, history=None,
                     **model) -> dict:
    """Write the bank of the (n, d) `descriptors`, the manifest of the
    Rows `rows` and their `splits`, and the run config into `out`; with a
    training `history`, also the model state (`model` goes to
    `fileio.write_model_state`) and history.csv.  Returns the paths."""
    from . import fileio

    os.makedirs(out, exist_ok=True)
    paths = _paths(out)
    if history is not None:
        fileio.write_model_state(paths["model"], **model)
        fileio.atomic_write_text(paths["history"], fileio.history_csv(history))
    fileio.write_bank(paths["bank"], descriptors)
    fileio.write_manifest(paths["manifest"], rows, splits)
    fileio.atomic_write_text(paths["config"], json.dumps(
        run.to_json(), sort_keys=True, indent=2))
    return paths


def cmd_gen(args) -> int:
    from . import fileio
    from .synth import generate_scene

    run = _resolve(args)
    dataset = generate_scene(run.scene)
    paths = _write_artifacts(args.out, run, dataset.descriptors,
                             dataset.rows, dataset.splits)
    # fit and train read this record instead of generating the scene again
    fileio.write_scene(paths["scene"], dataset)
    print(f"wrote {paths['bank']}, {paths['manifest']}, {paths['config']}, "
          f"{paths['scene']}")
    return 0


def cmd_fit(args) -> int:
    from . import fileio
    from .pipeline import fit_head, predict_kappas

    run = _resolve(args)
    dataset = fileio.read_scene(_paths(args.out)["scene"], run.scene)
    head, history = fit_head(dataset, cfg=run.train, tau=run.tau,
                             binning=run.binning)
    rows = dataset.rows.with_kappas(predict_kappas(dataset.head_inputs, head))
    paths = _write_artifacts(args.out, run, dataset.descriptors, rows,
                             dataset.splits, history, head=head,
                             extra={"mode": run.train.mode.value,
                                    "epochs": len(history)})
    print(f"fitted head in {len(history)} epochs; wrote {paths['model']}")
    return 0


def cmd_train(args) -> int:
    from . import fileio
    from .pipeline import fit_joint, predict_kappas
    from .training import encode

    run = _resolve(args)
    dataset = fileio.read_scene(_paths(args.out)["scene"], run.scene)
    encoder, prototypes, head, history = fit_joint(
        dataset, cfg=run.train, lmcl=run.lmcl, tau=run.tau,
        binning=run.binning)
    rows = dataset.rows if head is None else dataset.rows.with_kappas(
        predict_kappas(dataset.head_inputs, head))
    descriptors, splits = encode(encoder, dataset.raw), dataset.splits
    del dataset  # none of its arrays is written: freed before the writes
    paths = _write_artifacts(args.out, run, descriptors, rows, splits,
                             history, head=head, encoder=encoder,
                             prototypes=prototypes,
                             extra={"mode": "joint_training",
                                    "lam": run.train.lam,
                                    "epochs": len(history)})
    print(f"joint training finished in {len(history)} epochs; "
          f"wrote {paths['model']}")
    return 0


def cmd_eval(args) -> int:
    from . import fileio, retrieval
    from .pipeline import evaluate_queries, search_splits

    paths = _paths(args.out)
    run = _resolve(args)
    # each row field from the file that writes it: the scene's rows from
    # gen's record, which a config (or --seed) of another scene fails, as
    # fit and train fail; the bank's descriptors; the manifest's kappas
    rows, splits = fileio.read_scene_rows(paths["scene"], run.scene)
    # hashed before either file is parsed: a file replaced in between
    # leaves the record keyed by bytes the file no longer holds, so
    # match-eval misses it rather than reuse a search of other bytes
    key = fileio.inputs_key(paths["bank"], paths["manifest"])
    desc = fileio.read_bank(paths["bank"])
    shape = (len(rows), run.scene.descriptor_dim)
    if desc.shape != shape:
        raise ValueError(f"{paths['bank']} holds descriptors of shape "
                         f"{desc.shape}, but the scene's are {shape}")
    rows = rows.with_kappas(fileio.read_manifest(paths["manifest"], shape[0]))
    db, queries = rows.subset(splits["db"]), rows.subset(splits["query"])
    # the config cannot check K against the database, known only here
    if max(run.ks) > len(db):
        raise ValueError(f"K = {max(run.ks)} exceeds the {len(db)} rows "
                         "of the database (at $.ks)")
    results = search_splits(desc, splits, run.ks)
    ev = evaluate_queries(db, queries, results, ks=run.ks,
                          binning=run.binning, tau=run.tau)
    body = {
        "level": "query",
        "recalls": {str(k): v for k, v in ev.recalls.items()},
        "spearman_kappa": ev.spearman_kappa,
        "sue_k": retrieval.SUE_K,
        "unsupported": ev.unsupported,
        "reports": {f"{m}@{k}": rep.to_dict()
                    for (m, k), rep in sorted(ev.reports.items())},
    }
    out_path = os.path.join(args.out, "report.json")
    fileio.atomic_write_text(out_path, fileio.report_document(body, run))
    # match-eval scores the first k columns of this search, with the poses
    # and kappas recorded beside it: it parses neither input and never
    # searches.  eval itself never reads the file
    fileio.write_retrieval(paths["retrieval"], key, db, queries, results)
    _print_query_table(ev, run.ks)
    print(f"wrote {out_path}")
    return 0


def cmd_match_eval(args) -> int:
    from . import fileio
    from .pipeline import evaluate_matches

    paths = _paths(args.out)
    run = _resolve(args)
    fileio.check_scene(paths["scene"], run.scene)
    key = fileio.inputs_key(paths["bank"], paths["manifest"])
    k = run.ks[0]
    # eval's record of a search of these exact input bytes, at least k
    # deep; a miss is an error that names the command to run
    db, queries, results = fileio.read_retrieval(paths["retrieval"], key, k)
    ev = evaluate_matches(db, queries, results, binning=run.binning,
                          tau=run.tau)
    body = {
        "level": "match",
        "k": k,
        "unsupported": ev.unsupported,
        "reports": {m: rep.to_dict() for m, rep in sorted(ev.reports.items())},
    }
    out_path = os.path.join(args.out, "match_report.json")
    fileio.atomic_write_text(out_path, fileio.report_document(body, run))
    for m, rep in sorted(ev.reports.items()):
        print(f"match {m:12s} ECE@{k} = {rep.ece:.4f}  (T={rep.total})")
    for m, reason in ev.unsupported.items():
        print(f"match {m:12s} unsupported: {reason}")
    print(f"wrote {out_path}")
    return 0


def _print_query_table(ev, ks) -> None:
    methods = sorted({m for (m, _) in ev.reports})
    header = "method      " + "".join(f"  ECE@{k:<4d}" for k in ks)
    print("recall: " + "  ".join(f"R@{k}={ev.recalls[k]:.3f}" for k in ks))
    if ev.spearman_kappa is not None:
        print(f"spearman(kappa_hat, kappa*): {ev.spearman_kappa:.4f}")
    print(header)
    for m in methods:
        cells = "".join(f"  {ev.reports[(m, k)].ece:8.4f}" for k in ks)
        print(f"{m:12s}{cells}")
    for m, reason in ev.unsupported.items():
        print(f"{m:12s}  unsupported: {reason}")


def cmd_report(args) -> int:
    from . import fileio
    from .calibration import reliability_svg

    # read and checked whole, so a bad file prints no half table
    doc = fileio.read_report(args.path)
    print(f"seed {doc['seed']}  level {doc['level']}")
    if doc.get("recalls"):
        print("recall: " + "  ".join(f"R@{k}={v:.3f}"
                                     for k, v in sorted(doc["recalls"].items(),
                                                        key=lambda kv: int(kv[0]))))
    if doc.get("spearman_kappa") is not None:
        print(f"spearman(kappa_hat, kappa*): {doc['spearman_kappa']:.4f}")
    print(f"{'report':20s}  {'ECE':>8s}  {'N':>6s}")
    for name, rep in sorted(doc["reports"].items()):
        print(f"{name:20s}  {rep.ece:8.4f}  {rep.total:6d}")
        print("  bin  count  observed  expected")
        for i, (cnt, obs, exp) in enumerate(zip(rep.bin_counts,
                                                rep.bin_observed,
                                                rep.bin_expected), start=1):
            obs_s = "   --" if obs is None else f"{obs:.3f}"
            print(f"  {i:3d}  {cnt:5d}  {obs_s:>8s}  {exp:8.3f}")
    for m, reason in (doc.get("unsupported") or {}).items():
        print(f"{m:20s}  unsupported: {reason}")
    # with --svg, one diagram per entry, named from its own level, method
    # and k
    base = os.path.dirname(os.path.abspath(args.path))
    for rep in doc["reports"].values() if args.svg else ():
        level = "match_" if rep.level == "match" else ""
        path = os.path.join(base,
                            f"reliability_{level}{rep.method}_k{rep.k}.svg")
        fileio.atomic_write_text(path, reliability_svg(rep))
        print(f"wrote {path}")
    return 0


def cmd_bench(args) -> int:
    from . import fileio
    from .bench import run_bench

    result = run_bench() if args.seed is None else run_bench(seed=args.seed)
    print(f"descriptor path : {result.descriptor_ms:8.4f} ms")
    print(f"with kappa head : {result.combined_ms:8.4f} ms")
    print(f"overhead        : {result.overhead * 100:7.2f} %")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "bench.json")
        fileio.atomic_write_text(path, json.dumps(
            {"schema_version": fileio.REPORT_SCHEMA_VERSION,
             **result.to_dict()}, sort_keys=True, indent=2))
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "gen": cmd_gen,
    "fit": cmd_fit,
    "train": cmd_train,
    "eval": cmd_eval,
    "match-eval": cmd_match_eval,
    "report": cmd_report,
    "bench": cmd_bench,
}


def _end(status: int) -> None:
    """End the process with `status` once stdout and stderr are flushed,
    skipping the interpreter's finalization.  A flush that fails (a
    closed pipe or stream) returns instead, and the interpreter's own
    exit reports it as it would without this."""
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when started with the fd closed
                stream.flush()
    except (OSError, ValueError):
        return
    os._exit(status)


def main(argv=None) -> int:
    """Run the command `argv` (sys.argv[1:] when None) and return its exit
    status: 0, or 1 after an `error:` line on stderr.

    With `argv` None, the call is the program's (the console script and
    ``sys.exit(main())``), and once the command has returned or printed
    its error, `main` ends the process at the last flush of stdout and
    stderr: finalizing numpy's and the package's modules costs tens of
    milliseconds per command, and nothing reads its result.  That is safe
    because every artifact is closed and renamed into place inside its
    command (`fileio._atomic_file`, `fileio.atomic_write_*`), no module of
    the package starts a thread or registers an `atexit` hook, and no
    write waits for finalization.  An uncaught exception, an argparse
    exit and a flush that raises take the interpreter's usual exit, and
    an in-process call `main(argv)` (the tests, the layer tracer) always
    returns.
    """
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    if argv is None:
        _end(status)
    return status


if __name__ == "__main__":
    sys.exit(main())
