"""Run one ``kappa-sphere`` command in this interpreter with layer spans.

    python trace_runner.py SPANS.json -- gen --out run/ --seed 0

Each function named in ``TARGETS`` is wrapped as its module finishes
importing, and the wrapper replaces every binding of it in the package, so
``pipeline.batch_knn`` and ``retrieval.batch_knn`` record the same span.
Wrapping on import (rather than importing everything up front) keeps the
import cost of a traced command equal to an untraced one: ``gen`` never
loads ``scipy.stats``.

A span is ``[name, start, end, parent, n]``: an index into ``names``,
``perf_counter`` seconds, the index of the enclosing span (-1 for the root
``cli.main``) and an optional count taken at the same boundary (rows, pairs,
epochs, bytes).  Spans stay in memory and are written to SPANS.json when the
command returns.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import sys
import time


def _rows(args, kwargs, result):
    return len(args[0])


def _pairs(args, kwargs, result):
    return len(args[0]) * len(args[1])


def _post_epochs(args, kwargs, result):
    return len(result[1])


def _joint_epochs(args, kwargs, result):
    return len(result[3])


def _path_size(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return 0 if path is None else os.path.getsize(path)


def _payload_size(args, kwargs, result):
    return len(args[1])


# module -> {function: (records a span, counter name, count function)}.
# A counter without a span adds its count to the command's counter total.
TARGETS = {
    "kappa_sphere.synth": {
        "generate_scene": (True, None, None),
    },
    "kappa_sphere.vmf": {
        "sample_vmf": (True, None, None),
        "stable_log_partition": (True, None, None),
        "stable_log_partition_grad": (True, None, None),
        "resultant_uncertainty": (True, None, None),
    },
    "kappa_sphere.head": {
        "forward_batch": (True, "head.forward_batch.rows", _rows),
        "backward_batch": (True, None, None),
    },
    "kappa_sphere.training": {
        "train_post": (True, "training.epochs", _post_epochs),
        "train_joint": (True, "training.epochs", _joint_epochs),
        "adam_step": (True, None, None),
    },
    "kappa_sphere.retrieval": {
        "batch_knn": (True, "retrieval.batch_knn.pairs", _pairs),
        "mark_successes": (True, None, None),
        "recall_at_k": (True, None, None),
    },
    "kappa_sphere.scores": {
        "score_query": (True, None, None),
        "match_uncertainty": (True, None, None),
    },
    "kappa_sphere.calibration": {
        "ece_at_k": (True, None, None),
        "match_ece_at_k": (True, None, None),
    },
    "kappa_sphere.fileio": {
        "write_bank": (True, None, None),
        "read_bank": (True, "fileio.bytes_read", _path_size),
        "write_manifest": (True, None, None),
        "read_manifest": (True, "fileio.bytes_read", _path_size),
        "write_model_state": (True, None, None),
        "load_run_config": (False, "fileio.bytes_read", _path_size),
        "atomic_write_bytes": (False, "fileio.bytes_written", _payload_size),
    },
    "kappa_sphere.pipeline": {
        "fit_head": (True, None, None),
        "fit_joint": (True, None, None),
        "evaluate_queries": (True, None, None),
        "evaluate_matches": (True, None, None),
        "predict_kappas": (True, None, None),
    },
}


class Tracer:
    """In-memory span stack for one single-threaded command."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.counts = {}
        self._stack = []

    def _add(self, counter, n):
        self.counts[counter] = self.counts.get(counter, 0) + n

    def name_id(self, name) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def call(self, name_id, fn, args=(), kwargs=None, counter=None, count=None):
        spans, stack = self.spans, self._stack
        record = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(record)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        if count is not None:
            record[4] = count(args, kwargs or {}, result)
            self._add(counter, record[4])
        return result

    def counted(self, fn, counter, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._add(counter, count(args, kwargs, result))
            return result
        return wrapper

    def spanned(self, name, fn, counter, count):
        name_id = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name_id, fn, args, kwargs, counter, count)
        return wrapper

    def instrument(self, module):
        short = module.__name__.rsplit(".", 1)[-1]
        for fname, (span, counter, count) in TARGETS[module.__name__].items():
            original = getattr(module, fname)
            if span:
                wrapped = self.spanned(f"{short}.{fname}", original, counter, count)
            else:
                wrapped = self.counted(original, counter, count)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("kappa_sphere"):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)


class WrapOnImport(importlib.abc.MetaPathFinder):
    """Finds the target modules normally and instruments them once loaded."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in TARGETS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_instrument(module):
            exec_module(module)
            self.tracer.instrument(module)

        spec.loader.exec_module = exec_and_instrument
        return spec


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace_runner.py SPANS.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    sys.meta_path.insert(0, WrapOnImport(tracer))
    from kappa_sphere import cli

    try:
        return tracer.call(tracer.name_id("cli.main"), cli.main, (cli_args,))
    finally:
        with open(out_path, "w") as fh:
            json.dump({"argv": cli_args, "names": tracer.names,
                       "spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
