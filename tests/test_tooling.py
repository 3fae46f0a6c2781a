"""The layer tracer's targets exist, so a rename fails here rather than in a
traced benchmark run; the CLI's modules start without scipy; and --help and
argument errors return without loading numpy."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_RUNNER = ROOT / "perfbench" / "trace_runner.py"


def _fresh_python(code: str) -> str:
    """Stdout of `code` run by a fresh interpreter that imports this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=60).stdout.strip()


def test_trace_targets_exist():
    spec = importlib.util.spec_from_file_location("trace_runner", TRACE_RUNNER)
    trace_runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_runner)
    missing = [f"{module}.{name}"
               for module, functions in trace_runner.TARGETS.items()
               for name in functions
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert not missing, missing


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
            "             ['eval', '--out', 'o', '--k', 'x'], ['nope']):\n"
            "    try:\n"
            "        main(argv)\n"
            "    except SystemExit:\n"
            "        pass\n"
            "    else:\n"
            "        raise AssertionError(argv)\n"
            "print('numpy' in sys.modules)")
    assert _fresh_python(code).splitlines()[-1] == "False"
