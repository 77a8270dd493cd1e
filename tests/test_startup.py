"""What a fresh interpreter loads. Inside pytest every module is imported
already, so a deferred import that is missing, or one that loads numpy
where it should not, shows only in a new process: each test here starts
one."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"


def fresh(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("map", "UDUUDD", "--trace"), "map_uduudd_trace.txt"),
        (("invert", "UUDUUU", "--trace"), "invert_uuduuu_trace.txt"),
        (("decompose", "UDUUDD"), "decompose_uduudd.txt"),
        (("enumerate", "--len", "4", "--class", "up"), "enumerate_len4_up.txt"),
        (("render", "UDUUDD", "--trace", "forward", "--svg", "-"), "render_uduudd.svg"),
        (("verify", "bijection", "--n", "2"), "verify_bijection_n2.txt"),
        (("verify", "identity", "--n", "3", "--mode", "structural"), "verify_identity_n3_structural.txt"),
    ],
)
def test_each_command_in_a_fresh_interpreter(argv, golden):
    proc = fresh("-m", "dyckflip.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / golden).read_text()


# runs the console-script target on arithmetic identity checks, a range
# error and a usage error, and says after each whether numpy is loaded
NUMPY_FREE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module

import dyckflip, dyckflip.cli

runs = [["import", 0, "", "", "numpy" in sys.modules]]
module, attr = sys.argv[1].split(":")
main = getattr(import_module(module), attr)
for argv in (a.split() for a in sys.argv[2:]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([argv, code, out.getvalue(), err.getvalue(), "numpy" in sys.modules])
print(json.dumps(runs))
"""


def test_arithmetic_identity_and_errors_load_no_numpy():
    # the entry point as pyproject.toml declares it, as an installed
    # `dyckflip` script resolves it
    target = re.search(r'^dyckflip = "(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M).group(1)
    argvs = [
        "verify identity --n 2 --mode arithmetic",
        "verify identity --n 2 --json",
        "verify identity --n 10001",
        "verify identity --n 2 --mode bogus",
    ]
    proc = fresh("-c", NUMPY_FREE, target, *argvs)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [numpy for *_, numpy in runs] == [False] * (1 + len(argvs))
    plain, as_json, range_error, usage_error = ((code, out, err) for _, code, out, err, _ in runs[1:])
    assert plain == (0, (GOLDEN / "verify_identity_n2.txt").read_text(), "")
    assert as_json[0] == 0 and json.loads(as_json[1])["identity_lhs"] == 16
    assert range_error[:2] == (2, "") and range_error[2].startswith("error: Range: ")
    assert range_error[2].count("\n") == 1
    assert usage_error[:2] == (2, "") and "invalid choice: 'bogus'" in usage_error[2]


# runs dyckflip.cli.main on one command line with its output captured, and
# prints its exit code, its output and the modules it loaded that the bare
# interpreter had not
LOADS = """
import io, sys

bare = set(sys.modules)
sys.stdout = io.StringIO()
from dyckflip.cli import main

code = main(sys.argv[1:])
out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__
print(repr([code, out, sorted(set(sys.modules) - bare)]))
"""


def loads(*argv):
    proc = fresh("-c", LOADS, *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    return ast.literal_eval(proc.stdout)


def test_cli_import_loads_no_json():
    # only the --json branches print JSON, and each imports json itself
    proc = fresh("-c", "import sys; bare = set(sys.modules); import dyckflip.cli; print(*set(sys.modules) - bare)")
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "dyckflip.cli" in added and "json" not in added


def test_arithmetic_identity_loads_neither_numpy_nor_dataclasses():
    code, out, plain = loads("verify", "identity", "--n", "4000")
    assert code == 0 and out.endswith("\nok=true\n")
    code, out, as_json = loads("verify", "identity", "--n", "2", "--mode", "arithmetic", "--json")
    assert code == 0 and json.loads(out)["identity_lhs"] == 16
    for added in (plain, as_json):
        assert "dyckflip.identity" in added
        assert [m for m in added if m == "dataclasses" or m.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize(
    "argv, golden",
    [
        (("map", "UDUD"), "map_udud.txt"),
        (("invert", "UU"), "invert_uu.txt"),
        (("decompose", "UDUUDD"), "decompose_uduudd.txt"),
    ],
)
def test_maps_load_no_dataclasses(argv, golden):
    # the trace and the decomposition are named tuples
    code, out, added = loads(*argv)
    assert (code, out) == (0, (GOLDEN / golden).read_text())
    assert "dyckflip.bijection" in added and "dataclasses" not in added


def test_structural_identity_loads_the_walk_alone():
    code, out, added = loads("verify", "identity", "--n", "3", "--mode", "structural")
    assert (code, out) == (0, (GOLDEN / "verify_identity_n3_structural.txt").read_text())
    assert "dyckflip.identity" in added
    assert {"dyckflip.census", "dyckflip.bijection", "dyckflip.path"}.isdisjoint(added)
    assert [m for m in added if m.split(".")[0] == "numpy"] == []


NAMESPACE = """
import sys

from dyckflip.bijection import Decomposition
import dyckflip

for name in dyckflip.__all__:
    value = getattr(dyckflip, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
assert Decomposition is dyckflip.Decomposition

star = {}
exec("from dyckflip import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(dyckflip.__all__)
assert set(dyckflip.__all__) <= set(dir(dyckflip))
try:
    dyckflip.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'dyckflip' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
"""


def test_lazy_namespace():
    proc = fresh("-c", NAMESPACE)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_dir_lists_every_public_name_and_loads_no_numpy():
    code = "import sys, dyckflip; print(repr([dir(dyckflip), dyckflip.__all__, 'numpy' in sys.modules]))"
    proc = fresh("-c", code)
    assert (proc.returncode, proc.stderr) == (0, "")
    listed, public, numpy = ast.literal_eval(proc.stdout)
    assert set(public) <= set(listed) and listed == sorted(listed)
    assert not numpy
