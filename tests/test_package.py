"""The lazy package: what `import morava` binds, and what a command loads.

The footprint tests run fresh `python -S` interpreters, so that no module
this test process already holds hides a load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morava

SRC = str(Path(morava.__file__).resolve().parents[1])

LAYERS = ["padic", "witt", "order", "stabilizer", "grlie", "homalg", "specseq", "k1"]
# what the chart commands (k1, homalg) need not load, and what the group commands need not
GROUP_LAYERS = [
    "morava.witt", "morava.order", "morava.stabilizer", "morava.grlie", "fractions", "decimal",
]
CHART_LAYERS = ["morava.specseq", "morava.k1", "morava.homalg"]
# what a group command that prints no valuation, level or JSON need not load
READERS = ["fractions", "decimal", "json"]
# what a well-formed command need not load: argparse, and what it loads to word help and refusals
PARSERS = ["argparse", "shutil", "gettext", "locale"]


def _loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running code."""
    # the list is taken before json is imported to print it
    script = f"import sys\n{code}\nmods = sorted(sys.modules)\nimport json\nprint(json.dumps(mods))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _run(argv) -> str:
    return (
        "import contextlib, io, morava.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert morava.cli.run_command({argv!r}) == 0"
    )


@pytest.mark.parametrize("module", ["morava", "morava.cli"])
def test_import_loads_no_layer(module):
    loaded = _loaded_after(f"import {module}")
    assert {name for name in loaded if name.startswith("morava")} == {"morava", module}
    assert not loaded & set(PARSERS), sorted(loaded & set(PARSERS))


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["k1", "ko", "--stems", "0..3"], GROUP_LAYERS),
        (["k1", "homotopy", "--p", "2", "--stems", "-8..8"], GROUP_LAYERS),
        (["homalg", "g1", "--p", "3", "--s", "1", "--t", "36"], GROUP_LAYERS),
        (["order", "val", "S^3"], CHART_LAYERS),
        (["witt", "trace", "w"], CHART_LAYERS),
        (["stab", "level", "1+S"], CHART_LAYERS),
        (["grlie", "span", "--k", "1", "--l", "1"], CHART_LAYERS),
        (["stab", "order", "1+S", "--p", "5"], READERS),
        (["order", "inv", "1+S", "--p", "5"], READERS),
        (["grlie", "check", "--k", "1", "--l", "2", "--trials", "5"], READERS),
    ],
    ids=[
        "k1 ko", "k1 homotopy", "homalg g1", "order val", "witt trace", "stab level", "grlie span",
        "stab order", "order inv", "grlie check",
    ],
)
def test_command_loads_only_its_layers(argv, unloaded):
    loaded = _loaded_after(_run(argv))
    assert not loaded & {*unloaded, *PARSERS}, sorted(loaded & {*unloaded, *PARSERS})


def test_usage_error_loads_argparse():
    # argparse words the refusal, with its usage line, as it did when it read every argv
    loaded = _loaded_after(
        "import contextlib, io, morava.cli\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "    assert morava.cli.run_command(['order', 'val', 'S', '--prec', '0']) == 2\n"
        "assert err.getvalue().startswith('usage: morava order val '), err.getvalue()"
    )
    assert "argparse" in loaded


def test_submodule_reads_as_an_attribute():
    loaded = _loaded_after("import morava\nassert morava.k1.homotopy_table(2, [3]).group(3)")
    assert "morava.k1" in loaded and "morava.stabilizer" not in loaded


def test_every_public_name_resolves_to_its_home_object():
    assert len(morava.__all__) == len(set(morava.__all__))
    for module, names in morava._EXPORTS.items():
        home = __import__(f"morava.{module}", fromlist=["_"])
        for name in names:
            assert getattr(morava, name) is getattr(home, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from morava import *", namespace)
    assert set(morava.__all__) <= set(namespace)
    assert namespace["make_ring"] is morava.witt.make_ring


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        morava.no_such_name
    assert not hasattr(morava, "Fraction")


def test_dir_lists_every_public_name_and_layer():
    assert {*morava.__all__, *LAYERS, "cli"} <= set(dir(morava))
