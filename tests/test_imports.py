"""The import graph and the lazy package namespace.

`import bigsurf` loads no submodule and `import bigsurf.cli` no computation
module, no `fractions` and no `argparse`; each exported name, and each
computation name of the CLI (one table), loads its module on first use
through the import statement, so `-X importtime` lists it, `fractions`
loads where a Fraction is built, and `argparse` only for argv the CLI's
plain reader declines.  No request loads `dataclasses`.  Module sets are
read in fresh interpreters.
"""

import importlib
import inspect
import json
import re
import subprocess
import sys

import pytest

import bigsurf
from bigsurf import cli

COMPUTATION = {f"bigsurf.{m}" for m in ("bigness", "roots", "zariski", "enumeration", "linalg")}
ZARISKI = '{"model":"hirzebruch_family","n":2,"k":3,"a":[2,3,7]}'
LINE_CONIC_25 = '{"model":"line_conic","a":2,"b":5,"both":0}'
# Fraction's module and the `decimal` it loads; a request that builds no
# Fraction loads neither
FRACTIONS = {"fractions", "decimal"}
# argparse and what it loads; only --help and argv that _plain_args declines load them
ARGPARSE = {"argparse", "gettext", "locale"}
# dataclasses and the inspect it loads; the reports answer the dataclass
# protocol without them, so no request loads either
DATACLASSES = {"dataclasses", "inspect"}


def loaded_by(statement: str, *argv: str, status: int = 0) -> set[str]:
    """The modules a fresh interpreter loads for statement and, when argv
    is given, for cli.main(argv) with stdout captured; the run must exit
    with status."""
    probe = ("import io, sys\n"
             "before = set(sys.modules)\n"
             f"{statement}\n"
             "sys.stdout = io.StringIO()\n"
             "code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
             "sys.__stdout__.write(' '.join(set(sys.modules) - before))\n"
             "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == status, proc.stderr
    return set(proc.stdout.split())


def test_import_bigsurf_loads_no_submodule():
    assert not {m for m in loaded_by("import bigsurf") if m.startswith("bigsurf.")}


@pytest.mark.parametrize("statement, argv, status, absent, present", [
    ("import bigsurf.cli as cli", (), 0, COMPUTATION | FRACTIONS | ARGPARSE, set()),
    ("from bigsurf import cli", ("--help",), 0, COMPUTATION | FRACTIONS, ARGPARSE),
    ("from bigsurf import cli", ("witness", "--json", '{"example":"conic_c","n":5}'), 0,
     FRACTIONS | ARGPARSE, set()),
    ("from bigsurf import cli", ("enumerate", "--json", '{"model":"generic","r":6}'), 0,
     ARGPARSE, set()),
    ("from bigsurf import cli", ("zariski", "--json", ZARISKI), 0,
     {"bigsurf.bigness", "bigsurf.roots"} | ARGPARSE, {"bigsurf.report"}),
    ("from bigsurf import cli", ("classify", "--json", LINE_CONIC_25), 0,
     {"bigsurf.zariski", "bigsurf.enumeration"} | ARGPARSE, {"bigsurf.report"}),
    ("from bigsurf import cli", ("check", "--json", LINE_CONIC_25), 0,
     {"bigsurf.zariski", "bigsurf.enumeration"} | ARGPARSE, {"bigsurf.report"}),
    ("from bigsurf import cli", ("roots", "--json", LINE_CONIC_25), 0,
     {"bigsurf.zariski", "bigsurf.enumeration"} | FRACTIONS | ARGPARSE, {"bigsurf.report"}),
    ("from bigsurf import cli", ("sweep", "--max-a", "1", "--max-b", "1", "--max-ai", "1"), 0,
     {"bigsurf.zariski", "bigsurf.roots"} | ARGPARSE, {"bigsurf.report"}),
    # refused as it is parsed: the family's parameters load no module
    ("from bigsurf import cli", ("classify", "--json", ZARISKI), 1,
     {"bigsurf.zariski", "bigsurf.report"} | FRACTIONS | ARGPARSE, set()),
    # an abbreviated option is argparse's to read
    ("from bigsurf import cli", ("classify", "--js", LINE_CONIC_25), 0,
     {"bigsurf.zariski", "bigsurf.enumeration"}, ARGPARSE),
], ids=["import", "help", "witness", "enumerate", "zariski", "classify", "check", "roots",
        "sweep", "classify_refused", "classify_abbreviated"])
def test_each_subcommand_loads_only_what_it_runs(statement, argv, status, absent, present):
    loaded = loaded_by(statement, *argv, status=status)
    assert "bigsurf.cli" in loaded
    assert not loaded & (absent | DATACLASSES)
    assert loaded >= present


def importtime(*argv: str) -> tuple[set[str], str]:
    """The modules that python -X importtime lists for argv, and stdout."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]
    return set(rows[1:]), proc.stdout  # rows[0] is the header


def test_a_check_request_through_python_m_loads_no_dataclasses():
    """The path the cli benchmark times: __main__, cli.run() and os._exit."""
    bare, _ = importtime("-c", "pass")
    listed, stdout = importtime("-m", "bigsurf", "check", "--json", LINE_CONIC_25)
    loaded = listed - bare
    assert json.loads(stdout)["agrees"] is True
    # the computation modules too: a lazy name loads through the import
    # statement's machinery, which -X importtime times
    assert loaded >= {"bigsurf.cli", "bigsurf.linalg", "bigsurf.report",
                      "bigsurf.bigness", "bigsurf.roots"}
    assert not loaded & (DATACLASSES | ARGPARSE)


def test_every_export_is_the_object_of_its_defining_module():
    assert bigsurf.classify is bigsurf.roots.classify
    for name in bigsurf.__all__:
        value = getattr(bigsurf, name)
        assert vars(importlib.import_module(value.__module__))[name] is value
        assert vars(bigsurf)[name] is value  # bound on first access


def test_each_computation_name_of_the_cli_is_the_package_object():
    called = set(re.findall(r"_this\.(\w+)", inspect.getsource(cli)))
    assert {"cross_check", "classify_roots", "extract_roots", "zariski_decompose"} <= called
    for name in called:
        assert getattr(cli, name) is getattr(bigsurf, {"classify_roots": "classify"}.get(name, name))


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from bigsurf import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bigsurf.__all__)


def test_fresh_namespace_lists_exports_and_imports_submodules():
    probe = ("import sys, bigsurf\n"
             "listed = set(dir(bigsurf)) >= set(bigsurf.__all__)\n"
             "from bigsurf import bigness\n"
             "print(listed, bigness is sys.modules['bigsurf.bigness'], 'cross_check' in vars(bigsurf))\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["True", "True", "False"], proc.stderr


@pytest.mark.parametrize("module", [bigsurf, cli], ids=["bigsurf", "bigsurf.cli"])
def test_unknown_name_raises_attribute_error_naming_it(module):
    with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no "
                                             "attribute 'no_such_name'"):
        module.no_such_name
