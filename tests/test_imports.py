"""The import graph and the lazy package namespace.

`import bigsurf` loads no submodule and `import bigsurf.cli` no computation
module and no `fractions`; each exported name, and each computation name of
the CLI, loads its module on first use, and `fractions` loads where a
Fraction is built.  Module sets are read in fresh interpreters.
"""

import importlib
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


@pytest.mark.parametrize("statement, argv, status, absent", [
    ("import bigsurf.cli as cli", (), 0, COMPUTATION | {"dataclasses"} | FRACTIONS),
    ("from bigsurf import cli", ("--help",), 0, COMPUTATION | {"dataclasses"} | FRACTIONS),
    ("from bigsurf import cli", ("witness", "--json", '{"example":"conic_c","n":5}'), 0,
     {"dataclasses"} | FRACTIONS),
    ("from bigsurf import cli", ("enumerate", "--json", '{"model":"generic","r":6}'), 0,
     {"dataclasses"}),
    ("from bigsurf import cli", ("zariski", "--json", ZARISKI), 0,
     {"bigsurf.bigness", "bigsurf.roots"}),
    ("from bigsurf import cli", ("classify", "--json", LINE_CONIC_25), 0,
     {"bigsurf.zariski", "bigsurf.enumeration"}),
    ("from bigsurf import cli", ("roots", "--json", LINE_CONIC_25), 0,
     {"bigsurf.zariski", "bigsurf.enumeration"} | FRACTIONS),
    # refused as it is parsed: the family's parameters load no module
    ("from bigsurf import cli", ("classify", "--json", ZARISKI), 1,
     {"bigsurf.zariski", "dataclasses"} | FRACTIONS),
], ids=["import", "help", "witness", "enumerate", "zariski", "classify", "roots",
        "classify_refused"])
def test_each_subcommand_loads_only_what_it_runs(statement, argv, status, absent):
    loaded = loaded_by(statement, *argv, status=status)
    assert "bigsurf.cli" in loaded
    assert not loaded & absent


def test_every_export_is_the_object_of_its_defining_module():
    assert bigsurf.classify is bigsurf.roots.classify
    for name in bigsurf.__all__:
        value = getattr(bigsurf, name)
        assert vars(importlib.import_module(value.__module__))[name] is value
        assert vars(bigsurf)[name] is value  # bound on first access


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
