import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from bigsurf import cli, linalg
from bigsurf.bigness import SweepReport
from bigsurf.errors import DomainError
from oracles import reference_config_from_dict


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LINE_CONIC_25 = '{"model":"line_conic","a":2,"b":5,"both":0}'


def test_classify_line_conic(capsys):
    code, out, err = run_cli(capsys, "classify", "--json", LINE_CONIC_25)
    assert code == 0
    data = json.loads(out)
    assert data["big"] is True
    assert data["case"] == "ii"
    assert data["type"] == "E6"
    assert data["inequality"] == "13/10"
    assert list(data) == ["big", "case", "inequality", "v", "v_squared",
                          "type", "effective"]


def test_classify_reads_input_file(tmp_path, capsys):
    request = tmp_path / "config.json"
    request.write_text(LINE_CONIC_25, encoding="utf-8")
    code, out, _ = run_cli(capsys, "classify", "--input", str(request))
    assert code == 0
    assert json.loads(out)["type"] == "E6"


def test_classify_missing_input_file(capsys):
    code, out, err = run_cli(capsys, "classify", "--input", "/no/such/file.json")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_classify_input_file_that_is_not_utf8(tmp_path, capsys):
    request = tmp_path / "config.json"
    request.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "classify", "--input", str(request))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot read {request}: byte 0 is not UTF-8 (invalid start byte)\n"


def test_classify_generic_nine_points(capsys):
    code, out, _ = run_cli(capsys, "classify", "--json",
                           '{"model":"generic","r":9}')
    assert code == 0
    data = json.loads(out)
    assert data["big"] is False
    assert data["case"] == "i"
    assert data["inequality"] == "1"
    assert data["v"] == ["9"] + ["-3"] * 9
    assert data["v_squared"] == "0"
    assert data["type"] is None
    assert data["effective"] is None


def test_classify_rejects_family_params(capsys):
    code, _, err = run_cli(capsys, "classify", "--json",
                           '{"model":"hirzebruch_family","n":2,"k":3,"a":[2,3,7]}')
    assert code == 1
    assert "classify expects a point configuration" in err


def test_check_agreement(capsys):
    code, out, _ = run_cli(capsys, "check", "--json",
                           '{"model":"line_conic","a":3,"b":5}')
    assert code == 0
    data = json.loads(out)
    assert data["agrees"] is True
    assert data["v_orthogonal"] is True
    assert data["sign_consistent"] is True
    assert data["lattice"] is True
    assert data["type"] == "E7"
    keys = list(data)
    assert keys.index("lattice") < keys.index("type")


def test_check_disagreement_exits_two(monkeypatch, capsys):
    real = cli.cross_check

    def tampered(config):
        report = real(config)
        return report._replace(agrees=False)

    monkeypatch.setattr(cli, "cross_check", tampered)
    code, out, err = run_cli(capsys, "check", "--json", LINE_CONIC_25)
    assert code == 2
    assert json.loads(out)["agrees"] is False
    assert "disagrees" in err


CERTIFICATE_MESSAGES = {
    "agrees": "lattice verdict disagrees with the closed-form criterion",
    "v_orthogonal": "v is not orthogonal to every anticanonical component",
    "sign_consistent": "the sign of v^2 disagrees with the inequality",
}


@pytest.mark.parametrize("failed", [["agrees"], ["v_orthogonal"], ["sign_consistent"],
                                    ["v_orthogonal", "sign_consistent"],
                                    list(CERTIFICATE_MESSAGES)])
def test_check_names_the_failed_certificates(monkeypatch, capsys, failed):
    """stderr names exactly the certificates that failed, joined by '; ' in
    report order; stdout is the unchanged report and the exit status 2."""
    real = cli.cross_check
    monkeypatch.setattr(cli, "cross_check",
                        lambda config: real(config)._replace(**dict.fromkeys(failed, False)))
    code, out, err = run_cli(capsys, "check", "--json", LINE_CONIC_25)
    assert code == 2
    data = json.loads(out)
    assert [key for key in CERTIFICATE_MESSAGES if data[key] is False] == failed
    assert err == "error: " + "; ".join(CERTIFICATE_MESSAGES[key] for key in failed) + "\n"


BREAK_V = ("import sys; from bigsurf import bigness, cli; "
           "real = bigness.incidence_class; "
           "bigness.incidence_class = lambda *args: 2 * real(*args); ")


def assert_broken_v_exits_two(flags, ending):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", BREAK_V + ending, "classify", "--json", LINE_CONIC_25],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("internal error: v^2")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_invariant_exits_two(flags):
    """A wrong v makes v^2 disagree with the closed form: an internal
    cross-check failure, so exit 2 with one stderr line, no traceback and
    no report.  The check is no assert: it also fires under python -O."""
    assert_broken_v_exits_two(flags, "sys.exit(cli.main(sys.argv[1:]))")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_invariant_exits_two_through_run(flags):
    """The same through cli.run(), the entry point of the console script
    and of python -m bigsurf: status 2 survives its os._exit."""
    assert_broken_v_exits_two(flags, "cli.run()")


def test_roots_generic_eight(capsys):
    code, out, _ = run_cli(capsys, "roots", "--json",
                           '{"model":"generic","r":8}')
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "E8"
    assert data["root_count"] == 240
    assert data["components"] == [["E", 8]]
    assert len(data["basis"]) == 8
    assert len(data["roots"]) == 240


def test_roots_three_lines_example(capsys):
    code, out, _ = run_cli(
        capsys, "roots", "--json",
        '{"model":"three_lines","a":[5,3,2],"intersections":[true,true,true]}')
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "E8"
    assert data["root_count"] == 240


def test_roots_not_big_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "roots", "--json",
                             '{"model":"line_conic","a":3,"b":7}')
    assert code == 1
    assert out == ""
    assert "not negative definite" in err or "not big" in err


NOT_BIG = ("error: the anticanonical class is not big here: the component "
           "complement is not negative definite\n")


@pytest.mark.parametrize("request_json", [
    '{"model":"line_conic","a":3,"b":7}',
    '{"model":"three_lines","a":[2,3,6]}',
    '{"model":"generic","r":9}',
    '{"model":"generic","r":12}',
])
def test_roots_not_big_message(capsys, request_json):
    """Every point configuration, generic ones included, reports a non-big
    complement with the same one line."""
    assert run_cli(capsys, "roots", "--json", request_json) == (1, "", NOT_BIG)


@pytest.mark.parametrize("request_json", [
    '{"model":"line_conic","a":2,"b":5}',
    '{"model":"generic","r":8}',
    '{"model":"line_conic","a":3,"b":7}',
    '{"model":"generic","r":12}',
])
def test_roots_eliminates_the_complement_once(capsys, monkeypatch, request_json):
    """The Fincke-Pohst search's own elimination decides definiteness: one
    Bareiss run per roots request, big or not."""
    calls = []
    bareiss = linalg._bareiss_pivots

    def counted(a):
        calls.append(len(a))
        return bareiss(a)

    monkeypatch.setattr(linalg, "_bareiss_pivots", counted)
    run_cli(capsys, "roots", "--json", request_json)
    assert len(calls) == 1


def test_roots_dot_output(capsys):
    code, out, _ = run_cli(capsys, "roots", "--format", "dot", "--json",
                           '{"model":"line_conic","a":2,"b":5}')
    assert code == 0
    assert out.startswith("graph coxeter {")
    assert "--" in out
    assert out.endswith("}\n")


def test_dot_rejected_outside_roots(capsys):
    code, _, err = run_cli(capsys, "classify", "--format", "dot",
                           "--json", LINE_CONIC_25)
    assert code == 1
    assert "invalid choice" in err


def test_zariski_frozen_example(capsys):
    code, out, _ = run_cli(capsys, "zariski", "--json",
                           '{"model":"hirzebruch_family","n":2,"k":3,"a":[2,3,7]}')
    assert code == 0
    data = json.loads(out)
    assert data["p_squared"] == "42/43"
    assert data["lc_coefficient"] == "44/43"
    assert data["log_canonical"] is False
    assert all(data["checks"].values())
    assert data["positive_part"][0] == "42/43"


def test_zariski_failed_checks_exit_two(monkeypatch, capsys):
    real = cli.zariski_decompose

    def tampered(params):
        report = real(params)
        checks = report.checks._replace(p_dot_n_zero=False, n_effective=False)
        return dataclasses.replace(report, checks=checks)

    monkeypatch.setattr(cli, "zariski_decompose", tampered)
    code, out, err = run_cli(capsys, "zariski", "--json",
                             '{"model":"hirzebruch_family","n":2,"k":3,"a":[2,3,7]}')
    assert code == 2
    data = json.loads(out)
    assert data["p_squared"] == "42/43"
    assert data["checks"]["p_dot_n_zero"] is False
    assert err == "error: decomposition checks failed: p_dot_n_zero, n_effective\n"


def test_zariski_invalid_params(capsys):
    code, _, err = run_cli(capsys, "zariski", "--json",
                           '{"model":"hirzebruch_family","n":2,"k":9,"a":[2]}')
    assert code == 1
    assert "k must satisfy 3 <= k <= n + 1" in err


def test_enumerate_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--json",
                           '{"model":"generic","r":6}')
    assert code == 0
    data = json.loads(out)
    assert data["minus_one_count"] == 27
    assert data["root_count"] == 72
    assert data["minus_one_classes"][0] == ["0", "1", "0", "0", "0", "0", "0"]


def test_enumerate_out_of_range(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--json",
                           '{"model":"generic","r":9}')
    assert code == 1
    assert "0 <= r <= 8" in err


HIRZEBRUCH_FAMILY = '{"model":"hirzebruch_family","n":2,"k":3,"a":[2,3,7]}'
POINTS_ONLY = "expects a point configuration, not hirzebruch_family parameters"
GENERIC_ONLY = 'enumerate expects a generic configuration ({"model":"generic","r":...})'


@pytest.mark.parametrize("command, request_text, message", [
    ("classify", HIRZEBRUCH_FAMILY, f"classify {POINTS_ONLY}"),
    ("check", HIRZEBRUCH_FAMILY, f"check {POINTS_ONLY}"),
    ("roots", HIRZEBRUCH_FAMILY, f"roots {POINTS_ONLY}"),
    ("enumerate", HIRZEBRUCH_FAMILY, f"enumerate {POINTS_ONLY}"),
    ("zariski", '{"model":"generic","r":6}', "zariski expects hirzebruch_family parameters"),
    ("zariski", LINE_CONIC_25, "zariski expects hirzebruch_family parameters"),
    ("zariski", '{"model":"three_lines","a":[3,3,2]}',
     "zariski expects hirzebruch_family parameters"),
    ("enumerate", LINE_CONIC_25, GENERIC_ONLY),
    ("enumerate", '{"model":"three_lines","a":[3,3,2]}', GENERIC_ONLY),
], ids=["classify.hirzebruch_family", "check.hirzebruch_family", "roots.hirzebruch_family",
        "enumerate.hirzebruch_family", "zariski.generic", "zariski.line_conic",
        "zariski.three_lines", "enumerate.line_conic", "enumerate.three_lines"])
def test_a_command_refuses_a_model_it_does_not_take(capsys, command, request_text, message):
    assert run_cli(capsys, command, "--json", request_text) == (1, "", f"error: {message}\n")


def test_witness_holds(capsys):
    code, out, _ = run_cli(capsys, "witness", "--json",
                           '{"example":"hirzebruch_b","n":2}')
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True
    assert data["example"] == "hirzebruch_b"


def test_witness_broken_variant_still_reports(capsys):
    code, out, _ = run_cli(
        capsys, "witness", "--json",
        '{"example":"hirzebruch_b","n":2,"fibers":[[1,true],[1,false],[1,false]]}')
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is False
    assert any(c != "0" for c in data["residual"])


def test_witness_unknown_example(capsys):
    code, _, err = run_cli(capsys, "witness", "--json",
                           '{"example":"pentagon_e"}')
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("request_text, field, example", [
    ('{"example":"conic_c","n":2,"fibers":[[1,false]]}', "fibers", "conic_c"),
    ('{"example":"conic_c","n":2,"extra_on_sigma":0}', "extra_on_sigma", "conic_c"),
    ('{"example":"castravet_d","n":3}', "n", "castravet_d"),
    ('{"example":"castravet_d","fibers":[],"n":3}', "fibers", "castravet_d"),
    ('{"example":"castravet_d","model":"generic"}', "model", "castravet_d"),
], ids=["conic_c.fibers", "conic_c.extra_on_sigma", "castravet_d.n",
        "castravet_d.fibers", "castravet_d.model"])
def test_witness_rejects_a_field_its_example_does_not_read(
        capsys, request_text, field, example):
    code, out, err = run_cli(capsys, "witness", "--json", request_text)
    assert code == 1
    assert out == ""
    assert err == f"error: field witness.{field} does not apply to {example}\n"


@pytest.mark.parametrize("request_text, message", [
    ('{"example":"conic_c","fibers":[]}', "conic_c requires n"),
    ('{"example":"conic_c","n":0,"fibers":[]}', "n must satisfy n >= 1"),
    ('{"example":"castravet_d","n":"x"}', "field witness.n must be an integer"),
    ('{"example":"castravet_d","bad":1}', "unknown field: witness.bad"),
    ('{"example":"pentagon_e","n":3}', "unknown witness example 'pentagon_e'"),
], ids=["missing_n", "n_below_1", "n_not_int", "unknown_field", "unknown_example"])
def test_witness_errors_ahead_of_the_field_check_keep_their_message(
        capsys, request_text, message):
    code, _, err = run_cli(capsys, "witness", "--json", request_text)
    assert code == 1
    assert err == f"error: {message}\n"


def test_sweep_small(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--max-a", "3", "--max-b", "3",
                           "--max-ai", "2")
    assert code == 0
    data = json.loads(out)
    assert data["disagreements"] == 0
    assert data["flag_violations"] == 0
    assert data["line_conic_count"] == 4 * 4 * 3


def test_sweep_disagreement_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "agreement_sweep",
        lambda *bounds: SweepReport(1, 0, ("LineConic(1, 1, 0)",), ()))
    code, out, err = run_cli(capsys, "sweep")
    assert code == 2
    assert json.loads(out)["disagreements"] == 1
    assert "disagreements" in err


def test_sweep_rejects_negative_bounds(capsys):
    code, out, err = run_cli(capsys, "sweep", "--max-a", "-3", "--max-b", "1",
                             "--max-ai", "0")
    assert code == 1
    assert out == ""
    assert "max_a" in err


REPORT_KEYS = {
    "check": (["check", "--json", LINE_CONIC_25],
              ["big", "case", "inequality", "v", "v_squared", "lattice", "type",
               "effective", "agrees", "v_orthogonal", "sign_consistent"], {}),
    "roots": (["roots", "--json", LINE_CONIC_25],
              ["type", "root_count", "components", "basis", "simple_roots",
               "cartan", "graph", "roots"], {}),
    "zariski": (["zariski", "--json",
                 '{"model":"hirzebruch_family","n":2,"k":3,"a":[2,3,7]}'],
                ["params", "positive_part", "negative_part", "p_squared",
                 "checks", "lc_coefficient", "log_canonical"],
                {"params": ["n", "k", "a"],
                 "checks": ["p_dot_sigma_zero", "p_dot_fibers_zero",
                            "p_dot_n_zero", "n_effective",
                            "n_support_negative_definite",
                            "sum_is_minus_canonical"]}),
    "enumerate": (["enumerate", "--json", '{"model":"generic","r":4}'],
                  ["r", "minus_one_count", "root_count", "minus_one_classes",
                   "minus_two_roots"], {}),
    "witness": (["witness", "--json", '{"example":"conic_c","n":2}'],
                ["example", "holds", "n", "lhs", "big_part", "effective_part",
                 "residual"], {}),
    "sweep": (["sweep", "--max-a", "1", "--max-b", "1", "--max-ai", "1"],
              ["line_conic_count", "three_lines_count", "disagreements",
               "flag_violations", "disagreement_cases", "flag_violation_cases"],
              {}),
}


@pytest.mark.parametrize("argv, keys, nested", REPORT_KEYS.values(),
                         ids=list(REPORT_KEYS))
def test_report_key_order(capsys, argv, keys, nested):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = json.loads(out)
    assert list(data) == keys
    for key, inner in nested.items():
        assert list(data[key]) == inner


def test_deeply_nested_json_is_domain_error(capsys):
    deep = "[" * 100_000 + "]" * 100_000
    for command in ("classify", "witness"):
        code, out, err = run_cli(capsys, command, "--json", deep)
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed JSON")


def test_malformed_json(capsys):
    code, _, err = run_cli(capsys, "classify", "--json", '{"model":')
    assert code == 1
    assert "malformed JSON" in err


def test_oversized_integer_literal_is_domain_error(capsys):
    # a literal past the interpreter's int conversion limit (4300 digits)
    code, out, err = run_cli(capsys, "enumerate", "--json",
                             '{"model":"generic","r":' + "1" * 5000 + "}")
    assert code == 1
    assert out == ""
    assert err == "error: malformed JSON: integer literal too long\n"


def test_unknown_field_has_path(capsys):
    code, _, err = run_cli(capsys, "classify", "--json",
                           '{"model":"line_conic","a":2,"b":5,"c":1}')
    assert code == 1
    assert "unknown field: line_conic.c" in err


@pytest.mark.parametrize("name", ["\n", "\x0c", "a\u2028b"])
def test_unknown_field_with_a_line_break_is_one_line(capsys, name):
    request = json.dumps({"example": "conic_c", "n": 2, name: 1})
    assert run_cli(capsys, "witness", "--json", request) == (
        1, "", f"error: unknown field: witness.{name!r}\n")


def test_missing_field_has_path(capsys):
    code, _, err = run_cli(capsys, "classify", "--json",
                           '{"model":"line_conic","a":2}')
    assert code == 1
    assert "missing field: line_conic.b" in err


def test_missing_model(capsys):
    code, _, err = run_cli(capsys, "classify", "--json", '{"a":2,"b":5}')
    assert code == 1
    assert "missing field: model" in err


def test_unknown_model(capsys):
    code, _, err = run_cli(capsys, "classify", "--json", '{"model":"cubic"}')
    assert code == 1
    assert "unknown model" in err


def test_bool_rejected_for_integer_field(capsys):
    code, _, err = run_cli(capsys, "classify", "--json",
                           '{"model":"generic","r":true}')
    assert code == 1
    assert "generic.r must be an integer" in err


def test_intersections_validated(capsys):
    code, _, err = run_cli(capsys, "classify", "--json",
                           '{"model":"three_lines","a":[1,1,1],"intersections":[true]}')
    assert code == 1
    assert "three_lines.intersections" in err


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "--format", "text",
                           "--json", LINE_CONIC_25)
    assert code == 0
    assert "big: true" in out
    assert "case: ii" in out
    assert "type: E6" in out


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "classify", "--json", LINE_CONIC_25,
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["type"] == "E6"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--json", '{"model":"generic","r":3}'],
    ["sweep", "--max-a", "1", "--max-b", "1", "--max-ai", "1"],
])
def test_out_to_unwritable_path(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_unprintable_input_path_is_quoted_in_one_error_line(capsys):
    code, out, err = run_cli(capsys, "classify", "--input", "no\nsuch.json")
    assert code == 1
    assert out == ""
    assert err == "error: cannot read 'no\\nsuch.json': No such file or directory\n"
    assert len(err.splitlines()) == 1


def test_unprintable_out_path_is_quoted_in_one_error_line(tmp_path, capsys):
    target = tmp_path / "no\nsuch" / "report.json"
    code, out, err = run_cli(capsys, "classify", "--json", LINE_CONIC_25, "--out", str(target))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write {str(target)!r}: No such file or directory\n"
    assert len(err.splitlines()) == 1
    assert not target.parent.exists()


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "roots", "--json", '{"model":"generic","r":7}')
    _, second, _ = run_cli(capsys, "roots", "--json", '{"model":"generic","r":7}')
    assert first == second


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "classify" in out


def test_module_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bigsurf.cli", "classify", "--json", LINE_CONIC_25],
        capture_output=True, text=True)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["big"] is True
    assert data["type"] == "E6"


def test_package_main_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bigsurf", "roots", "--json",
         '{"model":"generic","r":6}'],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["type"] == "E6"


@pytest.mark.skipif(shutil.which("bigsurf") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["bigsurf", "enumerate", "--json", '{"model":"generic","r":7}'],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["minus_one_count"] == 56


GENERIC_6 = '{"model":"generic","r":6}'
BIG_ROOTS = '{"model":"line_conic","a":1,"b":28}'


def assert_stdout_unwritable(proc):
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert "Traceback" not in proc.stderr


# a report, and the help text, which is written the same way
UNWRITABLE_ARGV = pytest.mark.parametrize(
    "argv", [["classify", "--json", GENERIC_6], ["--help"]], ids=["classify", "help"])


@UNWRITABLE_ARGV
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stdout_pipe_without_reader_exits_one(unbuffered, argv):
    """A report into a pipe whose read end is closed: exit 1 with one
    `error:` line.  Buffered, the write lands in the buffer and fails in
    the flush that follows it; unbuffered, it fails in the write itself."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bigsurf", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert_stdout_unwritable(proc)


@UNWRITABLE_ARGV
def test_closed_stdout_exits_one(argv):
    """With fd 1 closed (`>&-`) there is no sys.stdout to write the report
    to: exit 1 with one `error:` line."""
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "bigsurf", *argv],
        capture_output=True, text=True, timeout=120)
    assert_stdout_unwritable(proc)


def run_with_stdout_without_reader(code, argv, env=None):
    """Run `code` in a child interpreter whose fd 1 is a pipe with its read
    end closed; the child owns the pipe, so none is left open here."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-c", code, *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)


# cli.main with sys.stdout a buffered text writer on fd 1; the child leaves
# by os._exit with main's status, so no later flush can report anything
IN_PROCESS_MAIN = (
    "import os, sys; from bigsurf import cli; "
    "sys.stdout = open(1, 'w', closefd=False); "
    "status = cli.main(sys.argv[1:]); sys.stderr.flush(); os._exit(status)")


@UNWRITABLE_ARGV
def test_in_process_main_reports_a_buffered_stdout_without_reader(argv):
    """cli.main's status is the process's: a report or help text that sits
    in stdout's buffer is flushed, and the failed flush is status 1 with
    one `error:` line, as through python -m bigsurf."""
    proc = run_with_stdout_without_reader(IN_PROCESS_MAIN, argv)
    assert proc.returncode == 1
    assert proc.stderr == "error: cannot write stdout: Broken pipe\n"


FAILED_CHECK_THROUGH_RUN = (
    "from bigsurf import cli; real = cli.cross_check; "
    "cli.cross_check = lambda config: real(config)._replace(agrees=False); "
    "cli.run()")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_failed_check_into_stdout_without_reader(unbuffered):
    """A check whose certificate fails writes its failure line, then cannot
    write the report: status 1 and both lines, whatever stdout's buffering."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = run_with_stdout_without_reader(
        FAILED_CHECK_THROUGH_RUN, ["check", "--json", LINE_CONIC_25], env)
    assert proc.returncode == 1
    assert proc.stderr == ("error: lattice verdict disagrees with the closed-form criterion\n"
                           "error: cannot write stdout: Broken pipe\n")


def test_sweep_help_describes_format_and_out(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--help")
    assert code == 0
    assert "output format (default: json)" in out
    assert "write the report to FILE instead of stdout" in out


# One request per subcommand and output format, then --out, a domain error,
# --help, a usage error and a roots report larger than a pipe's buffer.
# OUT stands for a file in the test's temporary directory.
CONTRACT_REQUESTS = {
    "classify": ["--json", LINE_CONIC_25],
    "check": ["--json", '{"model":"three_lines","a":[3,3,2],"intersections":[true,false,true]}'],
    "zariski": ["--json", '{"model":"hirzebruch_family","n":2,"k":3,"a":[2,3,7]}'],
    "enumerate": ["--json", GENERIC_6],
    "witness": ["--json", '{"example":"conic_c","n":5}'],
    "roots": ["--json", LINE_CONIC_25],
    "sweep": ["--max-a", "2", "--max-b", "2", "--max-ai", "1"],
}
CONTRACT_ARGV = [
    *([command, "--format", fmt, *CONTRACT_REQUESTS[command]]
      for command, (_, formats, _) in cli._COMMANDS.items() for fmt in formats),
    ["roots", "--format", "text", "--json", GENERIC_6, "--out", "OUT"],
    ["roots", "--json", '{"model":"line_conic","a":3,"b":7}'],
    ["--help"],
    ["classify", "--format", "dot", "--json", GENERIC_6],
    ["roots", "--json", BIG_ROOTS],
]


@pytest.mark.parametrize("module", ["bigsurf", "bigsurf.cli"])
@pytest.mark.parametrize("argv", CONTRACT_ARGV, ids=" ".join)
def test_entry_points_match_in_process_main(module, argv, tmp_path, monkeypatch):
    """python -m bigsurf and python -m bigsurf.cli end through cli.run():
    stdout bytes, stderr, status and any --out file equal cli.main's."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the width
    proc = subprocess.run(
        [sys.executable, "-m", module,
         *(str(tmp_path / "run.out") if a == "OUT" else a for a in argv)],
        capture_output=True, timeout=120)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(tmp_path / "main.out") if a == "OUT" else a for a in argv])
    assert (proc.returncode, proc.stderr.decode()) == (code, err.getvalue())
    assert proc.stdout == out.getvalue().encode()
    if "OUT" in argv:
        assert (tmp_path / "run.out").read_bytes() == (tmp_path / "main.out").read_bytes()
    if BIG_ROOTS in argv:
        assert len(proc.stdout) == 425071  # more than a pipe holds at once


# The CLI contract on arbitrary requests: random JSON mixing nested lists and
# objects, bools, strings, floats and null, with ints in [-3, 12] so that
# every well-formed request stays small.  Requests of the right shape are
# drawn too, with and without stray values, so that the constructors' own
# validation (negative counts, k against len(a), ...) is reached.
INTS = st.integers(-3, 12)
SCALARS = st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=6)
FIELDS = ["model", "r", "a", "b", "both", "intersections", "n", "k",
          "example", "fibers", "extra_on_sigma"]
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=4),
                                      inner, max_size=4), max_leaves=10)
FIBERS = st.lists(st.tuples(INTS, st.booleans()).map(list), max_size=14)
SHAPED = st.one_of(
    st.fixed_dictionaries({"model": st.just("generic"), "r": INTS}),
    st.fixed_dictionaries({"model": st.just("line_conic"), "a": INTS, "b": INTS},
                          optional={"both": INTS}),
    st.fixed_dictionaries({"model": st.just("three_lines"),
                           "a": st.lists(INTS, min_size=3, max_size=3)},
                          optional={"intersections": st.lists(st.booleans(), min_size=3,
                                                              max_size=3)}),
    st.lists(INTS, min_size=1, max_size=6).flatmap(lambda a: st.fixed_dictionaries(
        {"model": st.just("hirzebruch_family"), "n": INTS,
         "k": st.just(len(a)) | INTS, "a": st.just(a)})),
    st.fixed_dictionaries({"example": st.sampled_from(["hirzebruch_b", "conic_c",
                                                       "castravet_d"])},
                          optional={"n": INTS, "fibers": FIBERS, "extra_on_sigma": INTS}),
)
# a shaped request with one field replaced by, or one field added with, any JSON
REQUESTS = JSON | SHAPED | st.tuples(SHAPED, st.sampled_from(FIELDS), JSON).map(
    lambda t: {**t[0], t[1]: t[2]})
COMMANDS = ["classify", "check", "roots", "zariski", "enumerate", "witness"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COMMANDS), REQUESTS, st.sampled_from(["json", "text", "dot"]))
def test_cli_contract_on_random_requests(command, request, fmt):
    """Exit 0 with a report and a silent stderr, or exit 1 with no report
    and exactly one `error:` line; no exception escapes cli.main."""
    if fmt == "dot" and command != "roots":
        fmt = "text"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--json=" + json.dumps(request), "--format", fmt])
    assert code in (0, 1)
    if code == 0:
        assert out.getvalue() and err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("error: ")


def _parsed(parse, request):
    """What parse makes of request: a configuration, or its DomainError's text."""
    try:
        return parse(request)
    except DomainError as exc:
        return str(exc)


# `both` and `a` malformed at once: the table checks the fields in constructor
# order (a, b, both), where the per-model parser read `both` first
BAD_A_AND_BOTH = {"model": "line_conic", "a": "x", "b": 2, "both": "y"}


@settings(max_examples=500, deadline=None)
@given(REQUESTS)
@example(BAD_A_AND_BOTH)
def test_table_parser_matches_the_per_model_parser(request):
    """config_from_dict returns the configuration the per-model parser
    returned, or raises a DomainError with the same text; the one exception
    is a line_conic request whose `both` and `a` or `b` are all malformed,
    where it names `a` or `b`."""
    got, expected = _parsed(cli.config_from_dict, request), _parsed(
        reference_config_from_dict, request)
    if expected == "field line_conic.both must be an integer" and got != expected:
        assert request["model"] == "line_conic"
        assert got in ("field line_conic.a must be an integer",
                       "field line_conic.b must be an integer")
    else:
        assert type(got) is type(expected) and got == expected
    if request is BAD_A_AND_BOTH:
        assert got == "field line_conic.a must be an integer"
        assert expected == "field line_conic.both must be an integer"
