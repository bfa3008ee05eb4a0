"""Command-line interface.

Subcommands: classify, check, roots, zariski, enumerate, witness, sweep.
Configurations arrive as JSON (inline via --json or from a file via
--input) with a "model" discriminator naming a class of `picard.MODELS`,
whose `request` lists the fields `config_from_dict` reads; `_field` reads
each field of every request.  Reports leave as JSON, DOT (roots only) or
plain text.  Exit status: 0 on success, 1 when the input is outside the
supported domain or a file, stdout included, cannot be read or written, 2
when an internal cross-check fails (`InvariantError`, reported in one
stderr line).  Any other uncaught error ends the process with Python's
status 1 and a traceback.

`main()` returns the status the process exits with: it flushes the report
it writes to stdout, so that an unwritable stdout is status 1 whatever its
buffering, and must close any file it opens before it returns.  `run()`,
behind `python -m bigsurf` and the `bigsurf` script, flushes stderr and
ends by `os._exit(status)`, with no teardown.

Importing this module loads only `errors`, `picard` and `serialize` from
the package: each subcommand imports the computation modules it runs
when it runs.  `--help` and `witness` load none of them, `enumerate`
only `linalg` and `enumeration`, and none of the three `dataclasses`.
Nor does it load `fractions` (which loads `decimal` and `numbers`): each
module imports `Fraction` in the code that builds one, so `--help`,
`witness` and `roots` never load it, and classify, check, zariski,
enumerate and sweep load it on first use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable

from . import _lazy_names, serialize as ser
from .errors import DomainError, InvariantError, NotNegativeDefiniteError
from .picard import (MODELS, FamilyParams, Generic, PointConfiguration,
                     check_witness_fields, verify_witness)

__all__ = ["config_from_dict", "main", "run"]

# The computation names, each imported on first use so that a subcommand
# loads only the modules it runs.  Handlers call them through this module,
# where a test or a tracer may rebind them.
_this = sys.modules[__name__]
__getattr__ = _lazy_names(globals(), dict(
    agreement_sweep="bigness.agreement_sweep", cross_check="bigness.cross_check",
    classify_anticanonical="bigness.classify_anticanonical",
    negative_classes="enumeration.negative_classes", classify_roots="roots.classify",
    coxeter_dot="roots.coxeter_dot", extract_roots="roots.extract_roots",
    predicted_type="roots.predicted_type", type_string="roots.type_string",
    root_lattice_of_config="roots.root_lattice_of_config",
    zariski_decompose="zariski.zariski_decompose"))


def _printable(text: str) -> str:
    """text, quoted if unprintable (a line break), so an error stays one line."""
    return text if text.isprintable() else repr(text)


def _check_fields(data: dict[str, Any], where: str,
                  required: tuple[str, ...],
                  optional: tuple[str, ...] = ()) -> None:
    for key in required:
        if key not in data:
            raise DomainError(f"missing field: {where}.{key}")
    for key in data:
        if key == "model":
            continue
        if key not in required and key not in optional:
            raise DomainError(f"unknown field: {where}.{_printable(key)}")


def _field(data: dict[str, Any], where: str, key: str, kind: Any) -> Any:
    """data[key], checked against kind: int, or (int, length) or
    (bool, length) for a list (length None: any number of entries)."""
    value, name = data[key], f"field {where}.{key}"
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainError(f"{name} must be an integer")
    elif kind[0] is bool:
        if not isinstance(value, list) or len(value) != kind[1] or not all(
                isinstance(v, bool) for v in value):
            raise DomainError(f"{name} must list exactly {kind[1]} booleans")
    elif (not isinstance(value, list)
            or any(isinstance(v, bool) or not isinstance(v, int) for v in value)):
        raise DomainError(f"{name} must be a list of integers")
    elif kind[1] is not None and len(value) != kind[1]:
        raise DomainError(f"{name} must list exactly {kind[1]} entries")
    return value


def config_from_dict(data: Any) -> PointConfiguration | FamilyParams:
    if not isinstance(data, dict):
        raise DomainError("configuration must be a JSON object")
    name = data.get("model")
    if name is None:
        raise DomainError("missing field: model")
    cls = MODELS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise DomainError(
            f"unknown model: {name!r} (expected one of {', '.join(MODELS)})")
    _check_fields(data, name, tuple(f[0] for f in cls.request if len(f) == 2),
                  tuple(f[0] for f in cls.request))
    args: list[Any] = []
    for key, kind, *default in cls.request:
        value = _field(data, name, key, kind) if key in data else default[0]
        # a list of fixed length spreads into that many arguments
        args += value if kind is not int and kind[1] else [value]
    return cls(*args)


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except RecursionError as exc:
        # deep nesting is bad input, not a fault of the program
        raise DomainError("malformed JSON: nested too deeply") from exc
    except ValueError as exc:
        # an integer literal past the interpreter's int conversion limit
        raise DomainError("malformed JSON: integer literal too long") from exc


def _witness_args(data: Any) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise DomainError("witness request must be a JSON object")
    _check_fields(data, "witness", ("example",),
                  ("n", "fibers", "extra_on_sigma"))
    example = data["example"]
    if not isinstance(example, str):
        raise DomainError("field witness.example must be a string")
    kwargs: dict[str, Any] = {"example": example}
    if "n" in data:
        kwargs["n"] = _field(data, "witness", "n", int)
    if "fibers" in data:
        fibers = data["fibers"]
        if (not isinstance(fibers, list)
                or any(not isinstance(f, list) or len(f) != 2
                       or isinstance(f[0], bool) or not isinstance(f[0], int)
                       or not isinstance(f[1], bool) for f in fibers)):
            raise DomainError(
                "field witness.fibers must list [count, on_section] pairs")
        kwargs["fibers"] = [tuple(f) for f in fibers]
    if "extra_on_sigma" in data:
        kwargs["extra_on_sigma"] = _field(data, "witness", "extra_on_sigma", int)
    # every key counts, even one that holds its default value
    check_witness_fields(example, kwargs.get("n"), [k for k in data if k != "example"])
    return kwargs


def _point_config(request: Any, command: str) -> PointConfiguration:
    parsed = config_from_dict(request)
    if not isinstance(parsed, PointConfiguration):
        raise DomainError(f"{command} expects a point configuration, "
                          "not hirzebruch_family parameters")
    return parsed


def _type_label(config: PointConfiguration) -> str | None:
    components = _this.predicted_type(config)
    return None if components is None else _this.type_string(components)


# A handler takes the parsed request (the sweep's is its three bounds) and
# the output format, and returns the report with the one-line message of a
# failed internal cross-check, which makes the exit status 2 (None when
# every check passed).
Outcome = tuple[dict[str, Any] | str, str | None]


def _classify(request: Any, fmt: str) -> Outcome:
    config = _point_config(request, "classify")
    return ser.classify_to_dict(_this.classify_anticanonical(config), _type_label(config)), None


# each certificate of a cross-check, with the message naming its failure
_CERTIFICATES = (
    ("agrees", "lattice verdict disagrees with the closed-form criterion"),
    ("v_orthogonal", "v is not orthogonal to every anticanonical component"),
    ("sign_consistent", "the sign of v^2 disagrees with the inequality"),
)


def _check(request: Any, fmt: str) -> Outcome:
    config = _point_config(request, "check")
    report = _this.cross_check(config)
    failed = [message for name, message in _CERTIFICATES if not getattr(report, name)]
    return ser.cross_check_to_dict(report, _type_label(config)), "; ".join(failed) or None


def _roots(request: Any, fmt: str) -> Outcome:
    basis, gram = _this.root_lattice_of_config(_point_config(request, "roots"))
    try:
        roots = _this.extract_roots(gram)
    except NotNegativeDefiniteError:
        raise DomainError("the anticanonical class is not big here: the component "
                          "complement is not negative definite") from None
    report = _this.classify_roots(roots, gram)
    if fmt == "dot":
        return _this.coxeter_dot(report), None
    return ser.roots_to_dict(report, basis), None


def _zariski(request: Any, fmt: str) -> Outcome:
    params = config_from_dict(request)
    if isinstance(params, PointConfiguration):
        raise DomainError("zariski expects hirzebruch_family parameters")
    data = ser.zariski_report_to_dict(_this.zariski_decompose(params))
    failed = [name for name, value in data["checks"].items() if not value]
    return data, (f"decomposition checks failed: {', '.join(failed)}"
                  if failed else None)


def _enumerate(request: Any, fmt: str) -> Outcome:
    config = _point_config(request, "enumerate")
    if not isinstance(config, Generic):
        raise DomainError("enumerate expects a generic configuration "
                          '({"model":"generic","r":...})')
    return ser.class_table_to_dict(_this.negative_classes(config.r)), None


def _witness(request: Any, fmt: str) -> Outcome:
    return ser.witness_to_dict(verify_witness(**_witness_args(request))), None


def _sweep(bounds: tuple[int, int, int], fmt: str) -> Outcome:
    report = _this.agreement_sweep(*bounds)
    return ser.sweep_to_dict(report), (
        None if report.clean else "cross-validation sweep found disagreements")


_TEXT = ("json", "text")

# name -> (help, output formats, handler), in the order of the help listing
_COMMANDS: dict[str, tuple[str, tuple[str, ...], Callable[[Any, str], Outcome]]] = {
    "classify": ("decide bigness of the anticanonical class", _TEXT, _classify),
    "check": ("cross-validate the closed-form verdict against the lattice",
              _TEXT, _check),
    "zariski": ("decompose the anticanonical class of a family member",
                _TEXT, _zariski),
    "enumerate": ("list minus-one classes and roots of a del Pezzo lattice",
                  _TEXT, _enumerate),
    "witness": ("verify a stored effective-decomposition identity",
                _TEXT, _witness),
    "roots": ("extract and classify the root system orthogonal to the "
              "anticanonical components", ("json", "dot", "text"), _roots),
    "sweep": ("run the full cross-validation sweep", _TEXT, _sweep),
}


def _scalar_text(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return json.dumps(value, separators=(",", ":"))


def _render_text(data: dict[str, Any]) -> str:
    lines = []
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{key}:")
            lines.extend(f"  {k}: {_scalar_text(v)}" for k, v in value.items())
        else:
            lines.append(f"{key}: {_scalar_text(value)}")
    return "\n".join(lines) + "\n"


def _emit(payload: dict[str, Any] | str, fmt: str, out: str | None) -> None:
    if isinstance(payload, str):
        text = payload
    elif fmt == "text":
        text = _render_text(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if out is None:
        try:  # flushed here, so that a buffered write fails where it is made
            sys.stdout.write(text)
            sys.stdout.flush()
        except (AttributeError, OSError) as exc:  # AttributeError: fd 1 is closed
            raise DomainError(f"cannot write stdout: {getattr(exc, 'strerror', 'closed')}") from exc
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DomainError(f"cannot write {_printable(out)}: {exc.strerror}") from exc


def _read_input(args: argparse.Namespace) -> str:
    if args.json is not None:
        return args.json
    path = _printable(args.input)
    try:
        return Path(args.input).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"cannot read {path}: byte {exc.start} is not "
                          f"UTF-8 ({exc.reason})") from exc


class _Parser(argparse.ArgumentParser):
    def print_help(self, file: Any = None) -> None:
        # as a report: argparse's own write swallows an unwritable stdout's OSError
        _emit(self.format_help(), "text", None)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bigsurf",
        description="Exact bigness tests, root systems and Zariski "
                    "decompositions for rational surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, formats, _) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        if name == "sweep":
            command.add_argument("--max-a", type=int, default=12, metavar="N",
                                 help="bound on points per line (default: 12)")
            command.add_argument("--max-b", type=int, default=12, metavar="N",
                                 help="bound on points per conic (default: 12)")
            command.add_argument("--max-ai", type=int, default=10, metavar="N",
                                 help="bound on points per line, three-line "
                                      "models (default: 10)")
        else:
            source = command.add_mutually_exclusive_group(required=True)
            source.add_argument("--input", metavar="FILE",
                                help="read the JSON request from FILE")
            source.add_argument("--json", metavar="TEXT",
                                help="inline JSON request")
        command.add_argument("--format", choices=formats, default="json",
                             help="output format (default: json)")
        command.add_argument("--out", metavar="FILE",
                             help="write the report to FILE instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        request = ((args.max_a, args.max_b, args.max_ai) if args.command == "sweep"
                   else _load_json(_read_input(args)))
        payload, failure = _COMMANDS[args.command][2](request, args.format)
        if failure is not None:
            print(f"error: {failure}", file=sys.stderr)
        _emit(payload, args.format, args.out)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit 2 is reserved for internal
        # invariant failures, so fold usage problems into the domain-error
        # status (--help still exits 0).
        return 1 if exc.code else 0
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0 if failure is None else 2


def run() -> None:
    status = main()
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
