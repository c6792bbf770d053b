"""The verb table reads every command line of a fixed corpus as the argparse
parser it replaced did: the same verb and fields, the same help or version
request, or a refusal exactly where argparse refused.

``build_parser`` below is that argparse parser, kept as the reference.  A
refusal by the table also keeps the CLI's contract: exit 2, a ``usage:
hopfseq`` line and then a ``hopfseq...: error:`` line on stderr, and
nothing on stdout.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hopfseq import __version__
from hopfseq.cli import (
    EXIT_PARSE,
    ORDER_CAP,
    VERBS,
    UsageError,
    cmd_build,
    cmd_certify,
    cmd_compseries,
    cmd_factorize,
    cmd_group,
    cmd_ledger,
    cmd_table,
    cmd_verify,
    main,
    parse_args,
)

from test_cli import BAD_INPUTS
from test_cli_mutations import _target_cases
from test_readme_cli import readme_commands


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfseq",
        description="exact sequences of Hopf algebras and fusion-category "
                    "dimension arithmetic")
    ap.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap-order", type=int, default=None,
                        help=f"largest allowed group order (default: env HOPFSEQ_CAP, "
                             f"else {ORDER_CAP})")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("table", help="subgroup classes of a group", parents=[common])
    p.add_argument("target")
    p.add_argument("--format", choices=("markdown", "csv", "text"), default="markdown")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("factorize", help="exact factorizations", parents=[common])
    p.add_argument("target")
    p.add_argument("--all", action="store_true", help="include improper pairs")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("build", help="construct and verify a Hopf algebra",
                       parents=[common])
    p.add_argument("kind", choices=("group", "dual", "double", "bicrossed"))
    p.add_argument("target")
    p.add_argument("--g-gens", default="")
    p.add_argument("--gamma-gens", default="")
    p.add_argument("--conductor", type=int, default=1)
    p.add_argument("-o", "--output", default="")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a dump or a canonical sequence",
                       parents=[common])
    p.add_argument("what", choices=("hopf", "sequence"))
    p.add_argument("target")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compseries", help="categorical composition series",
                       parents=[common])
    p.add_argument("target")
    p.add_argument("--chain", choices=("a6", "iterated", "both"), default="both")
    p.set_defaults(func=cmd_compseries)

    p = sub.add_parser("certify", help="simplicity certificates", parents=[common])
    p.add_argument("target")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("ledger", help="ledger facts of a category expression",
                       parents=[common])
    p.add_argument("target")
    p.set_defaults(func=cmd_ledger)

    p = sub.add_parser("group", help="inspect or export a named group",
                       parents=[common])
    p.add_argument("target")
    p.add_argument("-o", "--output", default="")
    p.set_defaults(func=cmd_group)
    return ap


REFERENCE = build_parser()

BUILD = ["build", "bicrossed", "s4", "--g-gens", "(1 2 3);(1 2)", "--gamma-gens", "(1 2 3 4)"]

HAND_WRITTEN = [
    # --name=value, also on a prefix and on the short alias
    ["table", "a5", "--format=csv"],
    ["table", "a5", "--form=text"],
    [*BUILD, "--conductor=3", "-o=x.hopf"],
    [*BUILD, "-ox.hopf"],
    ["group", "a5", "--output="],
    # unique prefixes
    ["table", "a5", "--cap", "50"],
    ["table", "a5", "--form", "csv"],
    ["factorize", "s4", "--a"],
    ["build", "group", "s3", "--co", "3", "--out", "x.hopf"],
    ["table", "a5", "--ca=7"],
    # ambiguous prefixes: --g-gens or --gamma-gens, --cap-order or --conductor
    [*BUILD, "--g", "x"],
    ["build", "group", "s3", "--c", "3"],
    # a token that looks like a negative number is a value or a positional
    [*BUILD, "--conductor", "-3"],
    ["certify", "-3"],
    ["certify", "-3.5"],
    ["certify", "-.5"],
    ["table", "a5", "--cap-order", "-1"],
    # a lone "-" is a positional; "--" ends the options
    ["factorize", "-"],
    ["certify", "--", "-a5"],
    ["certify", "--", "--"],
    ["table", "--", "a5", "--format", "csv"],
    ["table", "a5", "--"],
    ["build", "group", "--", "s3"],
    # a token with a blank is a positional, one without is an unknown option
    ["verify", "sequence", "-quotient:s3:(1 2 3)"],
    ["certify", "-a5"],
    ["certify", "--a6-simple"],
    # missing and extra positionals
    ["build", "group"],
    ["build"],
    [],
    ["table", "a5", "a6"],
    ["verify", "hopf", "x.hopf", "y.hopf"],
    # bad choices, of a verb, a positional and an option
    ["tables", "a5"],
    ["build", "groups", "s3"],
    ["verify", "sequences", "double:s3"],
    ["table", "a5", "--format", "json"],
    ["compseries", "vec:s4", "--chain", "all"],
    # values that are not ints, and ints that int() reads
    ["table", "a5", "--cap-order", "x"],
    ["table", "a5", "--cap-order", ""],
    ["table", "a5", "--cap-order", " 50"],
    ["table", "a5", "--cap-order", "1_000"],
    ["build", "group", "s3", "--conductor", "3.0"],
    # options before and between positionals
    ["build", "--conductor", "3", "group", "s3"],
    ["build", "group", "-o", "x.hopf", "s3"],
    ["table", "--format", "csv", "--cap-order", "100", "a5"],
    # a repeated option keeps its last value
    ["table", "a5", "--format", "csv", "--format", "text"],
    ["factorize", "--all", "s4", "--all"],
    # an option without its value, or a flag with one
    ["table", "a5", "--format"],
    ["group", "a5", "-o"],
    ["group", "a5", "-o", "--cap-order", "5"],
    ["table", "a5", "--format", "--"],
    ["factorize", "s4", "--all=yes"],
    ["factorize", "s4", "--all="],
    # options a verb does not take, and options before the verb
    ["table", "a5", "--all"],
    ["factorize", "s4", "--format", "csv"],
    ["--cap-order", "5", "table", "a5"],
    ["--bogus", "table", "a5"],
    ["-x"],
    # help and version, at the top and per verb, also on prefixes
    ["-h"],
    ["--help"],
    ["--he"],
    ["--version"],
    ["--vers"],
    ["--version", "table"],
    ["--version=1"],
    ["-h", "table"],
    ["table", "-h"],
    ["build", "--help"],
    ["build", "group", "-h", "--bogus"],
    ["--bogus", "table", "-h"],
    ["table", "--h"],
    ["table", "-hx"],
    ["table", "a5", "--version"],
    ["table", "--format", "json", "-h"],
    ["table", "-h", "--format", "json"],
    ["build", "bogus", "-h"],
    ["bogus", "-h"],
]


def _bytes_free(argv) -> list[str]:
    """BAD_INPUTS names some files by their bytes; any path reads alike here."""
    return [arg if isinstance(arg, str) else "input.bin" for arg in argv]


CORPUS = ([_bytes_free(argv) for argv, _, _ in BAD_INPUTS]
          + [argv[1:] for argv in readme_commands()]
          + _target_cases() + HAND_WRITTEN)


def _reference_outcome(argv: list[str]) -> tuple:
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = REFERENCE.parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            return ("refused",)
        text = stdout.getvalue()
        # the third word of a help's usage line is the verb, or [-h] at the top
        return ("version",) if text == __version__ + "\n" else ("help", text.split()[2])
    return ("args", vars(args))


def _table_outcome(argv: list[str]) -> tuple:
    try:
        args = parse_args(argv)
    except UsageError:
        return ("refused",)
    if isinstance(args, str):
        return ("version",) if args == __version__ else ("help", args.split()[2])
    return ("args", vars(args))


def test_table_reads_the_command_line_as_argparse_did():
    outcomes = [_reference_outcome(argv) for argv in CORPUS]
    # the corpus reaches every verb and every kind of outcome
    assert {o[0] for o in outcomes} == {"args", "help", "version", "refused"}
    assert {o[1]["verb"] for o in outcomes if o[0] == "args"} == set(VERBS)
    differ = [(argv, want, got) for argv, want in zip(CORPUS, outcomes)
              if (got := _table_outcome(argv)) != want]
    assert not differ, differ[:5]


# where the table reads a line otherwise than argparse: argparse reads -h
# followed by more characters as -h and further short options, and prints
# the help; the table takes no value after -h and refuses the line
PINNED = [
    (["table", "-hh"], ("refused",)),
    (["build", "-ho", "x", "group", "s3"], ("refused",)),
]


@pytest.mark.parametrize("argv, outcome", PINNED)
def test_pinned_outcomes(argv, outcome):
    assert _table_outcome(argv) == outcome


def test_a_refused_command_line_prints_usage_and_error_on_stderr(capsys):
    refused = [argv for argv in CORPUS if _table_outcome(argv) == ("refused",)]
    for argv in refused:
        out = io.StringIO()
        assert main(argv, out=out) == EXIT_PARSE and out.getvalue() == "", argv
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 2, (argv, captured)
        assert lines[0].startswith("usage: hopfseq") and lines[1].startswith("hopfseq"), argv
        assert ": error: " in lines[1], argv


def test_help_and_version_go_to_stdout_and_exit_0(capsys):
    for argv, first in ((["-h"], "usage: hopfseq [-h]"),
                        (["build", "-h"], "usage: hopfseq build [-h]"),
                        (["--version"], __version__)):
        out = io.StringIO()
        assert main(argv, out=out) == 0
        assert out.getvalue().splitlines()[0].startswith(first)
        assert capsys.readouterr().err == ""
