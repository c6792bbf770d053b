"""Command-line surface.

Verbs: table, factorize, build, verify, compseries, certify, ledger, group.
One table, VERBS, lists each verb with its arguments, choices and defaults;
``parse_args`` reads the command line against it, and the help and usage
text are generated from it.
Exit codes: 0 all verifications passed, 1 a verification failed,
2 parse/usage errors or output that cannot be written, 3 a size cap was
exceeded, 141 (128 + SIGPIPE) the reader closed stdout.  All output is
byte-deterministic for fixed inputs and flags.

``entry()`` is the process entry of both ``python -m hopfseq.cli`` and the
installed ``hopfseq`` script: it runs ``main()``, flushes stdout and stderr
and ends the process with ``os._exit``, skipping the interpreter's teardown.
In-process callers call ``main()``, which returns the exit code.

Each verb imports the modules it runs when it is called, so a process
loads only what its verb needs: ``factorize`` never loads the Hopf stack,
and ``verify hopf`` never loads the categorical modules.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

from . import __version__
# the modules of every verb import groups and perm, so these load with the CLI
from .groups import (
    ORDER_CAP,
    CapExceeded,
    GroupError,
    PermGroup,
    exact_factorizations,
    iso_label,
    named_group,
    prime_factors,
    subgroup_classes,
)
from .perm import PermParseError, parse_cycles

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process that SIGPIPE ended


class CliError(Exception):
    def __init__(self, message: str, code: int):
        self.code = code
        super().__init__(message)


def _resolve_group(spec: str, cap: int) -> PermGroup:
    """A group file when ``spec`` ends in .grp or names a file, else a builtin
    name: a directory, or the working directory that Path("") is, never
    shadows a name."""
    path = Path(spec)
    # os.path.isfile, unlike Path.is_file, is False for a name too long to be a path
    if path.suffix == ".grp" or os.path.isfile(spec):
        from .io_formats import FormatError, load_group

        try:
            return load_group(_read_input(spec), name=path.stem, cap=cap)
        except FormatError as exc:
            raise CliError(f"{spec}: {exc}", EXIT_PARSE)
    G = named_group(spec, cap)
    if G.order > cap:
        raise CliError(f"group order {G.order} exceeds cap {cap}", EXIT_CAP)
    return G


def _parse_expr(spec: str, cap: int) -> CatExpr:
    from .catexpr import center, cpq_category, rep_g, tambara_yamagami, vec_g

    spec = spec.strip()
    low = spec.lower()
    if low.startswith("center:"):
        return center(_parse_expr(spec[len("center:"):], cap))
    if low.startswith("vec:"):
        return vec_g(_resolve_group(spec[4:], cap))
    if low.startswith("rep:"):
        return rep_g(_resolve_group(spec[4:], cap))
    if low.startswith("ty:"):
        return tambara_yamagami(*_parse_ints(spec[3:], 1))
    if low.startswith("cpq:"):
        return cpq_category(*_parse_ints(spec[4:], 2))
    if low == "vecs6":
        return vec_g(named_group("s6"))
    if low == "center-vecs6":
        return center(vec_g(named_group("s6")))
    raise CliError(f"cannot parse category expression {spec!r}", EXIT_PARSE)


def _parse_ints(text: str, count: int) -> list[int]:
    """Exactly ``count`` comma-separated integers, each an optional sign and
    decimal digits, as in group names: no blank or underscore."""
    tokens = text.split(",")
    try:
        nums = [int(t) for t in tokens if (t[1:] if t[:1] in ("+", "-") else t).isdecimal()]
    except ValueError:  # more digits than int() reads
        nums = []
    if len(nums) != count or len(tokens) != count:
        raise CliError(f"expected {count} comma-separated integer(s), got {text!r}",
                       EXIT_PARSE)
    return nums


def _read_input(path: str) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise CliError(f"cannot read {path}: {exc}", EXIT_PARSE)


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_PARSE)


def _env_cap() -> int:
    text = os.environ.get("HOPFSEQ_CAP", str(ORDER_CAP))
    try:
        return int(text)
    except ValueError:
        raise CliError(f"HOPFSEQ_CAP must be an integer, got {text!r}", EXIT_PARSE)


# ---------------------------------------------------------------------------
# verb implementations


def _emit_table(rows, fmt: str, out) -> None:
    header = ("iso_label", "order", "char_group_order", "normalizer_index")
    data = [(r.iso_label, r.order, r.char_group_order, r.normalizer_index) for r in rows]
    if fmt == "csv":
        print(",".join(header), file=out)
        for row in data:
            print(",".join(str(c) for c in row), file=out)
    elif fmt == "markdown":
        print("| " + " | ".join(header) + " |", file=out)
        print("|" + "|".join("---" for _ in header) + "|", file=out)
        for row in data:
            print("| " + " | ".join(str(c) for c in row) + " |", file=out)
    else:
        for row in data:
            print("  ".join(str(c) for c in row), file=out)


def _table_sort_key(row):
    # group rows by the largest prime dividing |T|, then by order; the
    # trivial class leads
    largest = max(prime_factors(row.order), default=1)
    return (largest, row.order, row.iso_label, -row.normalizer_index)


def cmd_table(args, out) -> int:
    G = _resolve_group(args.target, args.cap_order)
    rows = sorted(subgroup_classes(G), key=_table_sort_key)
    _emit_table(rows, args.format, out)
    return EXIT_OK


def cmd_factorize(args, out) -> int:
    G = _resolve_group(args.target, args.cap_order)
    facts = exact_factorizations(G, proper_only=not args.all)
    print(f"# exact factorizations of {iso_label(G)} "
          f"({'all' if args.all else 'proper'}): {len(facts)}", file=out)
    for f in facts:
        la, lb = f.labels()
        print(f"{la} (order {f.left.order}) . {lb} (order {f.right.order})", file=out)
    return EXIT_OK


def _build_algebra(args):
    from .hopf import (
        bicrossed_product,
        bicrossed_work,
        check_conductor,
        check_work,
        drinfeld_double,
        dual_group_algebra,
        group_algebra,
    )

    if args.conductor < 1:
        raise CliError(f"--conductor must be at least 1, got {args.conductor}", EXIT_PARSE)
    check_conductor(args.conductor)
    E = _resolve_group(args.target, args.cap_order)
    if args.kind == "group":
        # group_algebra builds kG past the work cap, and cmd_build verifies it
        check_work(bicrossed_work(E.order, 1), E.order, 1)
    if args.kind != "bicrossed":
        # dual_group_algebra and drinfeld_double refuse work too large to
        # verify before building
        build = {"group": group_algebra, "dual": dual_group_algebra,
                 "double": drinfeld_double}[args.kind]
        return build(E, conductor=args.conductor)
    from .matched import from_factorization

    if not (args.g_gens and args.gamma_gens):
        raise CliError("bicrossed needs --g-gens and --gamma-gens", EXIT_PARSE)
    gg = [parse_cycles(t, E.degree) for t in args.g_gens.split(";")]
    hg = [parse_cycles(t, E.degree) for t in args.gamma_gens.split(";")]
    G = E.subgroup(gg)
    Gamma = E.subgroup(hg)
    # bicrossed_product checks this too, but only after from_factorization
    # has built the pair; the CLI's products have trivial cocycles, whose
    # work is not weighed by the conductor
    check_work(bicrossed_work(G.order, Gamma.order), G.order * Gamma.order, 1)
    return bicrossed_product(from_factorization(E, G, Gamma), conductor=args.conductor)


def cmd_build(args, out) -> int:
    from .hopf import verify_hopf_axioms
    from .io_formats import dump_hopf

    H = _build_algebra(args)
    # bicrossed_product (and so drinfeld_double) has verified every family on
    # the tensors it returns, and raises otherwise
    ok = args.kind not in ("group", "dual") or verify_hopf_axioms(H).ok
    if args.output:  # before any line, so that a failed write prints one error
        _write_output(args.output, dump_hopf(H))
    print(f"dim {H.dim}, conductor {H.field.conductor}, "
          f"axioms {'PASS' if ok else 'FAIL'}", file=out)
    if args.output:
        print(f"wrote {args.output}", file=out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify(args, out) -> int:
    if args.what == "hopf":
        from .hopf import axiom_violations
        from .io_formats import FormatError, load_hopf

        try:
            H = load_hopf(_read_input(args.target))
        except FormatError as exc:
            raise CliError(f"{args.target}: {exc}", EXIT_PARSE)
        # the first 20 violations in the verifier's order, and no more computed
        shown = list(islice(axiom_violations(H), 20))
        if not shown:
            print(f"dim {H.dim}: all Hopf axioms PASS", file=out)
            return EXIT_OK
        for v in shown:
            print(f"FAIL {v}", file=out)
        return EXIT_VERIFY
    from .exact import (
        dualize_sequence,
        make_abelian_sequence,
        make_group_quotient_sequence,
        verify_exact_sequence,
    )

    if args.target.startswith("double:"):
        from .hopf import drinfeld_double

        G = _resolve_group(args.target[len("double:"):], args.cap_order)
        seq = make_abelian_sequence(drinfeld_double(G))
    elif args.target.startswith("quotient:"):
        spec = args.target[len("quotient:"):]
        gname, _, gens = spec.partition(":")
        G = _resolve_group(gname, args.cap_order)
        N = G.subgroup([parse_cycles(t, G.degree) for t in gens.split(";")])
        seq = make_group_quotient_sequence(G, N)
    else:
        raise CliError("sequence target must be double:<group> or "
                       "quotient:<group>:<gens>", EXIT_PARSE)
    status = verify_exact_sequence(seq)
    dual_status = verify_exact_sequence(dualize_sequence(seq))
    for key, val in status.items():
        if key == "witness":
            continue
        print(f"{key}: {'PASS' if val else 'FAIL'}", file=out)
    for key, val in sorted(status["witness"].items()):
        print(f"  witness {key} = {val}", file=out)
    print(f"dual_exact: {'PASS' if dual_status['exact'] else 'FAIL'}", file=out)
    return EXIT_OK if status["exact"] and dual_status["exact"] else EXIT_VERIFY


def cmd_compseries(args, out) -> int:
    from .series_cat import comp_series_cat

    expr = _parse_expr(args.target, args.cap_order)
    chains = ("a6", "iterated") if args.chain == "both" else (args.chain,)
    series = [comp_series_cat(expr, name) for name in chains]
    for name, ser in zip(chains, series):
        print(f"chain={name} length={ser.length()}", file=out)
        for f, st in zip(ser.factors, ser.terminal_status):
            print(f"  {f.describe()} [{st}]", file=out)
    if args.chain == "both":
        same = series[0].factor_multiset() == series[1].factor_multiset()
        print("factor multisets " + ("agree" if same else "differ"), file=out)
    else:
        for line in series[0].rule_trace:
            print(f"# {line}", file=out)
    return EXIT_OK


def cmd_certify(args, out) -> int:
    from .certificates import a6_simplicity_check, family_simplicity_check

    target = args.target.lower()
    if target == "a6-simple":
        cert = a6_simplicity_check()
    elif target.startswith(("ty:", "cpq:")):
        cert = family_simplicity_check(_parse_expr(target, args.cap_order))
    else:
        raise CliError(f"unknown certificate target {args.target!r}", EXIT_PARSE)
    print(f"target: {cert.target}", file=out)
    print(f"verdict: {cert.verdict}", file=out)
    for entry in cert.trace:
        print(f"-- {entry.case}", file=out)
        for k, v in sorted(entry.values.items()):
            print(f"   {k} = {v}", file=out)
        print(f"   {entry.reason}", file=out)
        for ax in entry.axioms:
            print(f"   uses: {ax}", file=out)
    print("machine trace:", file=out)
    for line in cert.machine_lines():
        print(f"  {line}", file=out)
    return EXIT_OK if cert.verdict == "SIMPLE" else EXIT_VERIFY


def cmd_ledger(args, out) -> int:
    from .catexpr import fpdim, is_integral, is_pointed

    expr = _parse_expr(args.target, args.cap_order)
    print(f"expr: {expr.describe()}", file=out)
    print(f"fpdim: {fpdim(expr)}", file=out)
    print(f"integral: {is_integral(expr)}", file=out)
    print(f"pointed: {is_pointed(expr)}", file=out)
    return EXIT_OK


def cmd_group(args, out) -> int:
    from .io_formats import dump_group

    G = _resolve_group(args.target, args.cap_order)
    if args.output:
        _write_output(args.output, dump_group(G))
        print(f"wrote {args.output}", file=out)
    print(f"order {G.order}, degree {G.degree}, label {iso_label(G)}", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------


# The verb table: verb -> (handler, one-line help, positionals, options).  A
# positional is (name, the values it accepts or None).  An option maps its
# long name to (type, default, alias, help): int and str take a value, bool
# is a flag and a tuple lists the values it accepts.  Every verb also takes
# the options of COMMON.
COMMON = {"--cap-order": (int, None, None, "largest allowed group order (default: env "
                          f"HOPFSEQ_CAP, else {ORDER_CAP})")}
OUTPUT = {"--output": (str, "", "-o", "write the file here")}
VERBS = {
    "table": (cmd_table, "subgroup classes of a group", [("target", None)],
              {"--format": (("markdown", "csv", "text"), "markdown", None, "table layout")}),
    "factorize": (cmd_factorize, "exact factorizations", [("target", None)],
                  {"--all": (bool, False, None, "include improper pairs")}),
    "build": (cmd_build, "construct and verify a Hopf algebra",
              [("kind", ("group", "dual", "double", "bicrossed")), ("target", None)],
              {"--g-gens": (str, "", None, "generators of G, cycles joined by ';'"),
               "--gamma-gens": (str, "", None, "generators of Gamma, cycles joined by ';'"),
               "--conductor": (int, 1, None, "build over Q(zeta_N)"), **OUTPUT}),
    "verify": (cmd_verify, "verify a dump or a canonical sequence",
               [("what", ("hopf", "sequence")), ("target", None)], {}),
    "compseries": (cmd_compseries, "categorical composition series", [("target", None)],
                   {"--chain": (("a6", "iterated", "both"), "both", None, "which chain")}),
    "certify": (cmd_certify, "simplicity certificates", [("target", None)], {}),
    "ledger": (cmd_ledger, "ledger facts of a category expression", [("target", None)], {}),
    "group": (cmd_group, "inspect or export a named group", [("target", None)], OUTPUT),
}
# what the command line takes before its verb, beside -h
TOP = {"--version": (bool, None, None, "print the version and exit")}


class UsageError(Exception):
    """A command line the verb table refuses; ``verb`` is None when the
    refusal is not one verb's."""

    def __init__(self, verb: str | None, message: str):
        self.verb = verb
        super().__init__(message)


def _options(verb: str | None) -> dict:
    return TOP if verb is None else {**COMMON, **VERBS[verb][3]}


def _dest(name: str) -> str:
    """The field of an option: --g-gens sets g_gens."""
    return name[2:].replace("-", "_")


def _metavar(name: str, kind) -> str:
    if kind is bool:
        return ""
    if isinstance(kind, tuple):
        return " {" + ",".join(kind) + "}"
    return " N" if kind is int else " " + _dest(name).upper()


def _usage(verb: str | None) -> str:
    opts = "".join(f" [{alias or name}{_metavar(name, kind)}]"
                   for name, (kind, _, alias, _) in _options(verb).items())
    if verb is None:
        return f"usage: hopfseq [-h]{opts} {{{','.join(VERBS)}}} ..."
    places = "".join(f" {{{','.join(c)}}}" if c else f" {n}" for n, c in VERBS[verb][2])
    return f"usage: hopfseq {verb} [-h]{opts}{places}"


def _help(verb: str | None) -> str:
    if verb is None:
        head = "exact sequences of Hopf algebras and fusion-category dimension arithmetic"
        rows, foot = [(v, VERBS[v][1]) for v in VERBS], ["", "'hopfseq VERB -h' lists "
                                                          "the options of a verb."]
    else:
        head, foot = VERBS[verb][1], []
        rows = [(n, "one of {" + ",".join(c) + "}" if c else "") for n, c in VERBS[verb][2]]
    rows.append(("-h, --help", "print this help and exit"))
    for name, (kind, default, alias, text) in _options(verb).items():
        shown = f" (default: {default})" if default not in (None, False, "") else ""
        rows.append((f"{alias + ', ' if alias else ''}{name}{_metavar(name, kind)}",
                     text + shown))
    width = max(len(flag) for flag, _ in rows) + 2
    return "\n".join([_usage(verb), "", head, ""]
                     + [f"  {flag:<{width}}{text}".rstrip() for flag, text in rows] + foot)


def _kinds(verb: str | None, tokens: list[str]) -> list:
    """How the command line reads each token: an (option, explicit value or
    None) pair, ("", token) for an option the verb does not take, None for a
    positional, and "--" for the "--" that ends the options.  A long option
    may be any unique prefix of its name; a token that looks like a negative
    number, or holds a blank, is a positional."""
    names = {"-h": "-h", "--help": "-h"}
    for name, (_, _, alias, _) in _options(verb).items():
        names[name] = name
        if alias:
            names[alias] = name
    kinds, ended = [], False
    for token in tokens:
        head, eq, value = token.partition("=")
        value = value if eq else None
        if ended or token[:1] != "-" or token == "-":
            kinds.append(None)
        elif token == "--":
            kinds.append("--")
            ended = True
        elif token in names:
            kinds.append((names[token], None))
        elif eq and head in names:
            kinds.append((names[head], value))
        elif token[1] != "-" and token[:2] in names:  # a short option and its value: -ofile
            kinds.append((names[token[:2]], token[2:]))
        elif token[1] == "-" and (found := sorted(n for n in names if n.startswith(head))):
            if len(found) > 1:
                raise UsageError(verb, f"ambiguous option: {head} could match {', '.join(found)}")
            kinds.append((names[found[0]], value))
        elif re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
            kinds.append(None)
        else:
            kinds.append(("", token))
    return kinds


def _value(verb: str | None, name: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(verb, f"argument {name}: invalid int value: {text!r}")
    if isinstance(kind, tuple) and text not in kind:
        raise UsageError(verb, f"argument {name}: invalid choice: {text!r} "
                               f"(choose from {', '.join(kind)})")
    return text


def _no_value(verb: str | None, name: str, value: str | None) -> None:
    if value is not None:
        raise UsageError(verb, f"argument {name}: takes no value, got {value!r}")


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The verb, its ``func`` and a field for each positional and option of
    its row in VERBS, or the text that -h or --version asks for; UsageError
    if the command line is refused.  Options may
    come anywhere after the verb, as --name value or --name=value, and a
    repeated option keeps its last value."""
    unknown = []
    for at, kind in enumerate(_kinds(None, argv)):
        if kind is None or kind == "--":  # the verb, then the verb's own line
            break
        name, value = kind
        if name:
            _no_value(None, name, value)
            return _help(None) if name == "-h" else __version__
        unknown.append(argv[at])
    else:
        raise UsageError(None, "the following arguments are required: verb")
    verb, tokens = _value(None, "verb", tuple(VERBS), argv[at]), argv[at + 1:]
    func, _, places, _ = VERBS[verb]
    options = _options(verb)
    fields = {"verb": verb, "func": func, **{_dest(n): spec[1] for n, spec in options.items()}}
    places, kinds, at = list(places), _kinds(verb, tokens), 0
    while at < len(tokens):
        token, kind = tokens[at], kinds[at]
        at += 1
        if kind == "--":
            continue
        if kind is None and places:
            name, choices = places.pop(0)
            fields[name] = _value(verb, name, choices, token)
            continue
        name, value = kind or ("", token)
        if not name:  # a positional past the last, or an option the verb lacks
            unknown.append(token)
        elif name == "-h":
            _no_value(verb, name, value)
            return _help(verb)
        else:
            type_ = options[name][0]
            if type_ is bool:
                _no_value(verb, name, value)
                value = True
            elif value is None:
                if at == len(tokens) or kinds[at] is not None:
                    raise UsageError(verb, f"argument {name}: expected one argument")
                value, at = tokens[at], at + 1
            fields[_dest(name)] = _value(verb, name, type_, value)
    if places:
        raise UsageError(verb, "the following arguments are required: "
                               + ", ".join(name for name, _ in places))
    if unknown:
        raise UsageError(None, "unrecognized arguments: " + " ".join(map(repr, unknown)))
    return SimpleNamespace(**fields)


# The error classes a verb may end with, by defining module, beside those
# of groups and perm, which load with the CLI.  Only the classes of modules
# already in sys.modules are mapped: the verbs import their modules lazily,
# and a module that was never imported cannot have raised, so the mapping
# imports nothing.
_ERRORS = (("io_formats", "FormatError"), ("hopf", "HopfError"),
           ("catexpr", "LedgerError"), ("series_cat", "SeriesError"))


def _loaded_error(module: str, name: str):
    mod = sys.modules.get(f"{__package__}.{module}")
    return getattr(mod, name) if mod is not None else None


def _handled_errors() -> tuple:
    loaded = (_loaded_error(module, name) for module, name in _ERRORS)
    return (CliError, CapExceeded, GroupError, PermParseError, *filter(None, loaded))


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, CliError):
        return exc.code
    if isinstance(exc, CapExceeded):
        return EXIT_CAP
    hopf_error = _loaded_error("hopf", "HopfError")
    if hopf_error is not None and isinstance(exc, hopf_error):
        return EXIT_VERIFY
    return EXIT_PARSE


def _run(args, out) -> int:
    try:
        if args.cap_order is None:
            args.cap_order = _env_cap()
        return args.func(args, out)
    except _handled_errors() as exc:  # evaluated only once a verb has raised
        # a message may echo a line break of its input; it stays one line
        print("error: " + "\\n".join(str(exc).splitlines()), file=out)
        return _exit_code(exc)


def _stdout_to_devnull(out) -> None:
    """Point the process's stdout at devnull when ``out`` is that stream, so
    that no later flush of what it still buffers can raise again."""
    if out is sys.stdout and out is not None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        prog = "hopfseq" if exc.verb is None else f"hopfseq {exc.verb}"
        print(f"{_usage(exc.verb)}\n{prog}: error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        if out is None:  # the process started with stdout closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        if isinstance(args, str):  # the help or the version
            print(args, file=out)
            code = EXIT_OK
        else:
            code = _run(args, out)
        out.flush()  # here, so that a failed write raises inside the try
    except BrokenPipeError:
        # the reader has gone: exit as SIGPIPE would, silently
        _stdout_to_devnull(out)
        return EXIT_PIPE
    except OSError as exc:  # a full device, or no stdout at all
        _stdout_to_devnull(out)
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


def entry() -> None:
    """The process entry: run main on the command line, flush both streams
    and end the process with main's code through os._exit.

    No atexit hook, thread or open file outlives main, so the interpreter's
    teardown (a last garbage collection and the unloading of every module)
    would only add time to each verb.  An exception that escapes main ends
    the process the usual way, with a traceback and exit 1.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
