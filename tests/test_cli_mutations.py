"""A seeded mutation corpus for the CLI's error contract.

Each case mutates the target of a verb, or the bytes of a group file or of a
D(S3) dump, and runs it through ``cli.main`` in-process.  Whatever the input,
a run ends with exit 0-3 and raises nothing; a refusal (exit 2 or 3) prints
exactly one ``error:`` line, and the command line's own usage errors (a
target that starts with ``-``, say) keep their usage and error lines on stderr.
The corpus comes from ``random`` with fixed seeds, so it is the same on
every run.
"""

import io
import random
import re

import pytest

from hopfseq import drinfeld_double, symmetric
from hopfseq.cli import main
from hopfseq.io_formats import dump_hopf

# (the verb with its options, a target) for the target grammar of every verb
TARGETS = [
    (("table", "--format", "csv"), "a5"),
    (("factorize",), "s4"),
    (("group",), "z2xz4"),
    (("group",), "d4"),
    (("group",), "v4"),
    (("compseries", "--chain", "iterated"), "vec:s4"),
    (("compseries", "--chain", "a6"), "rep:s3"),
    (("ledger",), "center:vec:s3"),
    (("certify",), "ty:5"),
    (("certify",), "cpq:3,5"),
    (("ledger",), "cpq:3,7"),
    (("verify", "sequence"), "double:s3"),
    (("verify", "sequence"), "quotient:s3:(1 2 3)"),
    (("build", "dual"), "z2xz3"),
    (("group",), "s4.grp"),
    (("verify", "hopf"), "ds3.hopf"),
]

# the verbs run on a mutated group file
FILE_VERBS = [("group",), ("factorize",), ("table", "--format", "text"), ("compseries",)]

S4_FILE = b"degree 4\n(1 2 3 4)\n(1 2)\n"

# what a number is replaced with: huge, negative, zero, and digits beyond
# ASCII or forms that str.isdigit() or int() accept
NUMBERS = ["0", "00", "-3", "9" * 8, "9" * 30, "9" * 5000, "\u00b3", "\u0663", "\uff13",
           "1_0", " 3", "3.0"]

# what a character is replaced with or has inserted before it: blanks, line
# breaks, NUL, a BOM, non-ASCII, an undecodable byte as argv carries it,
# separators and a superscript digit
JUNK = ["", " ", "\t", "\r", "\n", "\x00", "\ufeff", "\xe9", "\udcff", "-", "--", ":", ",",
        ";", "(", ")", "x", ".", "/", "\u00b2"]

CASES_PER_TARGET = 24
FILE_CASES = 160


def _mutate_text(rng: random.Random, s: str) -> str:
    """One mutation of a target: a character replaced by junk, junk
    inserted, a character dropped, a number replaced, a token blanked or a
    slice repeated."""
    i = rng.randrange(len(s) + 1)
    kind = rng.randrange(6)
    if kind == 0:
        return s[:i] + rng.choice(JUNK) + s[i + 1:]
    if kind == 1:
        return s[:i] + rng.choice(JUNK) + s[i:]
    if kind == 2:
        return s[:i] + s[i + 1:]
    if kind == 3:
        runs = list(re.finditer(r"\d+", s))
        if runs:
            m = rng.choice(runs)
            return s[:m.start()] + rng.choice(NUMBERS) + s[m.end():]
        return rng.choice(NUMBERS) + s
    if kind == 4:
        tokens = list(re.finditer(r"[a-z0-9]+", s)) or [re.match(".*", s)]
        m = rng.choice(tokens)
        return s[:m.start()] + rng.choice(["", " "]) + s[m.end():]
    j = min(len(s), i + rng.randrange(1, 4))
    return s[:j] + s[i:j] + s[j:]


def _mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """One mutation of a file: a bit flip, a BOM, CR line ends or a lone CR,
    a NUL or non-UTF-8 byte, a line repeated or dropped, a number replaced
    or a token blanked."""
    kind = rng.randrange(8)
    i = rng.randrange(len(data))
    if kind == 0:
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]
    if kind == 1:
        return b"\xef\xbb\xbf" + data
    if kind == 2:
        return data.replace(b"\n", b"\r\n") if rng.randrange(2) else data[:i] + b"\r" + data[i:]
    if kind == 3:
        return data[:i] + rng.choice([b"\x00", b"\xff", b"\xc3\xa9"]) + data[i:]
    lines = data.split(b"\n")
    k = rng.randrange(len(lines))
    if kind == 4:
        return b"\n".join(lines[:k + 1] + lines[k:])
    if kind == 5:
        return b"\n".join(lines[:k] + lines[k + 1:])
    runs = list(re.finditer(rb"\d+" if kind == 6 else rb"\S+", data)) or [re.match(b".*", data)]
    m = rng.choice(runs)
    new = rng.choice(NUMBERS).encode() if kind == 6 else b""
    return data[:m.start()] + new + data[m.end():]


def _target_cases() -> list[list[str]]:
    rng = random.Random(20151)
    cases = []
    for verb, target in TARGETS:
        for _ in range(CASES_PER_TARGET):
            mutated = target
            for _ in range(rng.choice((1, 1, 2))):
                mutated = _mutate_text(rng, mutated)
            cases.append([*verb, mutated])
    return cases


def _file_cases() -> list[tuple[tuple, bytes]]:
    rng = random.Random(20152)
    dump = dump_hopf(drinfeld_double(symmetric(3))).encode()
    cases = []
    for n in range(FILE_CASES):
        if n % 2:
            verb, seed = ("verify", "hopf"), dump
        else:
            verb, seed = rng.choice(FILE_VERBS), S4_FILE
        data = seed
        for _ in range(rng.choice((1, 1, 2))):
            data = _mutate_bytes(rng, data)
        cases.append((verb, data))
    return cases


def _check(argv: list[str], capsys) -> None:
    out = io.StringIO()
    try:
        code = main(argv, out=out)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{argv!r:.300}: {type(exc).__name__}: {exc!s:.300}")
    text = out.getvalue()
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3), (argv, code, text)
    if code in (2, 3) and not text:
        # the command line was refused before any verb ran
        lines = err.splitlines()
        assert code == 2 and lines[0].startswith("usage: hopfseq"), (argv, err)
        assert lines[1].startswith("hopfseq") and ": error: " in lines[1], (argv, err)
    elif code in (2, 3):
        lines = text.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, code, text)


@pytest.fixture
def quiet_env(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # where the relative paths of TARGETS do not exist
    monkeypatch.delenv("HOPFSEQ_CAP", raising=False)


def test_mutated_targets_keep_the_error_contract(quiet_env, capsys):
    for argv in _target_cases():
        _check(argv, capsys)


def test_mutated_files_keep_the_error_contract(quiet_env, capsys, tmp_path):
    for n, (verb, data) in enumerate(_file_cases()):
        path = tmp_path / (f"case{n}.hopf" if verb == ("verify", "hopf") else f"case{n}.grp")
        path.write_bytes(data)
        target = f"vec:{path}" if verb == ("compseries",) else str(path)
        _check([*verb, target], capsys)
