import contextlib
import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hopfseq.cli import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VERIFY, main
from hopfseq.cyclotomic import get_field
from hopfseq.io_formats import FormatError, dump_group, dump_hopf, load_group, load_hopf
from hopfseq import drinfeld_double, exact, group_algebra, hopf, symmetric
from hopfseq.groups import MR_BOUND, CapExceeded, alternating, cyclic
from hopfseq.hopf import (
    HOPF_WORK_CAP,
    HopfCapExceeded,
    HopfError,
    bicrossed_work,
    check_conductor,
    check_work,
)

from helpers import structure_equal
from test_readme_cli import source_env


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_table_a5_matches_reference_order():
    code, text = run_cli("table", "a5", "--format", "csv")
    assert code == EXIT_OK
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    assert [r[3] for r in rows] == ["60", "2", "3", "2", "1", "1", "2", "1", "1"]
    assert [r[0] for r in rows] == ["1", "Z2", "Z2xZ2", "Z3", "S3", "A4", "Z5", "D5", "A5"]


def test_table_a6_markdown():
    code, text = run_cli("table", "a6")
    assert code == EXIT_OK
    lines = [ln for ln in text.splitlines() if ln.startswith("|")]
    assert len(lines) == 24  # header + rule + 22 rows


def test_table_determinism():
    assert run_cli("table", "a5") == run_cli("table", "a5")


def test_factorize_a6_and_s4():
    code, text = run_cli("factorize", "a6")
    assert code == EXIT_OK and ": 0" in text
    code, text = run_cli("factorize", "s4")
    assert code == EXIT_OK
    assert "A4 (order 12) . Z2 (order 2)" in text


def test_build_and_verify_round_trip(tmp_path):
    target = tmp_path / "ds3.hopf"
    code, text = run_cli("build", "double", "s3", "-o", str(target))
    assert code == EXIT_OK and "axioms PASS" in text
    code, text = run_cli("verify", "hopf", str(target))
    assert code == EXIT_OK and "PASS" in text


def test_build_bicrossed_cli(tmp_path):
    code, text = run_cli("build", "bicrossed", "a5",
                         "--g-gens", "(1 2 3 4 5)",
                         "--gamma-gens", "(1 2 3);(1 2)(3 4)")
    assert code == EXIT_OK
    assert "dim 60" in text


def test_verify_sequence_double():
    code, text = run_cli("verify", "sequence", "double:s3")
    assert code == EXIT_OK
    assert text.count("PASS") >= 6
    code, text = run_cli("verify", "sequence", "quotient:s3:(1 2 3)")
    assert code == EXIT_OK


def test_compseries_both_chains():
    code, text = run_cli("compseries", "vecS6", "--chain", "both")
    assert code == EXIT_OK
    assert "chain=a6 length=2" in text
    assert "chain=iterated length=7" in text
    assert "factor multisets differ" in text


def test_certify_a6():
    code, text = run_cli("certify", "a6-simple")
    assert code == EXIT_OK
    assert "verdict: SIMPLE" in text
    z5_line = next(ln for ln in text.splitlines() if "case=S2:Z5" in ln)
    assert "gcd=2" in z5_line and "index_T=72" in z5_line


def test_certify_family():
    code, text = run_cli("certify", "ty:5")
    assert code == EXIT_OK and "SIMPLE" in text
    code, text = run_cli("certify", "cpq:3,5")
    assert code == EXIT_OK and "split-25x3" in text


def test_certify_family_large_primes():
    # the divisor splits come from the prime factors of fpdim, so primes
    # near 10^4 and 10^9 take no longer than small ones
    started = time.perf_counter()
    code, text = run_cli("certify", "cpq:3,10007")
    assert code == EXIT_OK and "verdict: SIMPLE" in text
    assert [ln for ln in text.splitlines() if ln.startswith("-- ")] == [
        "-- split-3x100140049", "-- split-10007x30021",
        "-- split-30021x10007", "-- split-100140049x3"]
    code, text = run_cli("certify", "ty:1000000007")
    assert code == EXIT_OK and "verdict: SIMPLE" in text
    assert [ln for ln in text.splitlines() if ln.startswith("-- ")] == [
        "-- split-2x1000000007"]
    # whether a part is prime is read off the exponents of p q^2, so q near
    # 10^9 needs no trial division up to q
    code, text = run_cli("certify", "cpq:3,1000000007")
    assert code == EXIT_OK and "verdict: SIMPLE" in text
    assert [ln for ln in text.splitlines() if ln.startswith("-- ")] == [
        "-- split-3x1000000014000000049", "-- split-1000000007x3000000021",
        "-- split-3000000021x1000000007", "-- split-1000000014000000049x3"]
    assert time.perf_counter() - started < 10


def test_ledger():
    code, text = run_cli("ledger", "ty:7")
    assert code == EXIT_OK
    assert "fpdim: 14" in text
    code, text = run_cli("ledger", "center:vec:s3")
    assert code == EXIT_OK and "fpdim: 36" in text


def test_primes_are_accepted_up_to_mr_bound():
    code, text = run_cli("ledger", "ty:1000000000000000003")
    assert code == EXIT_OK and "fpdim: 2000000000000000006" in text
    # the largest prime below MR_BOUND, and a q there with 3 dividing q + 1
    p, q = 3317044064679887385961813, 3317044064679887385961763
    assert p < MR_BOUND and (q + 1) % 3 == 0
    for verb in ("ledger", "certify", "compseries"):
        assert run_cli(verb, f"ty:{p}")[0] == EXIT_OK
        assert run_cli(verb, f"cpq:3,{q}")[0] == EXIT_OK
    # from MR_BOUND on a number is refused before it is tested, so an even
    # one is a cap, not a composite p
    for n in (MR_BOUND, 2 * MR_BOUND):
        code, text = run_cli("ledger", f"ty:{n}")
        assert code == EXIT_CAP and text.startswith("error: ")


def test_exit_codes():
    code, _ = run_cli("table", "nosuchgroup")
    assert code == EXIT_PARSE
    code, _ = run_cli("table", "s6", "--cap-order", "100")
    assert code == EXIT_CAP
    code, _ = run_cli("certify", "wat")
    assert code == EXIT_PARSE


# (argv, environment, exit code) for malformed input; each run must end with
# that code and one error line, never a traceback
BAD_INPUTS = [
    (("certify", "ty:x"), {}, EXIT_PARSE),
    (("certify", "ty:4"), {}, EXIT_PARSE),
    (("certify", "cpq:3"), {}, EXIT_PARSE),
    (("ledger", "cpq:3,x"), {}, EXIT_PARSE),
    (("table", "a5"), {"HOPFSEQ_CAP": "abc"}, EXIT_PARSE),
    (("verify", "sequence", "quotient:s4:(1 2)"), {}, EXIT_PARSE),
    (("verify", "sequence", "double:a6"), {}, EXIT_CAP),
    (("factorize", "no-such-file.grp"), {}, EXIT_PARSE),
    (("build", "bicrossed", "s4", "--g-gens", "(1 9)", "--gamma-gens", "(1 2)"), {}, EXIT_PARSE),
    (("compseries", "vec:nosuchgroup"), {}, EXIT_PARSE),
    (("group", "a6", "-o", "/nonexistent/dir/x.grp"), {}, EXIT_PARSE),
    (("build", "group", "z3", "-o", "/nonexistent/x.hopf"), {}, EXIT_PARSE),
    # a D(S3) dump whose first line in a section is replaced, see _bad_dump
    (("verify", "hopf", "{MULT:0 0 : 99 : 1}"), {}, EXIT_PARSE),
    (("verify", "hopf", "{UNIT:77 : 1}"), {}, EXIT_PARSE),
    (("verify", "hopf", "{COMULT:0 : 50 0 : 1}"), {}, EXIT_PARSE),
    (("verify", "hopf", "{ANTIPODE:0 : x : 1}"), {}, EXIT_PARSE),
    (("verify", "hopf", "{BASIS:zz label}"), {}, EXIT_PARSE),
    # MR_BOUND, from which on primality is not decided, is refused before it
    # is tested
    (("ledger", "ty:3317044064679887385961981"), {}, EXIT_CAP),
    # a conductor below 1, or above CONDUCTOR_CAP before its field is built
    (("verify", "hopf", "{DIM 36:CONDUCTOR 0}"), {}, EXIT_PARSE),
    (("build", "bicrossed", "s4", "--g-gens", "(1 2 3);(1 2)", "--gamma-gens", "(1 2 3 4)",
      "--conductor", "0"), {}, EXIT_PARSE),
    (("build", "bicrossed", "s4", "--g-gens", "(1 2 3);(1 2)", "--gamma-gens", "(1 2 3 4)",
      "--conductor", "-3"), {}, EXIT_PARSE),
    (("verify", "hopf", "{DIM 36:CONDUCTOR 30030}"), {}, EXIT_CAP),
    (("build", "bicrossed", "s4", "--g-gens", "(1 2 3);(1 2)", "--gamma-gens", "(1 2 3 4)",
      "--conductor", "10080"), {}, EXIT_CAP),
    # work 20,736 under the cap, but phi(1000)**2 = 160,000 coordinate
    # products in each product of its dense scalars
    (("verify", "hopf", "{DENSE:1000}"), {}, EXIT_CAP),
    # input files that are not UTF-8 text (bytes are written as they are)
    (("verify", "hopf", b"HOPF v1\n\xff\n"), {}, EXIT_PARSE),
    (("factorize", b"degree 3\n(1 2\xff)\n"), {}, EXIT_PARSE),
    # a coefficient Fraction refuses with ZeroDivisionError, not ValueError
    (("verify", "hopf", "{ANTIPODE:0 : 0 : 1/0}"), {}, EXIT_PARSE),
    # a degree above DEGREE_CAP, refused before any perm is parsed; one with
    # more digits than int() reads; a superscript digit int() does not read
    (("factorize", b"degree 10000000\n(1 2)\n"), {}, EXIT_CAP),
    (("factorize", b"degree " + b"9" * 5000 + b"\n(1 2)\n"), {}, EXIT_CAP),
    (("factorize", "degree \u00b2\n(1 2)\n".encode()), {}, EXIT_PARSE),
    # a blank builtin name, and number tokens that str.isdigit() accepts but
    # int() does not read; an empty spec, which Path("") would read as the
    # working directory
    (("table", " "), {}, EXIT_PARSE),
    (("group", "z\u00b3"), {}, EXIT_PARSE),
    (("group", "s\u00b2"), {}, EXIT_PARSE),
    (("group", "d\u00b3"), {}, EXIT_PARSE),
    (("group", "z2xz\u00b3"), {}, EXIT_PARSE),
    (("verify", "sequence", "double:"), {}, EXIT_PARSE),
    (("compseries", "vec:"), {}, EXIT_PARSE),
    # a number with more digits than int() reads; a name too long to be a
    # path; a NUL or a line break in a path
    (("group", "s" + "9" * 5000), {}, EXIT_CAP),
    (("group", "z" + "9" * 5000), {}, EXIT_CAP),
    (("verify", "hopf", "ds3\x00.hopf"), {}, EXIT_PARSE),
    (("group", "no\nsuch.grp"), {}, EXIT_PARSE),
    # degree x order above ENTRY_CAP: Z10000 refused before any perm is
    # built, and a file of one 10,000-cycle as its closure grows
    (("group", "z10000"), {}, EXIT_CAP),
    (("group", b"degree 10000\n(" + " ".join(map(str, range(1, 10001))).encode() + b")\n"),
     {}, EXIT_CAP),
    # ty: and cpq: numbers with an underscore or a blank, which int() reads
    (("ledger", "ty:1_1"), {}, EXIT_PARSE),
    (("ledger", "ty: 7"), {}, EXIT_PARSE),
    (("ledger", "cpq:3,1_1"), {}, EXIT_PARSE),
    # a group engine refusal and a point past the degree, which reach the
    # exit-code map of the CLI unwrapped
    (("table", "a7"), {}, EXIT_CAP),
    (("factorize", "a7"), {}, EXIT_CAP),
    (("verify", "sequence", "quotient:s4:(1 9)"), {}, EXIT_PARSE),
    # kS6 -> kZ2: kS6 is above the verification work cap, as in build group s6
    (("verify", "sequence", "quotient:s6:(1 2 3);(2 3 4 5 6)"), {}, EXIT_CAP),
    # a subgroup lattice above LATTICE_WORK_CAP: (Z2)^7 has 29,212 subgroups
    # and 127 cyclic ones; and (Z2)^6, whose exact factorizations found
    # number over 700,000, above FACTORIZATION_CAP
    (("table", "z2xz2xz2xz2xz2xz2xz2"), {}, EXIT_CAP),
    (("factorize", "z2xz2xz2xz2xz2xz2"), {}, EXIT_CAP),
]


def test_repeated_section_is_refused(tmp_path):
    # a second header would drop the lines read under the first
    code, text = run_cli("verify", "hopf", _bad_dump("{ANTIPODE:ANTIPODE}", tmp_path))
    assert code == EXIT_PARSE
    assert text.startswith("error: ") and text.endswith(": repeated section ANTIPODE\n")


def _dense_dump(lines: list[str], conductor: int, degree: int) -> list[str]:
    """The dump moved to this conductor, every coefficient written as
    ``degree`` ones: a valid dump whose every scalar is dense."""
    ones = " ".join(["1"] * degree)
    out, in_body = [], False
    for ln in lines:
        if ln.startswith("CONDUCTOR "):
            ln = f"CONDUCTOR {conductor}"
        elif ln in ("MULT", "COMULT", "UNIT", "COUNIT", "ANTIPODE"):
            in_body = True
        elif in_body and ln != "END":
            ln = ln.rsplit(":", 1)[0] + ": " + ones
        out.append(ln)
    return out


def _bad_dump(arg: str, tmp_path) -> str:
    """'{LINE:line}' names a D(S3) dump with the line after LINE replaced by
    line: the first line of a section, or CONDUCTOR after 'DIM 36';
    '{DENSE:N}' names it moved to conductor N with dense scalars, see
    _dense_dump.  Bytes are written to a file as they are, and its path
    returned.  Any other argument is returned as it is."""
    if isinstance(arg, bytes):
        path = tmp_path / "input"
        path.write_bytes(arg)
        return str(path)
    if not arg.startswith("{"):
        return arg
    section, _, line = arg[1:-1].partition(":")
    lines = dump_hopf(drinfeld_double(symmetric(3))).splitlines()
    if section == "DENSE":
        lines = _dense_dump(lines, int(line), get_field(int(line)).degree)
    else:
        lines[lines.index(section) + 1] = line
    path = tmp_path / "bad.hopf"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("argv, env, code", BAD_INPUTS)
def test_bad_input_gives_one_error_line(monkeypatch, tmp_path, argv, env, code):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [_bad_dump(arg, tmp_path) for arg in argv]
    first = run_cli(*argv)
    assert first[0] == code
    lines = first[1].splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert run_cli(*argv) == first


def test_a_directory_or_an_empty_spec_is_not_a_group_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s3").mkdir()
    assert run_cli("group", "s3") == (EXIT_OK, "order 6, degree 3, label S3\n")
    for argv in (("verify", "sequence", "double:"), ("compseries", "vec:")):
        assert run_cli(*argv) == (EXIT_PARSE, "error: unknown group name: ''\n")


def test_exit_code_follows_the_error_type_not_its_text(monkeypatch):
    for refuse in (lambda: check_work(HOPF_WORK_CAP + 1, 1, 1), lambda: check_conductor(1001)):
        with pytest.raises(CapExceeded):
            refuse()

    def fail(seq):
        raise HopfError("escaped the capsule")

    monkeypatch.setattr(exact, "verify_exact_sequence", fail)
    assert run_cli("verify", "sequence", "double:s3") == (EXIT_VERIFY, "error: escaped the capsule\n")


def test_cap_order_applies_to_group_files(tmp_path, monkeypatch):
    s8 = tmp_path / "s8.grp"
    s8.write_text("degree 8\n(1 2 3 4 5 6 7 8)\n(1 2)\n")
    for spec in (str(s8), "s8"):
        monkeypatch.delenv("HOPFSEQ_CAP", raising=False)
        code, text = run_cli("group", spec)
        assert code == EXIT_CAP and "cap 10000" in text
        code, text = run_cli("group", spec, "--cap-order", "50000")
        assert code == EXIT_OK and text.startswith("order 40320,")
        monkeypatch.setenv("HOPFSEQ_CAP", "50000")
        assert run_cli("group", spec) == (code, text)
    a6 = tmp_path / "a6.grp"
    a6.write_text(dump_group(alternating(6)))
    code, text = run_cli("table", str(a6), "--cap-order", "100")
    assert code == EXIT_CAP and "cap 100" in text


# every verb that verifies a Hopf algebra refuses one whose verification
# work is above HOPF_WORK_CAP before building or parsing it
OVER_HOPF_CAP = [
    ("build", "double", "a5"),
    ("build", "group", "s6"),
    ("build", "dual", "s6"),
    ("build", "bicrossed", "s6", "--g-gens", "(1 2 3 4 5);(1 2)",
     "--gamma-gens", "(1 2 3 4 5 6)"),
    ("verify", "hopf", "{huge}"),
]


# no tensors follow, and no END, so the dim**2 pairs alone must exceed the cap
HEADER_ONLY_DUMP = "HOPF v1\nDIM 10000\nCONDUCTOR 1\nBASIS\n"


@pytest.mark.parametrize("argv", OVER_HOPF_CAP)
def test_hopf_dim_cap_refuses_at_once(tmp_path, argv):
    huge = tmp_path / "huge.hopf"
    huge.write_text(HEADER_ONLY_DUMP)
    code, text = run_cli(*(a.format(huge=huge) for a in argv))
    assert code == EXIT_CAP
    lines = text.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: dimension ")
    assert lines[0].endswith(f" exceeds cap {HOPF_WORK_CAP}")


# dumps whose dimension is under the cap but whose tensors are not: 30
# dense rows of mult at dim 1000 (about 6e7 triples), and one Delta(e_0) of
# 4000 terms at dim 300 (3.2e7 coassociativity terms).  Their scalars do not
# parse, so a refusal shows that the cap is read before the full parse.
DENSE_DUMPS = {
    "mult": (1000, [f"{i} {j} : 0 : x" for i in range(30) for j in range(1000)], []),
    "comult": (300, [], [f"0 : {j % 300} {j // 300} : x" for j in range(4000)]),
}


def _dense_text(which: str) -> str:
    dim, mult, comult = DENSE_DUMPS[which]
    return "\n".join(["HOPF v1", f"DIM {dim}", "CONDUCTOR 1", "BASIS", "MULT", *mult,
                      "COMULT", *comult, "UNIT", "COUNIT", "ANTIPODE", "END"]) + "\n"


@pytest.mark.parametrize("which", sorted(DENSE_DUMPS))
def test_hopf_work_cap_reads_the_tensor_lines(tmp_path, which):
    dim = DENSE_DUMPS[which][0]
    path = tmp_path / "dense.hopf"
    path.write_text(_dense_text(which))
    code, text = run_cli("verify", "hopf", str(path))
    assert code == EXIT_CAP
    assert text.startswith(f"error: dimension {dim}: verification work ")
    assert text.endswith(f" exceeds cap {HOPF_WORK_CAP}\n") and text.count("\n") == 1


@pytest.mark.parametrize("which", ["header-only", *sorted(DENSE_DUMPS)])
def test_load_hopf_refuses_over_cap_before_any_scalar(which):
    # the library reader checks the work first: before END (missing in the
    # header-only dump) and before the scalars (which do not parse in the
    # dense dumps)
    text = HEADER_ONLY_DUMP if which == "header-only" else _dense_text(which)
    with pytest.raises(HopfCapExceeded, match=f" exceeds cap {HOPF_WORK_CAP}$"):
        load_hopf(text)


def test_closed_stdout_exits_141_without_a_traceback():
    # the read end is closed before the process starts, so its first write
    # fails whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "hopfseq.cli", "ledger", "ty:7"],
                              stdout=write_end, stderr=subprocess.PIPE, env=source_env(),
                              timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")  # 128 + SIGPIPE


# (argv, exit code, stdout): one case for each exit code of the process
# entry, stdout a pipe, /dev/full or closed at start; "bad.hopf" is a D(S3)
# dump with one retargeted MULT entry
ENTRY_CASES = [
    (("factorize", "s4"), EXIT_OK, "pipe"),
    (("verify", "hopf", "bad.hopf"), EXIT_VERIFY, "pipe"),
    (("build",), EXIT_PARSE, "pipe"),
    (("build", "group", "z576"), EXIT_CAP, "pipe"),
    (("factorize", "s4"), EXIT_PARSE, "full"),
    (("--version",), EXIT_PARSE, "closed"),
]


@pytest.mark.parametrize("argv, code, stdout", ENTRY_CASES)
def test_the_process_ends_as_main_returns(capsys, monkeypatch, tmp_path, argv, code, stdout):
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    if "bad.hopf" in argv:
        bad = tmp_path / "bad.hopf"
        bad.write_text(_retargeted_mult(dump_hopf(drinfeld_double(symmetric(3))), random.Random(1)))
        argv = [str(bad) if arg == "bad.hopf" else arg for arg in argv]
    if stdout == "full":
        sink = open("/dev/full", "w")
        assert main(argv, out=sink) == code
        with contextlib.suppress(OSError):  # the text main could not write
            sink.close()
    else:
        with monkeypatch.context() as patch:
            if stdout == "closed":
                patch.setattr(sys, "stdout", None)
            assert main(argv) == code
    want = capsys.readouterr()
    if stdout != "pipe":
        assert want.err.startswith("error: cannot write stdout: ")
    fd = os.open("/dev/full", os.O_WRONLY) if stdout == "full" else subprocess.PIPE
    try:
        done = subprocess.run([sys.executable, "-m", "hopfseq.cli", *argv], stdout=fd,
                              stderr=subprocess.PIPE, env=source_env(), timeout=60,
                              preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None)
    finally:
        if stdout == "full":
            os.close(fd)
    assert (done.returncode, done.stdout or b"", done.stderr) == (
        code, want.out.encode(), want.err.encode())


def test_a_dump_written_by_the_process_verifies(tmp_path):
    target = tmp_path / "ds3.hopf"
    done = subprocess.run([sys.executable, "-m", "hopfseq.cli", "build", "double", "s3",
                           "-o", str(target)],
                          capture_output=True, text=True, env=source_env(), timeout=60)
    assert (done.returncode, done.stdout) == (
        EXIT_OK, f"dim 36, conductor 1, axioms PASS\nwrote {target}\n")
    assert hopf.verify_hopf_axioms(load_hopf(target.read_text())).ok
    assert run_cli("verify", "hopf", str(target)) == (EXIT_OK, "dim 36: all Hopf axioms PASS\n")


def test_build_double_verifies_once(monkeypatch):
    # bicrossed_product checks the bialgebra families and solve_antipode the
    # antipode ones; cmd_build must not run either pass again
    calls = {"_violations": 0, "_antipode_violations": 0}
    for name in calls:
        original = getattr(hopf, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(hopf, name, counted)
    assert run_cli("build", "double", "s3") == (EXIT_OK, "dim 36, conductor 1, axioms PASS\n")
    assert calls == {"_violations": 1, "_antipode_violations": 1}


def _retargeted_mult(text: str, rng: random.Random) -> str:
    """The dump with one MULT line 'i j : k : c' sent to another basis index."""
    lines = text.split("\n")
    dim = int(next(ln for ln in lines if ln.startswith("DIM "))[4:])
    at = rng.randrange(lines.index("MULT") + 1, lines.index("COMULT"))
    head, _, rest = lines[at].partition(":")
    k, _, coeff = rest.partition(":")
    lines[at] = f"{head}: {rng.choice([x for x in range(dim) if x != int(k)])} :{coeff}"
    return "\n".join(lines)


def _antipode_changed(text: str) -> str:
    """The dump with S(e_3) = e_4 scaled by 2: two antipode violations."""
    assert "\n3 : 4 : 1\n" in text
    return text.replace("\n3 : 4 : 1\n", "\n3 : 4 : 2\n")


@pytest.mark.parametrize("corrupt, many", [
    (lambda text: _retargeted_mult(text, random.Random(1)), True),
    (_antipode_changed, False),
])
def test_verify_hopf_prints_the_first_20_violations(tmp_path, corrupt, many):
    path = tmp_path / "bad.hopf"
    path.write_text(corrupt(dump_hopf(drinfeld_double(symmetric(3)))))
    violations = hopf.verify_hopf_axioms(load_hopf(path.read_text())).violations
    assert (len(violations) > 20) == many and violations
    assert run_cli("verify", "hopf", str(path)) == (
        EXIT_VERIFY, "".join(f"FAIL {v}\n" for v in violations[:20]))


@pytest.mark.parametrize("section", ("MULT", "UNIT", "COUNIT", "ANTIPODE"))
def test_a_repeated_dump_line_is_summed_in_every_section(tmp_path, section):
    # the first line of the section doubled: its coefficient sums to 2,
    # which breaks the axioms of kZ2
    lines = dump_hopf(group_algebra(cyclic(2))).splitlines()
    at = lines.index(section) + 1
    lines.insert(at, lines[at])
    path = tmp_path / "twice.hopf"
    path.write_text("\n".join(lines) + "\n")
    code, text = run_cli("verify", "hopf", str(path))
    assert code == EXIT_VERIFY
    assert text and all(ln.startswith("FAIL ") for ln in text.splitlines())


S4_TIMES_S4 = "degree 8\n(1 2 3 4)\n(1 2)\n(5 6 7 8)\n(5 6)\n"


def test_trivial_cocycles_are_not_weighed_by_the_conductor(tmp_path):
    # work 17,252,352: under the cap over Q, above it when weighed by
    # phi(3)**2 = 4; with trivial cocycles every coefficient is one
    grp = tmp_path / "s4s4.grp"
    grp.write_text(S4_TIMES_S4)
    assert run_cli("build", "bicrossed", str(grp), "--g-gens", "(1 2 3 4);(1 2)",
                   "--gamma-gens", "(5 6 7 8);(5 6)", "--conductor", "3") == (
        EXIT_OK, "dim 576, conductor 3, axioms PASS\n")


@pytest.mark.parametrize("kind, dim", [("group", 6), ("dual", 6), ("double", 36)])
def test_build_takes_the_conductor(tmp_path, kind, dim):
    path = tmp_path / "s3.hopf"
    assert run_cli("build", kind, "s3", "--conductor", "3", "-o", str(path)) == (
        EXIT_OK, f"dim {dim}, conductor 3, axioms PASS\nwrote {path}\n")
    assert load_hopf(path.read_text()).field.conductor == 3
    assert run_cli("verify", "hopf", str(path)) == (EXIT_OK, f"dim {dim}: all Hopf axioms PASS\n")


def test_hopf_dim_cap_accepts_double_a4():
    assert bicrossed_work(12, 12) <= HOPF_WORK_CAP
    assert run_cli("build", "double", "a4") == (EXIT_OK, "dim 144, conductor 1, axioms PASS\n")


def test_group_file_round_trip(tmp_path):
    G = alternating(6)
    path = tmp_path / "a6.grp"
    path.write_text(dump_group(G))
    back = load_group(path.read_text())
    assert back == G
    code, text = run_cli("table", str(path), "--format", "csv")
    assert code == EXIT_OK
    assert len(text.strip().splitlines()) == 23


def test_hopf_dump_round_trip_bit_exact():
    H = drinfeld_double(symmetric(3))
    text = dump_hopf(H)
    back = load_hopf(text)
    assert structure_equal(back, H)
    assert back.basis_labels == H.basis_labels
    assert dump_hopf(back) == text


# coefficient tokens: integers, which load_hopf reads with int(), and the
# rest, which it reads with Fraction()
TOKENS = ["0", "-7", "+7", "007", "-0", "1/2", "-2/4", "0.5", "1e3", "1_000", "x", "1/0",
          "\u00b2", "\u0663", "--1", "+-1", "9" * 5000, ""]


@pytest.mark.parametrize("tok", TOKENS)
def test_coefficient_tokens_read_as_fraction_reads_them(tok):
    lines = dump_hopf(group_algebra(cyclic(2))).splitlines()
    at = lines.index("COUNIT") + 1
    lines[at] = f"0 : {tok}"
    text = "\n".join(lines) + "\n"
    try:
        want = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        reason = f"bad rational {tok!r}" if tok else "need 1 coordinates, got 0"
        with pytest.raises(FormatError) as err:
            load_hopf(text)
        assert str(err.value) == f"line {at + 1}: {reason}"
        return
    (got,) = load_hopf(text).counit[0].coords
    assert got == want and type(got) is (int if want.denominator == 1 else Fraction)


def test_truncated_hopf_dump_names_missing_section():
    H = group_algebra(symmetric(3))
    text = dump_hopf(H)
    cut = text[:text.index("ANTIPODE")]
    with pytest.raises(FormatError) as err:
        load_hopf(cut)
    assert "ANTIPODE" in str(err.value) or "END" in str(err.value)


def test_malformed_group_file_line_numbers():
    with pytest.raises(FormatError) as err:
        load_group("degree 3\n(1 2 9)\n")
    assert "line 2" in str(err.value)
