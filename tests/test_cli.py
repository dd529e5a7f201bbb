import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import umbral
from umbral.cli import ExprContext, main, parse_series, render
from umbral.core import Workspace
from umbral.errors import ParseError, UnknownAtom
from umbral.series import Series


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def ctx():
    ws = Workspace(order=8)
    ws.define("a", [1] + [Fraction(k) for k in range(1, 9)])
    ws.define("b", [1] + [Fraction(1, k) for k in range(1, 9)])
    ws.define("g", [1] + [Fraction(2)] * 8)
    return ExprContext(ws)


# transcriptions of the displayed umbral identities, one expression each
CORPUS = [
    "E[(a + a')^2]",          # binomial convolution of a with a clone
    "(3.u)^2",                # integer point multiple of the unity umbra
    "E[(bell)^3]",            # Bell umbra third moment
    "2.a",                    # point multiple
    "x.a",                    # indeterminate point multiple
    "b.a",                    # umbral point multiple
    "a^.2",                   # point power
    "inv(a)",                 # inverse umbra
    "bell",                   # Bell scalar umbra
    "bell(x)",                # Bell polynomial umbra
    "part(a)",                # partition umbra
    "comp(g,a)",              # composition umbra
    "bar(a)",                 # shifted-moment umbra
    "a - 2.b",                # subtraction as inverse-umbra addition
    "(a + 2.b)^3",            # powered sum
    "x * (x.bell + u)^2",     # scaled-Bell recursion right side
    "bell + u",               # Bell recursion right side base
    "2.(5.a)",                # iterated multiples
    "a' * a''",               # product of distinct clones
    "b.(g.a)",                # associativity left side
    "(b.g).a" if False else "comp(g,u)",  # composition with unity
    "(a + b)^.3",             # point power of a materialized sum
    "u + eps",                # built-ins
    "3.bell",                 # integer multiple of the Bell umbra
    "E[(a - 3.g)^2]",         # Abel-style mixed term
    "x.part(a)",              # scaled partition umbra via dot
]


def test_corpus_round_trips(ctx):
    assert len(CORPUS) >= 20
    for text in CORPUS:
        tree = ctx.parse(text)
        rendered = render(tree)
        again = ctx.parse(rendered)
        assert again == tree, (text, rendered)
        assert render(again) == rendered
        # every expression evaluates at first power without error
        ctx.ws.eval(tree, 1)


def test_same_descriptor_resolves_to_one_atom(ctx):
    for text in ["2.a", "a'", "inv(2.b)", "x.a", "b.a", "a^.2", "part(a)",
                 "comp(g,a)", "bar(a)", "bell", "bell(x)", "bell(3)", "2.(a+b)"]:
        assert ctx.parse(text) == ctx.parse(text), text
    # a clone differs from its base
    assert ctx.parse("a'") != ctx.parse("a")


def test_distinct_descriptors_stay_distinct(ctx):
    # an umbra operand is keyed by identity, never confused with an integer
    assert ctx.ws.lookup("a").uid == 3
    assert ctx.parse("3.g") != ctx.parse("a.g")
    assert ctx.parse("bell(3)") != ctx.parse("3.bell")
    assert ctx.parse("a'") != ctx.parse("a''")
    assert ctx.parse("a''") == ctx.parse("a''")


def test_parser_examples(ctx):
    ws = ctx.ws
    assert ws.eval(ctx.parse("E[(3.u)^2]"), 1) == 9
    assert ws.eval(ctx.parse("E[(bell)^3]"), 1) == 5
    # E[(a + 2.b)^3] is the cube of a sum with a point multiple
    tree = ctx.parse("E[(a + 2.b)^3]")
    lhs = ws.eval(tree, 1)
    a, d2b = ctx.parse("a"), ctx.parse("2.b")
    from math import comb
    rhs = sum(comb(3, i) * ws.eval(a, i) * ws.eval(d2b, 3 - i) for i in range(4))
    assert lhs == rhs


def test_parse_errors_carry_offsets(ctx):
    with pytest.raises(ParseError) as exc:
        ctx.parse("a + ]")
    assert exc.value.offset == 4
    with pytest.raises(UnknownAtom):
        ctx.parse("nope")
    with pytest.raises(ParseError):
        ctx.parse("a +")
    with pytest.raises(ParseError):
        ctx.parse("a @ b")


def test_series_mini_parser():
    h = parse_series("t*exp(-t)", 8)
    assert h.coeffs[1] == 1 and h.coeffs[2] == -1
    assert parse_series("1/2*t + t^2", 6).coeffs[1] == Fraction(1, 2)
    assert parse_series("exp(t) - 1", 5) == Series.expm1_t(5)
    assert parse_series("(1 + t)^-1", 4).coeffs[3] == -1


# -- subcommands ------------------------------------------------------------------


def test_bell_and_stirling_commands():
    code, out, _ = run("bell", "-n", "5")
    assert code == 0 and json.loads(out)["bell"] == "52"
    code, out, _ = run("stirling", "--kind", "second", "-n", "4", "-k", "2")
    assert code == 0 and json.loads(out)["value"] == "7"
    code, out, _ = run("stirling", "--kind", "first_signed", "-n", "3", "-k", "1")
    assert json.loads(out)["value"] == "2"
    code, out, _ = run("bellpoly", "-n", "3", "-k", "2", "--moments", "1,2")
    assert json.loads(out)["partial_bell"] == "6"
    code, out, _ = run("bellpoly", "-n", "3", "--moments", "1,1,1")
    assert json.loads(out)["complete_bell"] == "5"


def test_eval_and_gf_commands():
    code, out, _ = run("eval", "E[(3.u)^2]")
    assert code == 0 and json.loads(out)["value"] == "9"
    code, out, _ = run("gf", "bell", "--order", "6")
    doc = json.loads(out)
    assert doc["gf"]["coeffs"][3] == "5/6"


def test_check_command_exit_codes():
    code, out, _ = run("check", "thm2_bell_recursion")
    assert code == 0 and json.loads(out)[0]["pass"]
    code, out, _ = run("check", "remark1_left_dist_counterexample")
    doc = json.loads(out)
    assert code == 0 and doc[0]["designed_counterexample"]
    # an impossible parameterization fails and flips the exit status
    code, out, _ = run("check", "remark1_left_dist_counterexample", "-n", "0")
    assert code == 1
    code, _, err = run("check", "does_not_exist")
    assert code == 2 and "UnknownIdentity" in err


def test_invert_command():
    code, out, _ = run("invert", "--series", "t*exp(-t)", "--order", "8")
    doc = json.loads(out)
    assert code == 0 and doc["agree"] and doc["chi_ok"]
    assert doc["gamma_moments_umbral"][:5] == ["1", "1", "2", "9", "64"]
    assert doc["chi_moments"][:3] == ["1", "1", "0"]


def test_invert_unital_input_accepted():
    code, out, _ = run("invert", "--series", "1 + t", "--order", "5")
    doc = json.loads(out)
    assert code == 0 and doc["gamma_moments_umbral"] == ["1", "1", "0", "0", "0", "0"]


def test_mc_command():
    code, out, _ = run("mc", "--model", "poisson", "--lambda", "1",
                       "--n", "50000", "--seed", "42")
    doc = json.loads(out)
    assert code == 0 and doc["pass"]
    assert doc["rows"][2]["exact"] == "5"
    code, out, _ = run("mc", "--model", "randomized", "--param", "1:1/2,2:1/2",
                       "--n", "30000", "--seed", "9", "--max-order", "3")
    assert code == 0 and json.loads(out)["pass"]


EXACT_COMMANDS = [
    ["eval", "E[(3.u)^2]"], ["gf", "bell", "--order", "6"],
    ["check", "thm2_bell_recursion"], ["invert", "--series", "t*exp(-t)"],
    ["bell", "-n", "5"], ["stirling", "--kind", "second", "-n", "4", "-k", "2"],
    ["bellpoly", "-n", "3", "--moments", "1,1,1"], ["--format", "text", "bell", "-n", "6"],
]


def test_exact_commands_leave_numpy_unimported(tmp_path):
    # numpy serves the Monte Carlo lab only, and importing it costs more
    # than importing the rest of the package
    argvs = EXACT_COMMANDS + [
        ["define", "a", "1,1,2,6", "--workspace", str(tmp_path / "ws.json")]]
    script = (
        "import umbral, umbral.cli, sys; assert 'numpy' not in sys.modules\n"
        "import contextlib, io\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert umbral.cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n")
    src = str(Path(umbral.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_workspace_file_round_trip(tmp_path):
    wsf = str(tmp_path / "ws.json")
    code, out, _ = run("define", "a", "1,1,2,6", "--workspace", wsf)
    assert code == 0
    data = json.loads(open(wsf).read())
    assert data["umbrae"]["a"][:4] == ["1", "1", "2", "6"]
    code, out, _ = run("--workspace", wsf, "eval", "E[(a + a')^2]")
    assert code == 0 and json.loads(out)["value"] == "6"
    code, out, _ = run("define", "c", "1,1/2", "--workspace", wsf)
    assert code == 0 and "c" in json.loads(out)["umbrae"]


def test_order_environment_variable(monkeypatch):
    monkeypatch.setenv("UMBRAL_ORDER", "6")
    code, out, _ = run("gf", "u")
    assert json.loads(out)["gf"]["order"] == 6
    code, out, _ = run("gf", "u", "--order", "4")
    assert json.loads(out)["gf"]["order"] == 4


def test_error_reporting():
    code, _, err = run("eval", "E[(zzz)^2]")
    assert code == 2 and json.loads(err)["error"] == "UnknownAtom"
    code, _, err = run("eval", "E[(u +")
    assert code == 2 and "offset" in json.loads(err)
    code, _, err = run("mc", "--model", "compound", "--lambda", "1",
                       "--jumps", "1:1/2,2:1/3", "--n", "10")
    assert code == 2 and json.loads(err)["error"] == "InvalidDistribution"
    code, _, err = run("eval", "E[u^2 + u']", "-k", "8")
    assert json.loads(err)["message"] == "moment 16 of u exceeds order 12"


@pytest.mark.parametrize("argv", [
    ("mc", "--model", "poisson", "--lambda", "1/0"),
    ("mc", "--model", "poisson", "--lambda", "1e400"),
    ("mc", "--model", "compound", "--lambda", "1", "--jumps", "1e400:1",
     "--n", "10"),
    ("eval", "E[" + "(" * 3000 + "u" + ")" * 3000 + "]"),
    ("eval", "E[u^2 + u']", "-k", "8"),
    ("eval", "-u"),
    ("bell",),
    # a dict or a list stands for a workspace file with that content
    ("--workspace", {"order": 3, "indeterminates": ["x"],
                     "umbrae": {"a": ["1", {"z": "1"}, "2", "3"]}}, "eval", "E[a]"),
    ("--workspace", {"order": 3, "indeterminates": ["x y"], "umbrae": {}}, "eval", "u"),
    ("--workspace", {"order": 3, "indeterminates": ["1x"], "umbrae": {}}, "eval", "u"),
    # workspace files of the wrong shape
    ("--workspace", {"umbrae": {"a": ["1", [1]]}}, "eval", "u"),
    ("--workspace", {"order": "3"}, "eval", "u"),
    ("--workspace", {"indeterminates": 5}, "eval", "u"),
    ("--workspace", {"umbrae": ["a"]}, "eval", "u"),
    ("--workspace", ["a"], "eval", "u"),
    ("--workspace", {"umbrae": {"a": "12"}}, "eval", "E[a]"),
    ("--workspace", {"umbrae": ["a"]}, "define", "c", "1,2"),
])
def test_bad_inputs_exit_2_with_json_error(argv, tmp_path):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, (dict, list)):
            argv[i] = str(tmp_path / "ws.json")
            Path(argv[i]).write_text(json.dumps(arg))
    code, out, err = run(*argv)
    assert code == 2 and not out
    assert set(json.loads(err)) == {"error", "message"}


def test_usage_errors_are_json_but_help_is_text():
    code, _, err = run("bell")
    assert code == 2 and json.loads(err) == {
        "error": "UsageError", "message": "the following arguments are required: -n"}
    code, out, err = run("bell", "--help")
    assert code == 0 and out.startswith("usage: umbral bell") and not err


# Each digit ends in a space: numbers stay below 4, so expansions stay small.
_TOKENS = ["u", "eps", "a", "x", "bell", "inv", "E", "'", ".", "^", "^.",
           "+", "-", "*", "(", ")", "[", "]", ",", "0 ", "1 ", "2 ", "3 "]


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=10).map("".join),
                      st.text(max_size=12)),
       command=st.sampled_from(["eval", "gf"]),
       k=st.integers(-1, 5))
def test_cli_fuzz_never_tracebacks(text, command, k):
    argv = ["--order", "4", command] + (["-k", str(k)] if command == "eval" else [])
    code, out, err = run(*argv, "--", text)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert "error" in json.loads(err)
    else:
        json.loads(out)


def test_text_format():
    code, out, _ = run("--format", "text", "bell", "-n", "6")
    assert code == 0 and "bell: 203" in out


def test_output_determinism():
    a = run("check", "abel", "--trials", "2")[1]
    b = run("check", "abel", "--trials", "2")[1]
    assert a == b
    a = run("mc", "--model", "poisson", "--lambda", "2", "--n", "20000",
            "--seed", "5")[1]
    b = run("mc", "--model", "poisson", "--lambda", "2", "--n", "20000",
            "--seed", "5")[1]
    assert a == b
