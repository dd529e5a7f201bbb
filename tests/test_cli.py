import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

import umbral
import umbral.identities
import umbral.inversion
from umbral import ops
from umbral.cli import ExprContext, _tokenize, main, parse_series, render
from umbral.core import Workspace
from umbral.errors import OrderExceeded, ParseError, UnknownAtom
from umbral.identities import check_all
from umbral.series import Series

from oracles import mul_t


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _python(*args):
    """A fresh interpreter with this ``umbral`` first on its path."""
    src = str(Path(umbral.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def context(order=8):
    ws = Workspace(order=order)
    ws.define("a", [1] + [Fraction(k) for k in range(1, order + 1)])
    ws.define("b", [1] + [Fraction(1, k) for k in range(1, order + 1)])
    ws.define("g", [1] + [Fraction(2)] * order)
    return ExprContext(ws)


@pytest.fixture
def ctx():
    return context()


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
    "comp(g,u)",              # composition with unity
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
    # a sum nested in a sum renders flat: the text and the moments round
    # trip, the tree does not
    nested = ctx.parse("(a + b) + g")
    flat = ctx.parse(render(nested))
    assert render(nested) == render(flat) == "a + b + g" and flat != nested
    assert [ctx.ws.eval(flat, k) for k in range(4)] == [ctx.ws.eval(nested, k) for k in range(4)]


def test_a_power_of_a_power_round_trips(ctx):
    # the inner power is parenthesized, so the rendering reparses to the same tree
    for text in ["(u^2)^3", "((a + b)^2)^2", "(2.a^2)^2", "(x * a^2)^2"]:
        tree = ctx.parse(text)
        rendered = render(tree)
        assert ctx.parse(rendered) == tree, (text, rendered)
        assert [ctx.ws.eval(ctx.parse(rendered), k) for k in range(2)] == \
            [ctx.ws.eval(tree, k) for k in range(2)]
    code, out, _ = run("eval", "E[(u^2)^3]")
    assert code == 0 and json.loads(out)["expr"] == "(u^2)^3"


def expressions(depth):
    """Strings in the grammar, nested ``depth`` deep: sums, '-', products,
    powers, the n., x. and a. dots, point powers, inv, part, comp and E[...]."""
    leaf = st.sampled_from(["a", "b", "g", "u", "x"])
    if not depth:
        return leaf
    e, n = expressions(depth - 1), st.integers(0, 2)
    return st.one_of(
        leaf,
        st.tuples(e, st.sampled_from([" + ", " - ", " * "]), e).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(e, n).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(e, n).map(lambda t: f"({t[0]})^.{t[1]}"),
        st.tuples(st.sampled_from(["0", "2", "3", "x", "a"]), e).map(lambda t: f"{t[0]}.({t[1]})"),
        st.tuples(st.sampled_from(["inv", "part", "E"]), e).map(
            lambda t: f"E[{t[1]}]" if t[0] == "E" else f"{t[0]}({t[1]})"),
        st.tuples(e, e).map(lambda t: f"comp({t[0]}, {t[1]})"))


@settings(max_examples=100, deadline=None)
@given(text=expressions(3))
def test_a_generated_expression_round_trips(text):
    # the rendering reparses in the same context, renders the same and has
    # the same moments
    ctx = context(order=6)
    try:
        tree = ctx.parse(text)
    except OrderExceeded:
        reject()  # a materialized operand needs moments past the order
    rendered = render(tree)
    again = ctx.parse(rendered)
    assert render(again) == rendered
    assert moments(ctx.ws, again) == moments(ctx.ws, tree)


def moments(ws, tree) -> list:
    """E[tree^k] for k <= 2, or the message of a moment past the order."""
    out = []
    for k in range(3):
        try:
            out.append(ws.eval(tree, k))
        except OrderExceeded as exc:
            out.append(str(exc))
    return out


def test_same_descriptor_resolves_to_one_atom(ctx):
    for text in ["2.a", "a'", "inv(2.b)", "x.a", "b.a", "a^.2", "part(a)",
                 "comp(g,a)", "bar(a)", "bell", "bell(x)", "bell(3)", "2.(a+b)"]:
        assert ctx.parse(text) == ctx.parse(text), text
    # a clone differs from its base
    assert ctx.parse("a'") != ctx.parse("a")
    # operands that render alike are one umbra, whatever their trees
    left, right = ctx.parse("2.((a + b) + g) + 2.(a + (b + g))").parts
    assert left is right


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
    code, out, _ = run("stirling", "-n", "1200", "-k", "1199")
    assert code == 0 and json.loads(out)["value"] == "719400"
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


def test_check_command_exit_codes(monkeypatch):
    code, out, _ = run("check", "thm2_bell_recursion")
    assert code == 0 and json.loads(out)[0]["pass"]
    code, out, _ = run("check", "remark1_left_dist_counterexample")
    doc = json.loads(out)
    assert code == 0 and doc[0]["designed_counterexample"]
    # an impossible parameterization is a usage error, not a failed check
    code, out, err = run("check", "remark1_left_dist_counterexample", "-n", "1")
    assert code == 2 and not out and "UsageError" in err
    code, _, err = run("check", "does_not_exist")
    assert code == 2 and "UnknownIdentity" in err
    # a failed identity flips the exit status: prop1 (i) inverts n.a with
    # the falling factorials of n + 1
    real = umbral.identities.falling_factorials
    monkeypatch.setattr(umbral.identities, "falling_factorials",
                        lambda value, n: real(value + 1, n))
    code, out, _ = run("check", "prop1_i_v")
    assert code == 1 and not json.loads(out)[0]["pass"]


def test_invert_command():
    code, out, _ = run("invert", "--series", "t*exp(-t)", "--order", "8")
    doc = json.loads(out)
    assert set(doc) == {"order", "gamma_moments", "chi_moments", "pass", "witness"}
    assert code == 0 and doc["pass"] and doc["witness"] is None
    assert doc["gamma_moments"][:5] == ["1", "1", "2", "9", "64"]
    assert doc["chi_moments"][:3] == ["1", "1", "0"]


def test_invert_command_on_an_x_carrying_umbra(tmp_path):
    # the workspace route reverts a series whose moments carry x
    wsf = tmp_path / "ws.json"
    moments = ["1", "2"] + [{"1": f"1/{k}", "x": "1"} for k in range(2, 11)]
    wsf.write_text(json.dumps({"order": 10, "indeterminates": ["x"], "umbrae": {"a": moments}}))
    code, out, _ = run("--workspace", str(wsf), "invert", "--name", "a")
    doc = json.loads(out)
    assert code == 0 and doc["pass"] and doc["witness"] is None
    assert isinstance(doc["gamma_moments"][2], dict)  # carries x


def test_check_reports_an_engine_fault_as_a_failed_check(monkeypatch):
    # a series kernel that is wrong at p = 3 makes registration of 3.a raise
    # CoherenceError: a failed check (exit 1), not a usage error (exit 2),
    # and `check all` goes on to the other entries
    pow_int = Series.pow_int

    def faulty(self, p):
        out = pow_int(self, p)
        return out + Series.t(out.order) if p == 3 else out

    monkeypatch.setattr(Series, "pow_int", faulty)
    code, out, err = run("check", "eq11_gf_power")
    [case] = json.loads(out)
    assert code == 1 and err == "" and not case["pass"]
    assert set(case["witness"]) == {"statement", "atom", "k", "moment", "gf_moment", "order"}
    assert case["witness"]["atom"] == "3.a" and case["witness"]["k"] == "1"
    code, out, err = run("check", "all", "--trials", "1", "-n", "4")
    assert code == 1 and err == "" and len(json.loads(out)) == 31


@pytest.mark.parametrize("method, argv, atom", [
    ("compose", ["mc", "--model", "poisson", "--lambda", "1", "--n", "1000"], "L.part(J)"),
    ("exp", ["gf", "part(u)"], "part(u)"),
    ("exp", ["eval", "E[part(u) + u]", "-k", "2"], "part(u)"),
])
def test_every_command_reports_an_engine_fault_as_a_failed_check(monkeypatch, method,
                                                                argv, atom):
    # a wrong series kernel makes a registration raise CoherenceError, which
    # main reports for every command as a failed check: exit 1 with the
    # witness on stdout, not an input error (exit 2)
    real = getattr(Series, method)
    monkeypatch.setattr(Series, method,
                        lambda self, *a: real(self, *a) + Series.t(self.order))
    code, out, err = run(*argv)
    doc = json.loads(out)
    assert code == 1 and err == "" and doc["ok"] is False
    assert set(doc["witness"]) == {"statement", "atom", "k", "moment", "gf_moment", "order"}
    assert doc["witness"]["atom"] == atom


PARTIAL_BELL = "E[chi^n] != sum_k C(n,k) a_1^k g_k E[(k.bar)^{n-k}]"
ABEL = "E[chi^n] != sum_k C(n,k) E[chi (chi - k.bar)^{k-1}] E[(k.bar')^{n-k}]"
CHI = "comp(gamma, a) moments != (1, 1, 0, ..., 0)"


@pytest.mark.parametrize("name, fault, statement, n", [
    # a_1 one too large in the partial-Bell expansion alone
    ("rational", lambda real: lambda c: real(c) + 1, PARTIAL_BELL, 1),
    # C(3,2) one off: both expansions fail at n = 3, the partial-Bell first
    ("comb", lambda real: lambda n, k: real(n, k) + ((n, k) == (3, 2)), PARTIAL_BELL, 3),
    # the Abel factor built on +k.bar, not -k.bar
    ("dot", lambda real: lambda ws, k, bar: real(ws, abs(k), bar), ABEL, 2),
    # chi built as comp(a, a), not comp(gamma, a)
    ("composition_umbra", lambda real: lambda ws, gamma, alpha: real(ws, alpha, alpha),
     CHI, None),
], ids=["partial_bell", "comb", "abel", "chi"])
def test_invert_exit_status_reads_every_check(monkeypatch, name, fault, statement, n):
    # faults that every registration accepts, each making one claim false:
    # exit 1, with the first false claim as the witness
    monkeypatch.setattr(umbral.inversion, name, fault(getattr(umbral.inversion, name)))
    code, out, err = run("invert", "--series", "t*exp(-t)", "--order", "6")
    doc = json.loads(out)
    assert code == 1 and err == "" and doc["pass"] is False
    assert doc["witness"]["statement"] == statement
    assert doc["witness"].get("n") == n
    assert doc["witness"]["lhs"] != doc["witness"]["rhs"]
    if statement == CHI:
        assert doc["witness"]["rhs"] == ["1", "1", "0", "0", "0", "0", "0"]


def test_check_thm8_names_the_failing_expansion_and_trial(monkeypatch):
    # a_1 one too large wherever a_1 != 1: the tree case (a_1 = 1) holds and
    # the first random trial fails its partial-Bell expansion at n = 1
    real = umbral.inversion.rational
    monkeypatch.setattr(umbral.inversion, "rational", lambda c: real(c) + (real(c) != 1))
    code, out, _ = run("check", "thm8_lagrange")
    [case] = json.loads(out)
    assert code == 1 and not case["pass"]
    assert case["witness"] == {"statement": PARTIAL_BELL, "lhs": "1", "rhs": "2/3",
                               "trial": 0, "n": 1}


def test_invert_reports_a_broken_reversion_as_a_failed_check(monkeypatch):
    # a wrong reversion makes revert_umbral's registration raise
    # CoherenceError: a failed check (exit 1), not a usage error (exit 2)
    revert = Series.revert

    def faulty(self):
        return revert(self) + mul_t(Series.t(self.order))

    monkeypatch.setattr(Series, "revert", faulty)
    code, out, err = run("invert", "--series", "t*exp(-t)", "--order", "6")
    doc = json.loads(out)
    assert code == 1 and err == "" and doc["ok"] is False
    assert set(doc["witness"]) == {"statement", "atom", "k", "moment", "gf_moment", "order"}
    assert doc["witness"]["atom"] == "lag(f)" and doc["witness"]["k"] == "2"


def test_invert_unital_input_accepted():
    code, out, _ = run("invert", "--series", "1 + t", "--order", "5")
    doc = json.loads(out)
    assert code == 0 and doc["gamma_moments"] == ["1", "1", "0", "0", "0", "0"]


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
        "    assert 'numpy' not in sys.modules, argv\n"
        # the models and their exact moments load no numpy: only a draw does
        "import umbral.poisson as p\n"
        "d = p.DiscreteDist((1, 2), ('1/2', '1/2'))\n"
        "for m in (p.PoissonModel(1), p.CompoundModel(1, d), p.RandomizedModel(d),\n"
        "          p.RandomizedCompoundModel(d, d)):\n"
        "    p.exact_moments(m, 4)\n"
        "assert 'numpy' not in sys.modules\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_overflowing_draws_report_one_json_error():
    # numpy's overflow warnings would reach stderr ahead of the JSON error;
    # an in-process run cannot show that, since pytest captures warnings
    # 1e305 jumps: finite draws whose variance overflows; 1e308: a draw past
    # the largest float
    for big in (10 ** 305, 10 ** 308):
        proc = _python("-m", "umbral.cli", "mc", "--model", "compound", "--lambda", "1",
                       "--jumps", f"{big}:1/2,1:1/2", "--n", "70000")
        assert proc.returncode == 2 and proc.stdout == ""
        assert set(json.loads(proc.stderr)) == {"error", "message"}, proc.stderr


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
    # indices outside the combinatorial kernels' domains
    ("stirling", "-n", "2", "-k", "5"),
    ("stirling", "-n", "-1", "-k", "0"),
    ("bell", "-n", "-1"),
    ("bellpoly", "-n", "3", "-k", "5", "--moments", "1"),
    ("bellpoly", "-n", "0", "-k", "0", "--moments", "1"),
    ("bellpoly", "-n", "3", "--moments", "1"),
    # a model without the distribution it needs
    ("mc", "--model", "compound", "--lambda", "1"),
    ("mc", "--model", "randomized"),
    ("mc", "--model", "randomized_compound", "--param", "1:1"),
    # counts that would make a vacuous check
    ("check", "prop1_i_v", "--trials", "0"),
    ("check", "prop1_i_v", "--trials", "-3"),
    ("mc", "--model", "poisson", "--max-order", "-1", "--n", "10"),
    ("mc", "--model", "poisson", "--max-order", "0", "--n", "10"),
    ("mc", "--model", "poisson", "--n", "0"),
    ("check", "thm1_binomial_type", "-n", "0"),
    ("check", "remark1_left_dist_counterexample", "-n", "1"),
    ("check", "all", "-n", "1"),
    # workspace paths the filesystem refuses: a directory, a missing parent
    ("eval", "E[u]", "--workspace", "."),
    ("define", "a", "1,2", "--workspace", "no-such-dir/ws.json"),
    # a sample whose order-2 variance overflows a float
    ("mc", "--model", "compound", "--lambda", "1", "--jumps", "1" + "0" * 100 + ":1",
     "--n", "10", "--max-order", "2"),
    ("mc", "--model", "compound", "--lambda", "1", "--jumps", "1e80:1", "--max-order", "4"),
    # umbra names no expression can reach: an indeterminate, a built-in
    # umbra, and a name that is not an identifier
    ("--workspace", {}, "define", "x", "1,2,3"),
    ("--workspace", {}, "define", "bell", "1,5"),
    ("--workspace", {}, "define", "u", "1,5"),
    ("--workspace", {}, "define", "a b", "1,5"),
    # a one-point parameter is a fixed rate, and a rate of 0 is refused
    ("mc", "--model", "randomized", "--param", "0:1", "--n", "10"),
    ("mc", "--model", "randomized", "--param", "0:1/2,0:1/2", "--n", "10"),
    # an option the model does not read, which would check another model
    ("mc", "--model", "poisson", "--jumps", "2:1", "--param", "3:1", "--n", "2000"),
    ("mc", "--model", "poisson", "--lambda", "1", "--jumps", "2:1", "--n", "10"),
    ("mc", "--model", "compound", "--lambda", "1", "--jumps", "1:1", "--param", "3:1"),
    ("mc", "--model", "randomized", "--param", "1:1/2,2:1/2", "--lambda", "3"),
    ("mc", "--model", "randomized", "--param", "1:1/2,2:1/2", "--jumps", "5:1"),
    ("mc", "--model", "randomized_compound", "--param", "1:1", "--jumps", "1:1",
     "--lambda", "2"),
    # a moment monomial with an exponent below 1
    ("--workspace", {"umbrae": {"b": ["1", {"x^0": "1"}]}}, "eval", "E[b]"),
    ("--workspace", {"umbrae": {"b": ["1", {"x^-1": "1"}]}}, "gf", "2.b"),
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


# -- the CI workflow's pins, run in process ---------------------------------------------


WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
PIN = re.compile(r"pin ([0-9a-f]{16}) umbral (.*)")
CHAIN = re.compile(r'(\w+)=\$\(python -c "(.*)"\)')
SAVED = re.compile(r'umbral (.*) > "\$RUNNER_TEMP/([\w.]+)"')
DIGEST = re.compile(r'test "\$\(sha256sum < "\$RUNNER_TEMP/([\w.]+)" \| cut -c1-16\)" = ([0-9a-f]{16})')
ECHO = re.compile(r"echo '(.*)' > ([\w.]+)")


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """``(checks, names)``: the workflow's ``pin`` lines and ``sha256sum``
    steps run in process, in order, as ``(command, want, got)`` digests,
    and the name of every atom those commands register.  ``$RUNNER_TEMP``
    is a fresh directory and a shell variable is set by its own line's
    ``python -c`` code."""
    temp, env, saved, checks, names = tmp_path_factory.mktemp("runner"), {}, {}, [], []
    make = Workspace._atom

    def recording(self, name, *args):
        names.append(name)
        return make(self, name, *args)

    def umbral_cli(command: str) -> str:
        argv = [re.sub(r"\$(\w+)", lambda m: env[m[1]], a) for a in shlex.split(command)]
        return run(*argv)[1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Workspace, "_atom", recording)
        for line in WORKFLOW.read_text().splitlines():
            line = line.strip()
            if m := PIN.fullmatch(line):
                checks.append((m[2], m[1], _sha16(umbral_cli(m[2]))))
            elif m := CHAIN.fullmatch(line):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    exec(m[2], {})
                env[m[1]] = out.getvalue().rstrip("\n")
            elif m := SAVED.fullmatch(line):
                saved[m[2]] = (m[1], umbral_cli(m[1]))
            elif m := DIGEST.fullmatch(line):
                command, out = saved[m[1]]
                checks.append((command, m[2], _sha16(out)))
            elif m := ECHO.fullmatch(line):
                (temp / m[2]).write_text(m[1] + "\n")
            elif line == 'cd "$RUNNER_TEMP"':
                mp.chdir(temp)
    return checks, names


def test_workflow_pins_match(workflow):
    checks, _ = workflow
    assert len(checks) == 48 + 4
    assert [(c, want) for c, want, got in checks if got != want] == []


def _bare_by_tokenizer(name: str) -> bool:
    """The renderer's former rule, kept as an oracle: a name stands bare when
    it tokenizes and holds no operator token."""
    try:
        tokens = _tokenize(name)
    except ParseError:
        return False
    return not {"+", "-", "*", "^", "^."} & {t[0] for t in tokens}


def test_one_naming_rule_agrees_with_the_tokenizer(ctx, workflow, monkeypatch):
    # ops.wrap_name decides, for naming and rendering alike, whether a name
    # stands bare; on every name the engine and the CLI make, it agrees with
    # the tokenizer
    names = list(ctx.ws._by_name)
    make = Workspace._atom

    def recording(self, name, *args):
        names.append(name)
        return make(self, name, *args)

    monkeypatch.setattr(Workspace, "_atom", recording)
    for text in CORPUS:
        ctx.parse(text)
    check_all()
    names += workflow[1]
    assert len(set(names)) > 100
    assert [n for n in set(names) if (ops.wrap_name(n) == n) != _bare_by_tokenizer(n)] == []
