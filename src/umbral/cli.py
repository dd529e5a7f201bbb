"""Command-line front end.

Expression grammar (umbral surface syntax)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint | '^.' uint)?
    base   := (uint | ident) '.' base
            | func '(' args ')'
            | 'E' '[' expr ']'
            | ident clone*
            | '(' expr ')'
    clone  := "'"
    funcs  := inv, bell, part, comp, bar

'-' adds the inverse umbra of the following term (umbrae have no coefficient
negation); ``n.a`` / ``x.a`` / ``b.a`` are point multiples, ``a^.n`` the
point power, primes produce clones (stable within a session: ``a'`` always
names the same clone).  A bare indeterminate is a scalar factor.  Construct
descriptors are cached per session, so ``2.a`` twice denotes one auxiliary
umbra, as the notation intends.  A descriptor is the constructor plus its
operands, an umbra operand by identity (its uid, never its name or moments):
``3.g`` and ``a.g`` stay distinct even when ``a`` has uid 3, and ``a'`` and
``a''`` are two clones.  ``render`` writes an atom operand through
``ops.wrap_name``, the rule that names the constructs.

Subcommands: eval, gf, define, check, invert, bell, stirling, bellpoly, mc.
Global flags: --order, --workspace, --format {json,text}, --seed.  The
environment variable UMBRAL_ORDER sets the default truncation order; the
command line wins.  Exit status: 0 success, 1 failed checks, 2 usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import inversion, ops
from .combinatorics import (
    bell_number,
    complete_bell,
    partial_bell,
    stirling,
)
from .core import (
    DEFAULT_ORDER,
    Atom,
    Expr,
    IntPower,
    ONE_EXPR,
    Product,
    ScalarMul,
    Sum,
    Workspace,
)
from .errors import CoherenceError, ParseError, UmbralError, UnknownAtom, UsageError
from .identities import check as check_identity, check_all, list_identities
from .poly import Poly
from .series import Series

DEFAULT_ORDER_ENV = "UMBRAL_ORDER"


# -- tokenizer -----------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("uint", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
        elif c == "^" and i + 1 < n and text[i + 1] == ".":
            tokens.append(("^.", "^.", i))
            i += 2
        elif c in "+-*/^.()[],'":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# -- parser / session context ------------------------------------------------------


# grammar function -> name of its constructor in ``ops``: names, looked up per
# call, so that no table holds a function that perfbench/tracer.py replaces
_FUNCS = {"inv": "inverse_umbra", "bell": "bell_umbra", "part": "partition_umbra",
          "comp": "composition_umbra", "bar": "alpha_bar"}


class ExprContext:
    """A workspace plus the construction cache that keeps repeated
    occurrences of one descriptor (``2.a``, ``inv(b)``, ``a'``) bound to one
    auxiliary umbra across parses."""

    def __init__(self, ws: Workspace):
        self.ws = ws
        self._built: dict = {}
        self._exprs: dict = {}

    def build(self, fn, *args) -> Atom:
        """``fn(ws, *args)``, called once per descriptor: the constructor's
        name plus its operands, an umbra operand keyed by its uid."""
        key = (fn.__name__,) + tuple(
            ("atom", a.uid) if isinstance(a, Atom) else a for a in args)
        atom = self._built.get(key)
        if atom is None:
            atom = self._built[key] = fn(self.ws, *args)
        return atom

    def expr_atom(self, expr: Expr) -> Atom:
        """Materialize a non-atomic expression, keyed by its rendering."""
        if isinstance(expr, Atom):
            return expr
        text = render(expr)
        atom = self._exprs.get(text)
        if atom is None:
            atom = self._exprs[text] = self.ws.atom_of(expr, text)
        return atom

    # parsing ---------------------------------------------------------------------

    def parse(self, text: str) -> Expr:
        return _Parser(self, text).parse()


class _Cursor:
    """The token cursor of both recursive-descent parsers; ``parse`` reads
    one ``expr`` and requires the input to end there."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return e


class _Parser(_Cursor):
    def __init__(self, ctx: ExprContext, text: str):
        super().__init__(text)
        self.ctx = ctx

    def expr(self) -> Expr:
        parts = [self.term()]
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.term()
            if op == "-":
                t = self.ctx.build(ops.inverse_umbra, self.ctx.expr_atom(t))
            parts.append(t)
        return parts[0] if len(parts) == 1 else Sum(parts)

    def term(self) -> Expr:
        parts = [self.factor()]
        while self.peek()[0] == "*":
            self.take()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else Product(parts)

    def factor(self) -> Expr:
        base = self.base()
        tok = self.peek()
        if tok[0] == "^":
            self.take()
            p = int(self.take("uint")[1])
            return IntPower(base, p)
        if tok[0] == "^.":
            self.take()
            p = int(self.take("uint")[1])
            return self.ctx.build(ops.point_power, self.ctx.expr_atom(base), p)
        return base

    def _resolve(self, name: str):
        if name == "bell":
            return self.ctx.build(ops.bell_umbra)
        return self.ctx.ws.lookup(name)

    def base(self) -> Expr:
        tok = self.take()
        kind, name = tok[0], tok[1]
        if kind == "(":
            e = self.expr()
            self.take(")")
            return e
        if kind not in ("uint", "ident"):
            raise ParseError(f"expected an expression, found {name!r}", tok[2])
        nxt = self.peek()[0]
        ws = self.ctx.ws
        if kind == "uint" or nxt == ".":
            # the point product: the right operand is built before the multiplier
            self.take(".")
            inner = self.ctx.expr_atom(self.base())
            if kind == "uint":
                left = int(name)
            else:
                left = name if name in ws.indeterminates else self._resolve(name)
                if left is None:
                    raise UnknownAtom(f"unknown umbra {name!r}")
            return self.ctx.build(ops.dot, left, inner)
        if name == "E" and nxt == "[":
            self.take()
            e = self.expr()
            self.take("]")
            return e
        if name in _FUNCS and nxt == "(":
            return self.func_call(name)
        # a bare name: clone-decorated umbra, or an indeterminate scalar
        primes = 0
        while self.peek()[0] == "'":
            self.take()
            primes += 1
        atom = self._resolve(name)
        if atom is not None:
            return self.ctx.build(Workspace.clone, atom, primes) if primes else atom
        if name in ws.indeterminates:
            if primes:
                raise ParseError("indeterminates cannot be cloned", tok[2])
            return ScalarMul(Poly.var(name), ONE_EXPR)
        raise UnknownAtom(f"unknown umbra {name!r}")

    def func_call(self, name: str) -> Expr:
        self.take("(")
        if name == "bell":
            tok = self.take()
            if tok[0] not in ("uint", "ident"):
                raise ParseError("bell() takes an indeterminate or integer", tok[2])
            args = [int(tok[1]) if tok[0] == "uint" else tok[1]]
        else:
            args = [self.ctx.expr_atom(self.expr())]
            if name == "comp":
                self.take(",")
                args.append(self.ctx.expr_atom(self.expr()))
        self.take(")")
        return self.ctx.build(getattr(ops, _FUNCS[name]), *args)


# -- renderer ----------------------------------------------------------------------


def render(expr: Expr) -> str:
    """Canonical surface syntax.  Reparsing it in the same context gives an
    expression that renders the same and has the same moments, but not
    always an equal tree: a sum nested in a sum renders flat, so
    ``(a + b) + c`` renders as ``a + b + c``, which reparses as one sum."""
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, Sum):
        return " + ".join(render(p) for p in expr.parts)
    if isinstance(expr, Product):
        if not expr.parts:
            return "u^0"
        return " * ".join(map(_wrap, expr.parts))
    if isinstance(expr, ScalarMul):
        if expr.child == ONE_EXPR and expr.coeff.is_constant() is False:
            vars_ = expr.coeff.variables()
            if len(vars_) == 1 and expr.coeff == Poly.var(next(iter(vars_))):
                return next(iter(vars_))
        return f"({expr.coeff}) * {_wrap(expr.child)}"
    if isinstance(expr, IntPower):
        return f"{_wrap(expr.child)}^{expr.power}"
    raise TypeError(f"cannot render {expr!r}")


def _wrap(expr: Expr) -> str:
    """An operand of a product, a scalar multiple or a power: bare only for
    an atom the naming rule leaves bare and a lone indeterminate."""
    text = render(expr)
    if isinstance(expr, Atom):
        return ops.wrap_name(text)
    return text if isinstance(expr, ScalarMul) and text.isalnum() else f"({text})"


# -- output helpers -------------------------------------------------------------------


def _emit(doc, fmt: str):
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _emit_text(doc)


def _emit_text(doc, indent=""):
    if isinstance(doc, dict):
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            _emit_text(v, indent)
            if isinstance(v, (dict, list)):
                print()
    else:
        print(f"{indent}{doc}")


def _parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def _parse_dist(spec, option: str):
    from .poisson import DiscreteDist
    if spec is None:
        raise UsageError(f"this model needs {option}")
    values, probs = [], []
    for part in spec.split(","):
        v, _, p = part.partition(":")
        if not p:
            raise ValueError(f"distribution entries are value:prob, got {part!r}")
        values.append(_parse_rational(v))
        probs.append(_parse_rational(p))
    return DiscreteDist(tuple(values), tuple(probs))


# -- series mini-parser for `invert --series` ---------------------------------------------


class _SeriesParser(_Cursor):
    """Tiny closed grammar over t: rationals, t, exp(), log(), + - * ^."""

    def __init__(self, text: str, order: int):
        super().__init__(text)
        self.order = order

    def expr(self) -> Series:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        s = self.term()
        if negate:
            s = -s
        while self.peek()[0] in "+-":
            op = self.take()[0]
            t = self.term()
            s = s - t if op == "-" else s + t
        return s

    def term(self) -> Series:
        s = self.factor()
        while self.peek()[0] == "*":
            self.take()
            s = s * self.factor()
        return s

    def factor(self) -> Series:
        s = self.atom()
        if self.peek()[0] == "^":
            self.take()
            neg = self.peek()[0] == "-"
            if neg:
                self.take()
            p = int(self.take("uint")[1])
            s = s.pow_int(-p if neg else p)
        return s

    def atom(self) -> Series:
        tok = self.take()
        if tok[0] == "uint":
            value = Fraction(int(tok[1]))
            if self.peek()[0] == "/":
                self.take()
                value /= int(self.take("uint")[1])
            return Series.one(self.order).scalar_mul(value)
        if tok[0] == "ident" and tok[1] == "t":
            return Series.t(self.order)
        if tok[0] == "ident" and tok[1] in ("exp", "log"):
            self.take("(")
            inner = self.expr()
            self.take(")")
            return inner.exp() if tok[1] == "exp" else inner.log()
        if tok[0] == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise ParseError(f"unexpected {tok[1]!r} in series", tok[2])


def parse_series(text: str, order: int) -> Series:
    return _SeriesParser(text, order).parse()


# -- command implementations ------------------------------------------------------------------


def _load_workspace(args) -> Workspace:
    if args.workspace and os.path.exists(args.workspace):
        with open(args.workspace) as fh:
            data = json.load(fh)
        if args.order is not None and isinstance(data, dict):
            data["order"] = args.order  # anything else is refused by from_json
        return Workspace.from_json(data)
    return Workspace(order=_order(args))


def _order(args) -> int:
    if args.order is not None:
        return args.order
    env = os.environ.get(DEFAULT_ORDER_ENV)
    return int(env) if env else DEFAULT_ORDER


def _cmd_eval(args) -> int:
    ctx = ExprContext(_load_workspace(args))
    expr = ctx.parse(args.expr)
    value = ctx.ws.eval(expr, args.k)
    _emit({"expr": render(expr), "k": args.k, "value": value.to_json()}, args.format)
    return 0


def _cmd_gf(args) -> int:
    ctx = ExprContext(_load_workspace(args))
    expr = ctx.parse(args.expr)
    _emit({"expr": render(expr), "gf": ctx.ws.gf_of(expr).to_json()}, args.format)
    return 0


def _cmd_define(args) -> int:
    if not args.workspace:
        raise UmbralError("define needs --workspace FILE to update")
    if os.path.exists(args.workspace):
        with open(args.workspace) as fh:
            data = Workspace.from_json(json.load(fh)).to_json()  # validates
    else:
        data = Workspace(order=_order(args)).to_json()
    moments = [m.strip() for m in args.moments.split(",")]
    data["umbrae"][args.name] = moments
    ws = Workspace.from_json(data)  # validates
    with open(args.workspace, "w") as fh:
        json.dump(ws.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(ws.to_json(), args.format)
    return 0


def _positive(value, option: str):
    if value is not None and value < 1:  # a vacuous check would exit 0
        raise UsageError(f"{option} must be at least 1, not {value}")


def _cmd_check(args) -> int:
    _positive(args.trials, "--trials")
    _positive(args.n, "-n")
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.n is not None:
        overrides["n"] = args.n
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.id == "all":
        cases = check_all(overrides or None)
    elif args.id == "list":
        _emit(list_identities(), args.format)
        return 0
    else:
        cases = [check_identity(args.id, overrides or None)]
    _emit([c.to_json() for c in cases], args.format)
    return 0 if all(c.passed for c in cases) else 1


def _cmd_invert(args) -> int:
    order = _order(args)
    if args.series:
        ws = Workspace(order=order, indeterminates=())
        h = parse_series(args.series, order)
        if h.is_unital():
            h = h - Series.one(order)
        if not h.is_delta():
            raise UmbralError("series must be a delta series (or unital f)")
        alpha = ws._register("f", (Series.one(order) + h).moments())
    else:
        ws = _load_workspace(args)
        alpha = ws.lookup(args.name or "")
        if alpha is None:
            raise UnknownAtom(f"unknown umbra {args.name!r}")
    report = inversion.cross_check(ws, alpha)
    _emit(report.to_json(), args.format)
    return 0 if report.passed else 1


def _cmd_bell(args) -> int:
    _emit({"n": args.n, "bell": str(bell_number(args.n))}, args.format)
    return 0


def _cmd_stirling(args) -> int:
    value = stirling(args.kind, args.n, args.k)
    _emit({"kind": args.kind, "n": args.n, "k": args.k, "value": str(value)},
          args.format)
    return 0


def _cmd_bellpoly(args) -> int:
    moments = [Fraction(m) for m in args.moments.split(",")]
    if args.k is None:
        value = complete_bell(args.n, moments)
        doc = {"n": args.n, "complete_bell": value.to_json()}
    else:
        value = partial_bell(args.n, args.k, moments)
        doc = {"n": args.n, "k": args.k, "partial_bell": value.to_json()}
    _emit(doc, args.format)
    return 0


def _cmd_mc(args) -> int:
    _positive(args.n, "--n")
    _positive(args.max_order, "--max-order")
    randomized, compound = args.model.startswith("randomized"), args.model.endswith("compound")
    for option, value, read in (("--lambda", args.lam, not randomized),
                                ("--param", args.param, randomized),
                                ("--jumps", args.jumps, compound)):
        if value is not None and not read:  # a check of another model
            raise UsageError(f"--model {args.model} does not read {option}")
    from . import poisson  # the Monte Carlo lab, which no exact command needs
    lam = _parse_rational(args.lam) if args.lam else Fraction(1)
    point_mass = poisson.DiscreteDist.point_mass
    param = _parse_dist(args.param, "--param") if randomized else point_mass(lam)
    jumps = _parse_dist(args.jumps, "--jumps") if compound else point_mass(1)
    model = poisson.RandomizedCompoundModel(param, jumps)
    comp = poisson.compare(model, args.n, args.seed or 0, args.max_order)
    _emit(comp.to_json(), args.format)
    return 0 if comp.passed else 1


# -- argparse wiring ------------------------------------------------------------------------------


class _ArgParser(argparse.ArgumentParser):
    """Raises usage errors so that ``main`` reports them as JSON."""

    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", type=int, default=argparse.SUPPRESS,
                        help=f"truncation order (default {DEFAULT_ORDER}; env {DEFAULT_ORDER_ENV})")
    common.add_argument("--workspace", default=argparse.SUPPRESS,
                        help="workspace JSON file")
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed override")
    ap = _ArgParser(
        prog="umbral",
        parents=[common],
        description="exact umbral-calculus engine: evaluation, identity "
                    "checks, Lagrange inversion, Monte Carlo moments")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add("eval", help="evaluate E[expr^k]")
    p.add_argument("expr")
    p.add_argument("-k", type=int, default=1)
    p.set_defaults(fn=_cmd_eval)

    p = add("gf", help="generating function of an expression")
    p.add_argument("expr")
    p.set_defaults(fn=_cmd_gf)

    p = add("define", help="add an umbra to a workspace file")
    p.add_argument("name")
    p.add_argument("moments", help="comma-separated rational moments, m0=1")
    p.set_defaults(fn=_cmd_define)

    p = add("check", help="run identity checks ('all', 'list' or an id)")
    p.add_argument("id")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("-n", type=int, default=None, help="max order override")
    p.set_defaults(fn=_cmd_check)

    p = add("invert", help="Lagrange inversion with its claims checked")
    p.add_argument("--name", help="umbra name from the workspace")
    p.add_argument("--series", help="delta series ('t*exp(-t)'); leading '-': --series=-2*t+t^2")
    p.set_defaults(fn=_cmd_invert)

    p = add("bell", help="Bell number")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(fn=_cmd_bell)

    p = add("stirling", help="Stirling number")
    p.add_argument("--kind", choices=("second", "first_signed"), default="second")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(fn=_cmd_stirling)

    p = add("bellpoly", help="partial/complete Bell polynomial value")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=None)
    p.add_argument("--moments", required=True,
                   help="comma-separated rationals a_1,a_2,...")
    p.set_defaults(fn=_cmd_bellpoly)

    p = add("mc", help="Monte Carlo moment comparison")
    p.add_argument("--model", required=True,
                   choices=("poisson", "compound", "randomized",
                            "randomized_compound"))
    p.add_argument("--lambda", dest="lam", default=None,
                   help="rational Poisson rate")
    p.add_argument("--jumps", help="jump distribution v:p,v:p,...")
    p.add_argument("--param", help="parameter distribution v:p,...")
    p.add_argument("--n", dest="n", type=int, default=1000000)
    p.add_argument("--max-order", type=int, default=4)
    p.set_defaults(fn=_cmd_mc)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    defaults = argparse.Namespace(order=None, workspace=None, format="json",
                                  seed=None)
    try:
        args = ap.parse_args(argv, namespace=defaults)
        return args.fn(args)
    except CoherenceError as exc:  # an engine fault fails the check
        _emit({"ok": False, "witness": exc.to_json()}, args.format)
        return 1
    except (UmbralError, OSError, ValueError, KeyError, IndexError,
            ZeroDivisionError, OverflowError, RecursionError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, ParseError):
            err["offset"] = exc.offset
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
