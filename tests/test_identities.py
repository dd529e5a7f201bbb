import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import umbral.identities
from umbral import series
from umbral.core import Workspace, verdict
from umbral.errors import UmbralError, UnknownIdentity, UsageError
from umbral.identities import (_dobinski_bracket, _recover_from_int_dot, check, check_all,
                               list_identities)
from umbral.ops import dot
from umbral.series import Series

import faults
from oracles import dobinski_bracket

EXPECTED_IDS = [
    "prop1_i_v", "cor1_i_v", "thm1_binomial_type", "abel", "cor2_right_dist",
    "remark1_left_dist_counterexample", "cor3_assoc", "prop5_inverse",
    "prop6_neg_dot", "eq10_point_power", "eq11_gf_power",
    "eq13_point_exp_series", "thm2_bell_recursion", "eq17_derivative",
    "eq18_bell_gf", "dobinski_scalar", "thm4_phi_is_xbeta", "thm5_recursion",
    "rodrigues", "dobinski_polynomial", "eq22_1_exponential_umbral",
    "eq22_3_randomized_gf", "eq24_partition_gf", "eq_somma_convolution",
    "thm6_partition_recursion", "eq28_poly_partition",
    "thm7_composition_recursion", "eq30_composition_moments",
    "lemma1_partial_bell", "remark4_stirling_bernoulli", "thm8_lagrange",
]


def test_catalog_registry():
    descriptors = list_identities()
    ids = [d["id"] for d in descriptors]
    assert len(ids) == 31
    assert ids == EXPECTED_IDS
    anchors = [d["anchor"] for d in descriptors]
    assert len(set(anchors)) == 31
    # ids are stable across calls
    assert [d["id"] for d in list_identities()] == ids


def test_recovery_from_an_integer_multiple_stays_exact():
    # the moments of n.a are ints here, so (q_k - acc) / n must divide as a
    # Fraction; moments equal to 3 (a power of two would divide exactly even
    # as a float) show a float at once
    ws = Workspace(order=6)
    a = ws.define("a", [1] + [3] * 6)
    for n in (2, 3):
        rec = _recover_from_int_dot(ws, n, dot(ws, n, a).moments)
        assert rec == list(a.moments)
        assert all(type(v) in (int, Fraction) for v in rec)


def test_unknown_identity():
    with pytest.raises(UnknownIdentity):
        check("no_such_identity")


def test_designed_counterexample_passes_by_exhibiting_dissimilarity():
    case = check("remark1_left_dist_counterexample")
    assert case.passed
    assert case.designed_counterexample
    assert case.witness is not None
    assert case.witness["lhs"] != case.witness["rhs"]
    assert case.witness["k"] <= 4


def test_dobinski_example_values():
    case = check("dobinski_scalar", {"n": 6})
    assert case.passed


@pytest.mark.parametrize("x0", [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 7),
                                Fraction(5, 3)], ids=str)
def test_dobinski_bracket_equals_the_term_by_term_sums(x0):
    # the bracket's int sums over one denominator give the same three values
    for n in range(13):
        assert _dobinski_bracket(n, x0) == dobinski_bracket(n, x0)


def test_remark4_single_cell():
    case = check("remark4_stirling_bernoulli", {"n": 5, "k": 2})
    assert case.passed


def test_abel_documented_parameters():
    case = check("abel", {"n": 6, "trials": 10, "seed": 1})
    assert case.passed


def test_determinism_byte_identical():
    a = json.dumps([c.to_json() for c in (check("lemma1_partial_bell"),
                                          check("abel", {"trials": 3}))],
                   sort_keys=True)
    b = json.dumps([c.to_json() for c in (check("lemma1_partial_bell"),
                                          check("abel", {"trials": 3}))],
                   sort_keys=True)
    assert a == b


def test_failure_carries_witness(monkeypatch):
    # below order 2 the designed counterexample cannot exist, so asking for
    # it is a usage error rather than a failed identity
    for n in (0, 1):
        with pytest.raises(UsageError):
            check("remark1_left_dist_counterexample", {"n": n})
    # an engine defect makes an identity fail, and the entry says where:
    # prop1 (i) inverts n.a with the falling factorials of n + 1
    real = umbral.identities.falling_factorials
    monkeypatch.setattr(umbral.identities, "falling_factorials",
                        lambda value, n: real(value + 1, n))
    case = check("prop1_i_v")
    assert not case.passed
    assert case.witness is not None and "statement" in case.witness
    assert case.witness["lhs"] != case.witness["rhs"]


def test_verdict_stops_at_the_first_false_claim():
    def claims():
        yield "holds", 1, 1, {"k": 0}
        yield "fails", [Fraction(1, 2), 3], (Fraction(1, 2), 4), {"k": 1, "trial": 2}
        raise AssertionError("a claim after the first false one was pulled")

    passed, witness = verdict(claims())
    assert not passed
    assert witness == {"statement": "fails", "lhs": ["1/2", "3"], "rhs": ["1/2", "4"],
                       "k": 1, "trial": 2}
    # a designed counterexample passes on the same false claim
    assert verdict(claims(), designed=True) == (True, witness)


def test_verdict_on_claims_that_all_hold():
    claims = [("a", 1, 1, {}), ("b", True, True, {"n": 3})]
    assert verdict(iter(claims)) == (True, None)
    # a designed counterexample that exhibits nothing fails, showing its
    # last claim
    passed, witness = verdict(iter(claims), designed=True)
    assert not passed
    assert witness == {"statement": "b", "lhs": "True", "rhs": "True", "n": 3}
    for designed in (False, True):
        with pytest.raises(UsageError):
            verdict(iter(()), designed)


@pytest.mark.parametrize("identity_id, params", [
    ("remark4_stirling_bernoulli", {"k": 50}),
    ("cor2_right_dist", {"trials": 0}),
    ("thm2_bell_recursion", {"n": 0}),
    ("thm6_partition_recursion", {"n": 0}),
    ("remark4_stirling_bernoulli", {"k": -1}),
])
def test_entry_that_makes_no_claim_is_a_usage_error(identity_id, params):
    with pytest.raises(UsageError):
        check(identity_id, params)


def test_catalog_claim_count_is_pinned(monkeypatch):
    # how many claims `check all` judges: a claim that an entry stops
    # making, or stops reaching, changes the count
    count = 0
    verdict = umbral.identities.verdict

    def counting(claims, designed=False):
        def counted():
            nonlocal count
            for claim in claims:
                count += 1
                yield claim
        return verdict(counted(), designed)

    monkeypatch.setattr(umbral.identities, "verdict", counting)
    assert all(c.passed for c in check_all())
    assert count == 1608


def test_full_catalog_passes_at_defaults():
    cases = check_all()
    failures = [c.id for c in cases if not c.passed]
    assert failures == []
    assert [c.id for c in cases] == EXPECTED_IDS


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"


@pytest.mark.parametrize("seed", [0, 1])
def test_catalog_output_matches_committed_digests(seed):
    # every entry at seed default ^ seed renders, byte for byte, the JSON whose
    # digest the benchmark committed for that seed; seed 0 is `check all`, and
    # seed 1 checks the verdicts on trial draws other than the default ones
    golden = json.loads(GOLDEN.read_text())["catalog"]
    entries = list_identities()
    assert [e["id"] for e in entries] == EXPECTED_IDS
    for entry in entries:
        case = check(entry["id"], {"seed": entry["defaults"]["seed"] ^ seed})
        key = f"{case.id}:{case.params['seed']}:{case.params['n']}:{case.params['trials']}"
        text = json.dumps(case.to_json(), indent=2, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == golden[key], case.id


def test_catalog_registrations_match_committed_digest(monkeypatch):
    # a passing case renders no draws, so the digests above cannot see the
    # order of the random umbrae; this pins every atom `check all` makes,
    # clones included, by name and moments, in the order they are made
    seen = []
    make = Workspace._atom

    def recording(self, name, *args):
        atom = make(self, name, *args)
        seen.append(name + "\t" + ",".join(map(str, atom.moments)))
        return atom

    monkeypatch.setattr(Workspace, "_atom", recording)
    assert all(c.passed for c in check_all())
    assert len(seen) == 1760
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    assert digest[:16] == "08e193d984135e3c"


def test_registration_compares_only_what_a_second_route_built(monkeypatch):
    # of the 1,760 atoms above, 902 come with a generating function their
    # moments did not build; the rest (eps and u, defined umbrae, point
    # powers, clones, materialized expressions, thm8's tree) have one route
    lengths, first_mismatch = [], Series.first_mismatch

    def counting(self, moments):
        lengths.append(len(moments))
        return first_mismatch(self, moments)

    monkeypatch.setattr(Series, "first_mismatch", counting)
    assert all(c.passed for c in check_all())
    assert sum(n > 1 for n in lengths) == 902  # not is_unital's or is_delta's one moment


# entries whose constructors register through pow_int or exp, neither of
# which reads series.convolve, with the claim that restates f^n or exp(h)
# through the product kernel
RESTATED = {
    "prop5_inverse": "gf of inverse times f is not 1",
    "prop6_neg_dot": "gf of -n.a times f^n is not 1",
    "eq11_gf_power": "gf of n.a is not f^n",
    "eq18_bell_gf": "gf(b) != exp(e^t - 1)",
    "eq24_partition_gf": "gf(part(a)) != exp(f - 1)",
}


@pytest.mark.parametrize("entry, statement", RESTATED.items(), ids=list(RESTATED))
def test_a_wrong_product_fails_the_restated_claims(monkeypatch, entry, statement):
    # a claim that compared f^n with the pow_int call that built it, or exp(h)
    # with the exp that built it, could only pass
    convolve = series.convolve

    def corrupted(a, b):  # one added to the t^2 moment
        out = convolve(a, b)
        if len(out) > 2:
            out[2] += 1
        return out

    monkeypatch.setattr(series, "convolve", corrupted)
    case = check(entry)
    assert not case.passed and case.witness["statement"] == statement


# -- every catalog statement can fail ----------------------------------------------


# statements that no fault in the audit makes fail, each with why
CANNOT_FAIL = {
    ("eq10_point_power", "moments of a^.n are not a_k^n"):
        "point_power builds a_k^n by the expression the claim recomputes",
    ("eq10_point_power", "a^.0 not similar to the unity umbra"):
        "m^0 = 1 holds for every moment, faulted or not",
    ("eq10_point_power", "a^.{-1} moments are not reciprocals"):
        "it multiplies back by the reciprocal that built the moments",
    ("dobinski_scalar", "tail bound wider than 1e-6 relative"):
        "the bracket reads no kernel, and a target one off leaves its width far below 1e-6",
    ("dobinski_polynomial", "tail bound wider than 1e-6 relative"):
        "the bracket reads no kernel, and a target one off leaves its width far below 1e-6",
}


def _claim_outcomes(params):
    """Each catalog statement, keyed (entry id, statement), with the truth of
    its claims in order, up to any error its entry raises."""
    out = {}
    for entry in list_identities():
        try:
            for statement, lhs, rhs, _ in umbral.identities._BY_ID[entry["id"]]["fn"](
                    {**entry["defaults"], **params}):
                out.setdefault((entry["id"], statement), []).append(lhs == rhs)
        except UmbralError:  # a faulted value can leave a later claim nothing to read
            pass
    return out


def test_every_catalog_statement_can_fail():
    # with registration's comparison off, the claims alone must catch a fault:
    # a claim that compares a value with the computation that built it cannot
    def unchecked(self, name, moments, egf=None):  # the second route's egf kept
        own = Series.from_moments(moments)
        return self._atom(name, own.moments(), own if egf is None else egf, own)

    failed = set()
    with faults.swapped([(Workspace._register, unchecked)]):
        faults.clear_caches()
        clean = _claim_outcomes({"trials": 2})
        for fault in {**faults.FAULTS, **faults.CLAIM_FAULTS}:
            with faults.installed([fault], corrupting=True):
                failed |= {key for key, held in _claim_outcomes({"trials": 2}).items()
                           if any(a != b for a, b in zip(held, clean[key]))}
    assert len(clean) == 56
    assert set(clean) - failed == set(CANNOT_FAIL)
