import hashlib
import json
from pathlib import Path

import pytest

from umbral.errors import UnknownIdentity
from umbral.identities import check, check_all, list_identities

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


def test_failure_carries_witness():
    # shrink the designed counterexample's search space to force a miss:
    # at order 0 every umbra looks alike, so the dissimilarity cannot be
    # exhibited and the entry reports failure with a witness
    case = check("remark1_left_dist_counterexample", {"n": 0})
    assert not case.passed
    assert case.witness is not None and "statement" in case.witness


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
