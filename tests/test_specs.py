"""The shared plug-in vocabulary: spec grammar, digests and point identities.

Defect models and success criteria share one ``NAME[:k=v,...]`` splitter,
one key check and one content digest (:mod:`repro.specs`).  The digests
and point-cache keys below are pinned: they name cache entries and
manifest provenance, so a change to either is a cache-breaking change.
"""

from __future__ import annotations

import pytest

from repro.designs.catalog import DTMB_2_6
from repro.designs.interstitial import build_flower_chip, build_with_primary_count
from repro.errors import CriterionError, FaultModelError
from repro.functional import MatchingCriterion, MultiplexedCriterion, RoutingCriterion
from repro.specs import require_keys, split_spec
from repro.yieldsim.defects import (
    FixedCount,
    IIDBernoulli,
    NegativeBinomialClustered,
    family_from_spec,
)
from repro.yieldsim.engine import EnginePoint, SweepEngine
from repro.yieldsim.kernel import PointSpec


def test_split_spec_returns_lowercased_name_and_string_values():
    assert split_spec(" Routing:assay=lactate, deadline=150 ", ValueError, "x") == (
        "routing",
        {"assay": "lactate", "deadline": "150"},
    )
    assert split_spec("iid:", ValueError, "x") == ("iid", {})


@pytest.mark.parametrize("error", [FaultModelError, CriterionError])
def test_grammar_raises_the_given_error_class(error):
    with pytest.raises(error, match="malformed thing parameter 'radius'"):
        split_spec("spot:radius", error, "thing")
    with pytest.raises(error, match="expected k=v"):
        split_spec("spot:=2", error, "thing")
    require_keys("spot", {"radius": "1"}, ("radius",), error, "thing")
    with pytest.raises(error, match=r"\['bogus'\] for thing 'spot'"):
        require_keys("spot", {"bogus": "1"}, ("radius",), error, "thing")


def test_model_and_criterion_digests_are_pinned():
    flower = build_flower_chip(60)
    assert IIDBernoulli(0.9).digest() == "ee4b1be39ed88782"
    assert FixedCount(3).digest() == "a7a0a7521dd10b81"
    assert NegativeBinomialClustered(0.9, 2.0).digest() == "c1dd7108504a7ab4"
    spot = family_from_spec("spot:radius=1")(flower, 0.9)
    assert spot.digest() == "ec3532582486b5a1"
    gradient = family_from_spec("gradient:spread=0.05,power=1")(flower, 0.9)
    assert gradient.digest() == "416a8f52fdb352e4"
    assert MatchingCriterion().digest() == "0ca5a540f9583533"
    assert RoutingCriterion().digest() == "f94b1709231e5519"
    assert MultiplexedCriterion().digest() == "34c0b95b8125f757"


def test_point_cache_keys_are_pinned():
    chip = build_with_primary_count(DTMB_2_6, 60).build()
    engine = SweepEngine()
    plain = PointSpec("survival", 0.95, 1000, 42)
    both = PointSpec.from_model(
        NegativeBinomialClustered(0.9, 2.0), 1000, 7, param=0.9,
        criterion=RoutingCriterion(),
    )
    assert engine.point_key(EnginePoint(chip, plain)) == (
        "fa0df6c8afd530bad0b3c490275cc2832b0e41d8d5b1bc9fe3c403f4cd0a8774"
    )
    assert engine.point_key(EnginePoint(chip, both)) == (
        "db95600b72a0029721b9d0280fc718b704eeea2746a879ad875ddeeb2aa62b1b"
    )
