"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.designs.catalog import DTMB_1_6, DTMB_2_6, DTMB_3_6, DTMB_4_4
from repro.designs.interstitial import build_chip
from repro.geometry.hexgrid import RectRegion


@pytest.fixture
def small_region():
    """A 10x10 rectangular hex footprint."""
    return RectRegion(10, 10)


@pytest.fixture
def dtmb26_chip(small_region):
    """A DTMB(2,6) chip on the 10x10 footprint."""
    return build_chip(DTMB_2_6, small_region)


@pytest.fixture
def dtmb16_chip(small_region):
    return build_chip(DTMB_1_6, small_region)


@pytest.fixture
def dtmb44_chip(small_region):
    return build_chip(DTMB_4_4, small_region)


def pytest_addoption(parser):
    parser.addoption(
        "--reverse-order",
        action="store_true",
        default=False,
        help="run the collected tests in reverse order, to catch tests "
        "that pass only because of the state an earlier test leaves",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--reverse-order"):
        items.reverse()
