"""Leak checks for every test under ``tests/``: a socket or file left
unclosed fails its test. ``socket.__del__`` reports the ResourceWarning
as an unraisable exception, hence the second filter. They are not in
``pyproject.toml``, whose filters would also reach ``bench/``, where the
workload self-tests still leave ``BrokerClient`` sockets open."""

import pytest

LEAK_FILTERS = (
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def pytest_itemcollected(item):
    # Called through the item's own hook proxy, so only for items that
    # this conftest's directory holds.
    for spec in LEAK_FILTERS:
        item.add_marker(pytest.mark.filterwarnings(spec))
