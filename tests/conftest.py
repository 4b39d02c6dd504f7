"""Run every test under ``tests/`` against the ``dyspec`` its module imported.

perfbench's set-up imports the program afresh and first deletes every
``dyspec`` module from ``sys.modules``.  A test here that runs after it
would patch, or count calls on, the re-imported modules while the names
its own module imported still point at the first import.  The modules
present when collection finishes are put back before each test, so the
suite passes in any order (``pytest perfbench/tests tests`` included).
"""

import sys

import pytest

_COLLECTED = {}


def _dyspec_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "dyspec" or name.startswith("dyspec.")}


def pytest_collection_finish(session):
    _COLLECTED.update(_dyspec_modules())


@pytest.fixture(autouse=True)
def _dyspec_as_collected():
    for name in _dyspec_modules().keys() - _COLLECTED.keys():
        del sys.modules[name]
    sys.modules.update(_COLLECTED)
