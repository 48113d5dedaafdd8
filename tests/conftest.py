import os
import sys

import pytest
from hypothesis import settings

import mist.cover

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def cover_searches(monkeypatch):
    """The graphs of every component search a cover makes from now on.

    A cover keeps its component list until an edit, so counting
    Cover.components calls would count kept lists too.
    """
    searched = []
    search = mist.cover.connected_components
    monkeypatch.setattr(
        mist.cover, "connected_components", lambda g: searched.append(g) or search(g)
    )
    return searched
