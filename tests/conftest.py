import os
import sys

import pytest

from fomodal import propagation

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def graph_builds(monkeypatch):
    """The sequents whose propagation graph is built while the test
    runs, one entry per call of the undecorated builder."""
    built = []
    builder = propagation._graph

    def counted(seq):
        built.append(seq)
        return builder(seq)

    monkeypatch.setattr(propagation, "_graph", counted)
    return built
