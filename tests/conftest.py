"""One hypothesis profile for every property test: 40 examples each, and
no deadline, because an example's time grows with the lattice it draws;
and a fixture that counts lattice builds."""

import pytest
from hypothesis import settings

settings.register_profile("disclat", max_examples=40, deadline=None)
settings.load_profile("disclat")


@pytest.fixture
def lattice_builds(monkeypatch):
    """Class names of the LatticeGraph, ConstraintMap and DofLayout objects
    built during the test, in order, whichever module's name built them."""
    from disclat import lattice

    builds = []
    for cls in (lattice.LatticeGraph, lattice.ConstraintMap, lattice.DofLayout):
        def init(self, *args, _real=cls.__init__, _name=cls.__name__):
            builds.append(_name)
            _real(self, *args)

        monkeypatch.setattr(cls, "__init__", init)
    return builds
