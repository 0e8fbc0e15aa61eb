"""One hypothesis profile for every property test: 40 examples each, and
no deadline, because an example's time grows with the lattice it draws."""

from hypothesis import settings

settings.register_profile("disclat", max_examples=40, deadline=None)
settings.load_profile("disclat")
