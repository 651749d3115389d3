"""Hypothesis profiles.  Tier-1 runs the default one.

``mutants`` is the profile of ``scripts/mutants.py``: a planted fault fails
its nodes at the first counterexample, and shrinking that example, which
can take minutes, tells the runner nothing more.
"""

from hypothesis import Phase, settings

settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)
