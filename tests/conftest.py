"""Suite-wide Hypothesis profiles, so the verdict of the property tests does
not depend on the run or the host.

* ``tier1`` (loaded here, hence the default): derandomised — every run
  draws the same examples from a seed derived from the test itself — with
  no deadline (a slow host must not turn a pass into a ``DeadlineExceeded``)
  and no example database (nothing under ``.hypothesis/`` replays a
  failure only one checkout has seen).
* ``thorough``: fresh random seeds and a ten-times larger budget for the
  tests that leave ``max_examples`` to the profile.  ``tools/check.py
  --all`` selects it (``pytest --hypothesis-profile=thorough`` does the
  same by hand); the command-line choice is applied after this file loads,
  so it wins.
"""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.register_profile("thorough", max_examples=1000, deadline=None, database=None)
settings.load_profile("tier1")
