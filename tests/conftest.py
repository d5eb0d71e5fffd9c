"""Settings shared by the test modules."""

from hypothesis import settings

# Property tests draw the same 25 examples on every run, with no per-example
# deadline: some examples run a 256-node quadrature reference.
PROPERTY = settings(derandomize=True, max_examples=25, deadline=None)
