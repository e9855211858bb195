"""The plan-interpreter property at sweep scale.

``tests/core/test_interpreter_oracle.py`` holds the interpreter's plan
loop to the two instruction loops it replaced, at a tier-1 example
budget; this runs the same property with ten times the examples, under
``-m difftest`` only.
"""

import pytest
from hypothesis import given, settings

from ..core.test_interpreter_oracle import (
    TIER1_EXAMPLES,
    agrees_with_model,
    filter_words,
    packets,
)


@pytest.mark.difftest
@given(filter_words, packets)
@settings(max_examples=10 * TIER1_EXAMPLES, deadline=None)
def test_plan_interpreter_matches_the_two_loops_sweep(words, packets):
    agrees_with_model(words, packets)
