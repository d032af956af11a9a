import struct

import pytest

DECISION_CASES = ("gamma_zero_or_ge_one", "ratio_exceeded", "pass_through")


def _check_decision(dec):
    """Assert the invariant of a ``SafeguardDecision`` that ``solve`` built.

    The case is one of the three; lambda lies in [0, 1], is 0 for
    ``gamma_zero_or_ge_one`` and 1 for ``pass_through``; the gate is
    ``beta = r_used * eta`` to the bit.  A record without a decision is
    not passed here.
    """
    assert dec.case in DECISION_CASES, dec
    assert 0.0 <= dec.lambda_value <= 1.0, dec
    if dec.case == "gamma_zero_or_ge_one":
        assert dec.lambda_value == 0.0, dec
    elif dec.case == "pass_through":
        assert dec.lambda_value == 1.0, dec
    gate = dec.r_used * dec.eta
    assert struct.pack("<d", dec.beta) == struct.pack("<d", gate), dec


@pytest.fixture(scope="session")
def check_decision():
    """The ``SafeguardDecision`` invariant check, as a callable."""
    return _check_decision
