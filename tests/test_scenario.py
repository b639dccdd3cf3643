import math

import numpy as np
import pytest

import txsecrecy as tx

GOOD = dict(n_transmitters=3, n_eavesdroppers=2, backhaul_reliability=0.9,
            dest_rate=0.01, eave_rates=(0.25, 0.125), threshold_rate=1.0)


@pytest.mark.parametrize("field, value", [
    ("dest_rate", math.nan),
    ("dest_rate", math.inf),
    ("eave_rates", (0.25, math.nan)),
    ("eave_rates", (math.inf, 0.125)),
    ("threshold_rate", math.nan),
    ("threshold_rate", math.inf),
    ("backhaul_reliability", math.nan),
])
def test_non_finite_inputs_are_refused(field, value):
    # a NaN once passed every comparison and came back as a NaN SOP
    with pytest.raises(ValueError, match=field):
        tx.Scenario(**{**GOOD, field: value})


@pytest.mark.parametrize("field", ("n_transmitters", "n_eavesdroppers"))
@pytest.mark.parametrize("value", (2.5, 2.0, True, "2", None))
def test_non_integer_counts_are_refused(field, value):
    # 2.5 once raised a TypeError inside math.comb and True was taken as 1
    with pytest.raises(ValueError, match=field):
        tx.Scenario(**{**GOOD, field: value})


def test_numpy_integer_counts_are_accepted():
    sc = tx.Scenario(**{**GOOD, "n_transmitters": np.int64(3), "n_eavesdroppers": np.int32(2)})
    spec = tx.SchemeSpec(tx.Scheme.MIN_ES, tx.Knowledge.BKA)
    assert tx.sop(sc, spec) == tx.sop(tx.Scenario(**GOOD), spec)
