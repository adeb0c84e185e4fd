"""Bad arguments raise the package's ``ParameterError``, a ``GswError``."""
import numpy as np
import pytest

from gswalk import harness, inequalities, smoothed
from gswalk.exceptions import GswError, ParameterError

BAD_CALLS = {
    "cosh_chain_check": lambda tmp: inequalities.cosh_chain_check(1.0, 0.5),
    "proxy_above_one": lambda tmp: inequalities.BoundInputs(2.0, 1.0),
    "block_count_below_one": lambda tmp: inequalities.BoundInputs(0.5, 0.5),
    "sample_perturbation": lambda tmp: smoothed.sample_perturbation(
        2, 2, 0.0, np.random.default_rng(0)),
    "epsilon_of": lambda tmp: smoothed.epsilon_of(1.0, 1, 32.0),
    "cube_gaussian_measure": lambda tmp: smoothed.cube_gaussian_measure(0.0, 2),
    "estimate_bound": lambda tmp: harness.estimate_bound(harness.RunStats(
        np.arange(0), np.empty(0), np.arange(0), np.empty(0), np.empty((0, 2)))),
    "csv_without_stats": lambda tmp: harness.write_report(None, tmp / "r.csv", fmt="csv"),
    "unknown_format": lambda tmp: harness.write_report(None, tmp / "r.xml", fmt="xml"),
}


@pytest.mark.parametrize("name", BAD_CALLS)
def test_bad_argument_is_a_gsw_error(name, tmp_path):
    with pytest.raises(GswError) as info:
        BAD_CALLS[name](tmp_path)
    assert isinstance(info.value, ParameterError) and isinstance(info.value, ValueError)
