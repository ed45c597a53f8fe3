"""Input checks that no other test reaches: each rejects its input with its
own exception type and message."""

import re

import numpy as np
import pytest

from conftest import lorentz, zero_field
from uinf import reduction, sphere_algebra, tensor_kernels
from uinf.cli import main
from uinf.gauge_fields import random_gauge_config
from uinf.reduction import Background, BlockMetric
from uinf.sphere_algebra import HarmonicField, grid_for_band_limit


def _jets(dim):
    return random_gauge_config(dim, 1, np.random.default_rng(0), amplitude=0.1)


def _config_line_without_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed\n")
    return main(["algebra", "su2", "--config", str(path)])


def _overflowing_determinant(tmp_path):
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0], F[2, 3], F[3, 2] = 1e300, -1e300, 1e300, -1e300
    with np.errstate(over="ignore", invalid="ignore"):
        tensor_kernels.born_infeld_density(F, lorentz(4), 0.5, 1.0)


# (call on tmp_path, exception type or the exit code of main, message)
CASES = {
    "config_line_without_equals": (_config_line_without_equals, 2,
                                   "config line without '=': 'seed'"),
    "asymmetric_metric": (lambda _: BlockMetric(np.array([[-1.0, 0.5], [0.0, 1.0]]), 1.0),
                          ValueError, "spacetime metric must be symmetric"),
    "metric_jet_dimension_mismatch": (
        lambda _: reduction.reduce_yang_mills(_jets(2), BlockMetric(lorentz(4), 1.0),
                                              Background(2.0)),
        ValueError, "metric dimension does not match the jet"),
    "two_dim_report_at_dim_3": (
        lambda _: reduction.two_dim_report(_jets(3), BlockMetric(lorentz(3), 1.0), Background(2.0)),
        ValueError, "this check needs exactly two spacetime dimensions"),
    "born_infeld_euclidean_block": (
        lambda _: reduction.born_infeld_report(_jets(2), np.eye(2), Background(2.0), 0.5, 1.0,
                                               [1.0]),
        ValueError, "the spacetime block must carry one negative direction"),
    "coefficient_shape": (lambda _: HarmonicField(1, np.zeros((2, 2))),
                          ValueError, "coefficient array shape does not match l_max"),
    "basis_m_above_l": (lambda _: HarmonicField.basis(1, 2), ValueError, "need |m| <= l"),
    "pad_to_shrinks": (lambda _: zero_field(2).pad_to(1),
                       ValueError, "pad_to cannot shrink the band limit"),
    "from_dict_above_l_max": (
        lambda _: HarmonicField.from_dict({"l_max": 1, "coeffs": [{"l": 2, "m": 0}]}),
        ValueError, "coefficient entry outside the band limit"),
    "synthesize_on_coarse_grid": (
        lambda _: sphere_algebra.synthesize([zero_field(4)], grid_for_band_limit(2)),
        ValueError, "grid too coarse for band limit"),
    "analyze_on_coarse_grid": (
        lambda _: sphere_algebra.analyze(np.zeros((3, 5)), 4, grid_for_band_limit(2)),
        ValueError, "grid too coarse for band limit"),
    "values_off_the_grid": (
        lambda _: sphere_algebra.analyze(np.zeros((2, 2)), 1, grid_for_band_limit(2)),
        ValueError, "value array does not match the grid"),
    "structure_constants_at_0": (lambda _: sphere_algebra.structure_constants(0),
                                 ValueError, "l_max must be positive"),
    "overflowing_born_infeld_determinant": (_overflowing_determinant, FloatingPointError,
                                            "determinant is not finite (an overflow)"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises_its_message(tmp_path, capsys, call, error, message):
    if error == 2:  # through main: exit 2, the error line naming the flag and the message
        assert call(tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: argument --config: ") and err.endswith(": %s\n" % message)
        return
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        call(tmp_path)
