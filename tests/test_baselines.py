import numpy as np
import pytest

from osruq import baselines as bl


def test_method_names_wire_format():
    assert bl.METHOD_NAMES == ("AccScr", "SCF", "PFE", "SF", "GalUE", "HolUE", "HolUE-sum")


def test_q_accscr_distance_from_threshold():
    assert bl.q_accscr(0.9, 0.6) == pytest.approx(0.3)
    assert bl.q_accscr(0.3, 0.6) == pytest.approx(0.3)
    assert bl.q_accscr(0.6, 0.6) == 0.0


def test_q_scf_passthrough_and_validation():
    assert bl.q_scf(np.array([17.5, 2.0])).tolist() == [17.5, 2.0]
    with pytest.raises(ValueError):
        bl.q_scf(np.array([17.5, 0.0]))
    with pytest.raises(ValueError):
        bl.q_scf(np.array([float("inf")]))


def test_q_pfe_harmonic_mean():
    # harmonic mean of (1, 1/3) is 1/2
    np.testing.assert_allclose(bl.q_pfe(np.array([[1.0, 1.0 / 3.0], [1.0, 1.0 / 3.0]])), [-0.5, -0.5])
    assert bl.q_pfe(np.array([[2.0, 2.0, 2.0]]))[0] == pytest.approx(-2.0)
    with pytest.raises(ValueError):
        bl.q_pfe(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError):
        bl.q_pfe(np.array([1.0, 2.0]))  # one probe's variances must be a row


def test_q_pfe_rows_match_one_probe_at_a_time():
    rng = np.random.default_rng(5)
    for d in (16, 128, 512):
        s = rng.uniform(0.01, 2.0, size=(300, d))
        assert bl.q_pfe(s).tolist() == [float(-d / np.sum(1.0 / row)) for row in s]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_q_pfe_of_a_subnormal_variance_is_minus_zero():
    # 1 / 5e-324 overflows to inf, so the harmonic mean is 0: the limit, with no warning
    scores = bl.q_pfe(np.array([[5e-324, 1.0], [0.5, 0.25]]))
    assert scores[0] == 0.0 and np.signbit(scores[0])
    assert scores[1] == -2.0 / 6.0


def test_q_pfe_orders_by_uncertainty():
    tight, loose = bl.q_pfe(np.array([np.full(8, 0.01), np.full(8, 0.5)]))
    assert tight > loose


def test_q_sf_passthrough():
    assert bl.q_sf(np.array([-1.25, 3.0])).tolist() == [-1.25, 3.0]
    with pytest.raises(ValueError):
        bl.q_sf(np.array([0.5, float("nan")]))
