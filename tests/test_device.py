import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from synstdp import DeviceModel, ProbModel, reset_probability, set_probability
from synstdp._cephes import _MAXLOG, erf, exp
from synstdp.device import _SCREEN_CELLS, _screen, switch_draws
from synstdp.montecarlo import _lrs_draws, _point_stream

# standard-normal table values
PHI_3 = 0.99865
PHI_M3 = 0.00135
PHI_22 = 0.98610


def phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@pytest.fixture
def dev():
    return DeviceModel()


def test_set_probability_examples(dev):
    # at the mean threshold the lower-limit correction term is < 1e-22
    assert abs(set_probability(dev, 1.0) - 0.5) < 1e-12
    assert abs(set_probability(dev, 1.3) - PHI_3) < 1e-4
    assert abs(set_probability(dev, 0.7) - PHI_M3) < 1e-4
    assert set_probability(dev, 0.0) == 0.0
    assert set_probability(dev, -0.5) == 0.0


def test_reset_probability_examples(dev):
    assert abs(reset_probability(dev, -1.0) - 0.5) < 1e-12
    assert abs(reset_probability(dev, -1.22) - phi(2.2)) < 1e-12
    assert abs(phi(2.2) - PHI_22) < 1e-4
    assert reset_probability(dev, 0.5) == 0.0
    assert reset_probability(dev, 0.0) == 0.0


def test_three_sigma_invariant(dev):
    assert abs(set_probability(dev, dev.vth_pos + 3 * dev.sigma_th) - PHI_3) < 1e-4
    assert abs(set_probability(dev, dev.vth_pos - 3 * dev.sigma_th) - PHI_M3) < 1e-4


def test_monotone_in_magnitude(dev):
    rng = np.random.default_rng(7)
    v = np.sort(rng.uniform(0.0, 3.0, 200))
    ps = set_probability(dev, v)
    assert np.all(np.diff(ps) >= 0.0)
    pr = reset_probability(dev, -v)
    assert np.all(np.diff(pr) >= 0.0)
    assert np.all((ps >= 0) & (ps <= 1)) and np.all((pr >= 0) & (pr <= 1))


def test_linear_model():
    dev = DeviceModel(prob_model=ProbModel(kind="linear", gamma=2.0))
    assert set_probability(dev, 1.25) == 0.5
    assert set_probability(dev, 1.0) == 0.0
    assert set_probability(dev, 1.5) == 1.0
    assert set_probability(dev, 2.0) == 1.0
    # continuous and piecewise linear across the ramp
    v = np.linspace(0.5, 2.0, 301)
    p = set_probability(dev, v)
    assert np.all(np.abs(np.diff(p)) <= 2.0 * (v[1] - v[0]) + 1e-12)
    assert reset_probability(dev, -1.25) == 0.5


# ON conductances are drawn by the window engine, normalized by 1/r_on

def test_sample_on_conductance_zero_variance():
    stream = _point_stream(0, 0)
    assert np.array_equal(_lrs_draws(stream, 0.0, (4, 16)), np.ones((4, 16)))
    assert stream.random() == _point_stream(0, 0).random()  # no draw taken


def test_sample_on_conductance_statistics():
    draws = _lrs_draws(_point_stream(123, 0), 0.1, 100_000)
    assert np.all(draws > 0.0)
    assert abs(draws.mean() - 1.0) < 0.001
    assert abs(draws.std() - 0.1) < 0.1 * 0.02


def test_sample_on_conductance_redraw_rule():
    # sigma close to the cap makes nonpositive raw draws plausible
    raw = 1.0 + _point_stream(5, 0).normal(0.0, 0.49, 20_000)
    draws = _lrs_draws(_point_stream(5, 0), 0.49, 20_000)
    assert (raw <= 0.0).sum() > 100 and draws.min() > 0.0
    assert np.array_equal(draws[raw > 0.0], raw[raw > 0.0])  # only those are redrawn


@pytest.mark.parametrize("sigma", [0.1, 0.3, 0.45, 0.49])
def test_on_conductance_mean_is_the_truncated_normal_mean(sigma):
    # draws are kept within 6 sigma of 1 and above 0 (_lrs_draws)
    stats = pytest.importorskip("scipy.stats")
    mean = stats.truncnorm(max(-6.0, -1.0 / sigma), 6.0, loc=1.0, scale=sigma).mean()
    assert abs(DeviceModel(sigma_lrs=sigma).g_on_mean - mean) <= 1e-15


def test_on_conductance_mean_is_one_at_small_spread():
    # the golden cases use sigma_lrs 0 or 0.1: their analytic step keeps its
    # float.  Below 1/6 the truncation to 1 +- 6 sigma is symmetric
    assert DeviceModel(sigma_lrs=0.0).g_on_mean == 1.0
    assert DeviceModel(sigma_lrs=0.1).g_on_mean == 1.0
    assert DeviceModel(sigma_lrs=1.0 / 6.0).g_on_mean == 1.0
    assert DeviceModel(sigma_lrs=0.17).g_on_mean > 1.0


class StubStream:
    """A point stream whose first `normal` call returns `first` in place of
    its leading draws; every other draw is the wrapped stream's."""

    def __init__(self, stream, first):
        self.stream, self.first = stream, list(first)

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def normal(self, loc, scale, size=None):
        out = self.stream.normal(loc, scale, size)
        if self.first:
            out.flat[:len(self.first)], self.first = self.first, []
        return out


def test_on_conductance_beyond_six_sigma_is_redrawn():
    sigma = 0.1
    stub = StubStream(_point_stream(9, 0), [1.0 + 6.5 * sigma, 1.0 - 6.5 * sigma, 1.25])
    draws = _lrs_draws(stub, sigma, 5)
    raw = _point_stream(9, 0)
    first = raw.normal(1.0, sigma, 5)
    assert np.array_equal(draws[2:], np.r_[1.25, first[3:]])  # in range: kept
    assert np.array_equal(draws[:2], raw.normal(1.0, sigma, 2))  # redrawn, in order
    assert np.all(np.abs(draws - 1.0) < 6.0 * sigma)
    # at sigma >= 1/6 the lower limit is 0: a draw below 1 - 6 sigma but above
    # 0 is kept, one at or below 0 is not; the limits themselves are kept
    stub = StubStream(_point_stream(9, 0), [0.0, 0.01, 1.0 + 6.0 * 0.3])
    draws = _lrs_draws(stub, 0.3, 3)
    assert draws[1] == 0.01 and 0.0 < draws[0] and draws[2] == 1.0 + 6.0 * 0.3
    # 1 +- 6 sigma round to 1 as the draws do, so the draws (all 1) are kept
    assert np.array_equal(_lrs_draws(_point_stream(9, 0), 1e-300, 4), np.ones(4))


def test_validation():
    with pytest.raises(ValueError):
        DeviceModel(vth_pos=-1.0)
    with pytest.raises(ValueError):
        DeviceModel(vth_neg=1.0)
    with pytest.raises(ValueError):
        DeviceModel(sigma_th=0.0)
    with pytest.raises(ValueError):
        DeviceModel(sigma_lrs=0.5)
    with pytest.raises(ValueError):
        DeviceModel(r_off_ratio=0.5)
    with pytest.raises(ValueError):
        ProbModel(kind="nope")


def test_off_conductance_default_zero(dev):
    assert dev.g_off_norm == 0.0
    assert DeviceModel(r_off_ratio=100.0).g_off_norm == 0.01


# erf: a numpy port of Cephes ndtr.c, checked against scipy's, which is the
# same algorithm with the C library's exp

def neighbours(x, count=8):
    """x and its `count` nearest floats on each side."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(count):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


ERF_EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan,
    *[s * y for s in (1.0, -1.0) for x in (1.0, 8.0) for y in neighbours(x)],
    *np.linspace(26.5, 27.3, 801), *np.linspace(-27.3, -26.5, 801),
])


def ulps(a, b):
    """Distance in units in the last place between same-signed floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.parametrize("x", [np.linspace(-30.0, 30.0, 3_000_001), ERF_EDGES],
                         ids=["dense-grid", "edges"])
def test_erf_within_one_ulp_of_scipy(x):
    special = pytest.importorskip("scipy.special")
    got, want = erf(x), special.erf(x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    live = ~np.isnan(want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert ulps(got[live], want[live]).max() <= 1


def test_erf_exact_values():
    assert erf(0.0) == 0.0 and np.signbit(erf(-0.0))
    assert erf(np.inf) == 1.0 and erf(-np.inf) == -1.0 and np.isnan(erf(np.nan))
    assert erf(6.0) == 1.0 and erf(-30.0) == -1.0
    x = np.linspace(0.0, 30.0, 10_001)
    assert np.array_equal(erf(-x), -erf(x))


def test_erf_monotone():
    assert np.all(np.diff(erf(np.linspace(-30.0, 30.0, 3_000_001))) >= 0.0)
    # float by float it may step back by an ulp (so may scipy's), never more
    for x in (0.3, 1.0, 2.5, 8.0):
        y = erf(np.array(sorted(neighbours(x, 200))))
        assert (np.maximum.accumulate(y) - y).max() <= np.spacing(1.0)


@pytest.mark.parametrize("x,shape", [(0.5, ()), (np.float64(-2.0), ()), (np.array(9.0), ()),
                                     (np.zeros(0), (0,)), (np.zeros((2, 0)), (2, 0)),
                                     ([[0.5, 1.5, 9.0]], (1, 3))])
def test_erf_keeps_shape(x, shape):
    assert np.shape(erf(x)) == shape


# exp: a numpy port of Cephes exp.c, which the erf above and the curved spikes use

def test_exp_within_two_ulps_of_math_exp():
    x = np.linspace(-_MAXLOG, 0.0, 200_001)
    want = np.array([math.exp(v) for v in x.tolist()])
    assert ulps(exp(x), want).max() <= 2 and exp(0.0) == exp(-0.0) == 1.0


@pytest.mark.filterwarnings("error")
def test_exp_is_zero_below_maxlog_without_a_warning():
    x = np.array([-np.inf, -1e300, -800.0])
    assert exp(x).tobytes() == np.zeros(3).tobytes()
    assert [exp(v) for v in x.tolist()] == [0.0, 0.0, 0.0]


def test_cli_imports_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, synstdp.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# switch_draws: the screened draws are exactly u < p(v)

LAWS = {"gaussian": DeviceModel(),
        "linear": DeviceModel(prob_model=ProbModel(kind="linear", gamma=2.0)),
        # p moves by more than the screen's slack between neighbouring floats
        # near the threshold, so a drive filed one cell off shows
        "steep": DeviceModel(sigma_th=0.002)}
POLARITIES = {1: set_probability, -1: reset_probability}


def drive_cases(polarity):
    """Drives, more than _SCREEN_CELLS of them so that the screen's table is
    used where some drive is above zero: random ones of both signs, table
    nodes and their neighbours, cell midpoints (the table spans [0, 2] for a
    top drive in (1, 2], which "nodes" reaches and "nodes-below-top" does
    not), drives of the other sign, all-zero and empty arrays."""
    rng = np.random.default_rng(3)
    nodes = np.linspace(0.0, 2.0, _SCREEN_CELLS + 1)
    on_grid = np.concatenate([nodes, np.nextafter(nodes, -1.0), np.nextafter(nodes, 3.0),
                              (nodes[1:] + nodes[:-1]) / 2])
    return {
        "random": polarity * rng.normal(0.8, 0.5, (600, 16)),
        "nodes": polarity * np.minimum(np.abs(on_grid), 2.0),
        "nodes-below-top": polarity * np.minimum(np.abs(on_grid), 1.7),
        "small": polarity * rng.uniform(0.0, 0.95, 5000),
        "wrong-sign": -polarity * rng.uniform(0.0, 2.0, 5000),
        "zero": np.zeros((400, 16)),
        "empty": np.zeros((0, 16)),
    }


@pytest.mark.parametrize("polarity", sorted(POLARITIES))
@pytest.mark.parametrize("law", sorted(LAWS))
def test_switch_draws_equal_u_below_p(law, polarity):
    m, p_of = LAWS[law], POLARITIES[polarity]
    rng = np.random.default_rng(11)
    for name, v in drive_cases(polarity).items():
        p = p_of(m, v)
        for u in (rng.random(v.shape), p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)):
            got = switch_draws(m, u, v, polarity)
            assert got.shape == v.shape and got.dtype == bool
            assert np.array_equal(got, u < p), (law, polarity, name)


def test_switch_draws_small_and_broadcast_drives():
    # with fewer drives than table nodes the law is evaluated on each drive,
    # and the drives broadcast against the draws
    m, rng = DeviceModel(), np.random.default_rng(5)
    v, u = rng.uniform(0.0, 1.5, 16), rng.random((1000, 16))
    assert np.array_equal(switch_draws(m, u, v, 1), u < set_probability(m, v))
    assert np.array_equal(switch_draws(m, u, -v, -1), u < reset_probability(m, -v))


def test_switch_screen_table_built_once_per_octave():
    """Drives whose top falls in one octave, (1, 2] here, share one table."""
    m, rng = DeviceModel(sigma_th=0.07), np.random.default_rng(8)
    _screen.cache_clear()
    for top in (1.2, 1.5, 1.99, 2.0, 2.01):
        v = np.append(rng.uniform(-top, top, 5000), top)
        u = rng.random(v.shape)
        assert np.array_equal(switch_draws(m, u, v, 1), u < set_probability(m, v))
    assert _screen.cache_info().misses == 2  # the tables over [0, 2] and [0, 4]
