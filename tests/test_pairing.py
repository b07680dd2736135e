import tracemalloc

import numpy as np
import pytest

from synstdp import (DendriteBank, DeviceModel, PairingGeometry, SpikeWaveform,
                     all_branch_drives, branch_drives)
from synstdp.pairing import _SCAN_ELEMENTS, CandidateTable, candidate_tables
from synstdp.waveforms import EDGE_SNAP_TOL
from tests.test_device import phi


def dense_grid_peaks(pre, post, alpha, delay, delta_t, step=0.001, pair_only=True):
    """Independent oracle: brute-force extrema over a dense time grid."""
    lo = min(pre.support()[0] + delay, post.support()[0] + delta_t) - 0.1
    hi = max(pre.support()[1] + delay, post.support()[1] + delta_t) + 0.1
    t = np.arange(lo, hi, step)
    po = post.limits_with_support(t - delta_t, +1)[0]
    pr = alpha * pre.limits_with_support(t - delay, +1)[0]
    v = po - pr
    if pair_only:
        v = np.where((po != 0) & (pr != 0), v, 0.0)
    return float(v.max()), float(v.min())


@pytest.fixture
def hrht():
    return SpikeWaveform("hrht")


def geometry(alpha=1.0, n=1, delay=0.0, pair_only=True, **dev_kw):
    w = SpikeWaveform("hrht")
    return PairingGeometry(pre=w, post=w, bank=DendriteBank(n, alpha, alpha, delay, "uniform"),
                           device=DeviceModel(**dev_kw), pair_only=pair_only)


def drive(g, i, delta_t):
    """Drive of branch i (1-based) at offset delta_t."""
    return all_branch_drives(g, delta_t)[i - 1]


def candidate_potential(g, i, delta_t):
    """Branch i's potential at its candidate times; a table holds only the
    candidates where the potential is evaluated."""
    tbl = candidate_tables(g, delta_t)
    count = tbl.counts[i - 1]
    return tbl.t[:count, i - 1], (tbl.post_v - tbl.pre_v)[:count, i - 1]


def test_trace_peaks_pre_before_post(hrht):
    g = geometry(alpha=1.0)
    t, v = candidate_potential(g, 1, 0.5)
    assert v.max() == 1.3            # post head over pre tail at t=0
    assert abs(v.min() - (-0.04)) < 1e-12


def test_trace_disjoint_supports(hrht):
    g = geometry()
    t, v = candidate_potential(g, 1, 20.0)
    assert t.shape == (0,) and v.shape == (0,)
    d = drive(g, 1, 20.0)
    assert (d.v_max, d.v_min, d.reset_later, d.p_set, d.p_reset) == (0.0, 0.0, True, 0.0, 0.0)


def test_trace_attenuated_post_before_pre(hrht):
    g = geometry(alpha=0.6)
    t, v = candidate_potential(g, 1, -2.0)
    assert abs(v.min() - (-0.86)) < 1e-12
    assert abs(v.max() - 0.096) < 1e-12  # candidates hold the exact peak


def test_drive_peaks_match_dense_grid_oracle(hrht):
    for delta_t in (-4.5, -2.0, -0.3, 0.5, 1.7, 3.2, 5.5):
        for alpha in (0.6, 0.85, 1.0):
            g = geometry(alpha=alpha)
            d = drive(g, 1, delta_t)
            vmax, vmin = dense_grid_peaks(hrht, hrht, alpha, 0.0, delta_t)
            assert d.v_max >= vmax - 1e-12 and d.v_max - vmax < 2e-3
            assert d.v_min <= vmin + 1e-12 and vmin - d.v_min < 2e-3


def test_drive_peaks_exact_values(hrht):
    assert drive(geometry(1.0), 1, 0.5).v_max == 1.3
    d = drive(geometry(1.0), 1, 2.0)
    assert abs(d.v_max - 1.22) < 1e-12          # 0.9 + 0.4*(1 - 1/5)
    d = drive(geometry(0.6), 1, 2.0)
    assert abs(d.v_max - 1.092) < 1e-12         # 0.9 + 0.24*0.8
    d = drive(geometry(0.6), 1, -2.0)
    assert abs(d.v_min - (-0.86)) < 1e-12       # -(0.6*0.9 + 0.4*0.8)
    assert abs(d.v_max - 0.096) < 1e-12


def test_drive_probability_examples(hrht):
    d = drive(geometry(1.0), 1, 0.5)
    assert abs(d.p_set - phi(3.0)) < 1e-12 and abs(d.p_set - 0.99865) < 1e-4
    assert d.p_reset < 1e-12                     # Phi(-9.6)
    d = drive(geometry(1.0), 1, 2.0)
    assert abs(d.p_set - phi(2.2)) < 1e-12 and abs(d.p_set - 0.98610) < 1e-4
    d = drive(geometry(0.6), 1, 2.0)
    assert abs(d.p_set - phi(0.92)) < 1e-12 and abs(d.p_set - 0.82121) < 1e-4
    d = drive(geometry(0.6), 1, -2.0)
    assert abs(d.p_reset - phi(-1.4)) < 1e-12 and abs(d.p_reset - 0.08076) < 1e-4


def test_potentiation_plateau(hrht):
    for alpha in (0.6, 1.0):
        g = geometry(alpha)
        vmax = [drive(g, 1, dt).v_max for dt in np.arange(0.1, 1.0, 0.1)]
        assert max(vmax) - min(vmax) == 0.0
        assert abs(vmax[0] - (0.9 + 0.4 * alpha)) < 1e-12


def test_depression_plateau(hrht):
    for alpha in (0.6, 1.0):
        g = geometry(alpha)
        vmin = [drive(g, 1, dt).v_min for dt in np.arange(-0.9, 0.0, 0.1)]
        assert max(vmin) - min(vmin) == 0.0
        assert abs(vmin[0] + (0.9 * alpha + 0.4)) < 1e-12


def test_peak_monotone_beyond_plateau(hrht):
    g = geometry(1.0)
    vmax = [drive(g, 1, dt).v_max for dt in np.arange(1.0, 6.0, 0.25)]
    assert np.all(np.diff(vmax) <= 1e-15)
    vmin = [drive(g, 1, -dt).v_min for dt in np.arange(1.0, 6.0, 0.25)]
    assert np.all(np.diff(vmin) >= -1e-15)


def test_attenuation_monotonicity():
    w = SpikeWaveform("hrht")
    bank = DendriteBank(16, 0.6, 1.0, 0.0)
    g = PairingGeometry(pre=w, post=w, bank=bank, device=DeviceModel())
    for dt in (0.5, 2.0, 4.0):
        ps = [d.p_set for d in all_branch_drives(g, dt)]
        assert np.all(np.diff(ps) >= 0.0)
    for dt in (-0.5, -2.0, -4.0):
        pr = [d.p_reset for d in all_branch_drives(g, dt)]
        assert np.all(np.diff(pr) >= 0.0)


def test_voltage_spread_asymmetry():
    """Attenuation acts on the pre tail for potentiation (narrow spread) and
    on the pre head for depression (wide spread)."""
    w = SpikeWaveform("hrht")
    bank = DendriteBank(16, 0.6, 1.0, 0.0)
    g = PairingGeometry(pre=w, post=w, bank=bank, device=DeviceModel())
    vmax = [d.v_max for d in all_branch_drives(g, 1.0)]
    vmin = [d.v_min for d in all_branch_drives(g, -1.0)]
    assert abs((max(vmax) - min(vmax)) - 0.16) < 1e-12   # (1-0.6)*A_minus
    assert abs((max(vmin) - min(vmin)) - 0.36) < 1e-12   # (1-0.6)*A_plus


def test_uniform_bank_identical_drives():
    w = SpikeWaveform("hrht")
    g = PairingGeometry(pre=w, post=w, bank=DendriteBank(16, 1.0, 1.0, 0.0), device=DeviceModel())
    for dt in (-3.0, -0.5, 0.5, 2.5):
        drives = all_branch_drives(g, dt)
        assert all(d == drives[0] for d in drives)


def test_pair_only_false_exposes_lone_spike_disturb():
    g = geometry(alpha=1.0, pair_only=False)
    d = drive(g, 1, 20.0)  # spikes never overlap
    assert abs(d.v_min - (-0.9)) < 1e-12   # lone pre head across the device
    assert abs(d.v_max - 0.9) < 1e-12      # lone post head
    assert abs(d.p_reset - phi(-1.0)) < 1e-12
    assert abs(d.p_set - phi(-1.0)) < 1e-12


def test_dt_step_validation(hrht):
    dexp = SpikeWaveform("dexp")
    # the min(tau_minus)/10 cap holds only where the curved-piece grid reads dt_step
    with pytest.raises(ValueError, match="^dt_step: must be <= "):
        PairingGeometry(pre=hrht, post=dexp, bank=DendriteBank(1, 1, 1, 0),
                        device=DeviceModel(), dt_step=0.2)
    PairingGeometry(pre=hrht, post=hrht, bank=DendriteBank(1, 1, 1, 0),
                    device=DeviceModel(), dt_step=0.2)
    for pre in (hrht, dexp):
        with pytest.raises(ValueError, match="^dt_step: must be positive"):
            PairingGeometry(pre=pre, post=pre, bank=DendriteBank(1, 1, 1, 0),
                            device=DeviceModel(), dt_step=0.0)


def test_branch_drives_match_per_branch_drives():
    """The (..., n) arrays of branch_drives: row k under per-epoch scales is
    the scalar drive at those scales, reset_later included.
    On the fig7_delay bank with pair_only, 6 and then all 16 branches have
    empty columns."""
    sawtooth, hrht = SpikeWaveform("sawtooth"), SpikeWaveform("hrht")
    loose = PairingGeometry(pre=sawtooth, post=sawtooth, bank=DendriteBank(16, 0.6, 1.0, 0.3),
                            device=DeviceModel(), pair_only=False)
    fig7_delay = PairingGeometry(pre=hrht, post=hrht, bank=DendriteBank(16, 0.6, 1.0, 0.3, "ramp"),
                                 device=DeviceModel())
    s_pre, s_post = np.array([1.0, 0.93, 1.08]), np.array([1.0, 1.05, 0.9])
    cases = [(loose, dt, 0) for dt in (-2.0, -0.2, 0.0, 0.4, 3.0)]
    for g, dt, empty in cases + [(fig7_delay, -5.8, 6), (fig7_delay, -6.0, 16)]:
        table = candidate_tables(g, dt)
        assert np.count_nonzero(table.counts == 0) == empty
        d = branch_drives(g, table, s_pre, s_post)
        assert d.p_set.shape == d.reset_later.shape == (3, 16)
        for k in range(3):
            want = all_branch_drives(g, dt, s_pre[k], s_post[k])
            for f in ("v_max", "v_min", "reset_later", "p_set", "p_reset"):
                assert getattr(d, f)[k].tolist() == [getattr(x, f) for x in want], (dt, k, f)


def test_drive_peaks_curved_shapes_match_dense_grid():
    dev = DeviceModel()
    for shape in ("dexp", "bio"):
        w = SpikeWaveform(shape)
        g = PairingGeometry(pre=w, post=w, bank=DendriteBank(1, 0.8, 0.8, 0.0),
                            device=dev)
        for delta_t in (-3.0, -1.2, 0.4, 1.5, 3.7):
            d = drive(g, 1, delta_t)
            vmax, vmin = dense_grid_peaks(w, w, 0.8, 0.0, delta_t, step=0.0005)
            # curved pieces rely on dt_step sampling between breakpoints
            assert abs(d.v_max - vmax) < 0.05
            assert abs(d.v_min - vmin) < 0.05


def test_curved_grid_skips_the_gap_between_the_spikes():
    """Without pair_only the grid covers each spike's support, not the gap
    between them: spikes 400 apart cost what spikes 20 apart do."""
    w = SpikeWaveform("bio")
    g = PairingGeometry(pre=w, post=w, bank=DendriteBank(16, 0.6, 1.0, 0.3, "ramp"),
                        device=DeviceModel(), pair_only=False)
    peaks, counts = [], []
    for delta_t in (20.0, 400.0):
        tracemalloc.start()
        try:
            counts.append(candidate_tables(g, delta_t).counts.tolist())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert counts[0] == counts[1] and peaks[1] < 1.5 * peaks[0], peaks


def test_rectangular_pre_spike_makes_flat_window():
    """A rectangular tail keeps the peak potential independent of the offset,
    so the switching probability is constant across the whole overlap."""
    pre = SpikeWaveform("rect")
    post = SpikeWaveform("hrht")
    g = PairingGeometry(pre=pre, post=post, bank=DendriteBank(1, 1.0, 1.0, 0.0),
                        device=DeviceModel())
    ps = [drive(g, 1, dt).p_set for dt in np.arange(0.5, 5.9, 0.3)]
    assert max(ps) - min(ps) < 1e-12
    assert abs(ps[0] - phi(3.0)) < 1e-12  # peak 0.9 + 0.4 throughout


def test_mixed_pre_post_waveforms():
    pre = SpikeWaveform("hrht")
    post = SpikeWaveform("sawtooth")
    g = PairingGeometry(pre=pre, post=post, bank=DendriteBank(2, 0.6, 1.0, 0.0),
                        device=DeviceModel())
    d = drive(g, 2, 2.0)
    vmax, vmin = dense_grid_peaks(pre, post, 1.0, 0.0, 2.0)
    assert d.v_max >= vmax - 1e-12 and d.v_max - vmax < 2e-3


def reference_table(g, i, delta_t):
    """Branch i's candidate table built one scalar one-sided limit at a time;
    the piece is picked at the edge-snapped time, evaluated at the unsnapped."""
    def limit(w, t, side):
        pieces = w.pieces()
        at = next((e for p in pieces for e in (p.lo, p.hi) if abs(t - e) <= EDGE_SNAP_TOL), t)
        for p in pieces:
            if (p.lo <= at < p.hi) if side > 0 else (p.lo < at <= p.hi):
                return float(p.func(np.asarray([t], dtype=float))[0]), True
        return 0.0, False
    alpha, delay = g.bank.alphas[i - 1], g.bank.delays[i - 1]
    pre_lo, pre_hi = (x + delay for x in g.pre.support())
    post_lo, post_hi = (x + delta_t for x in g.post.support())
    lo, hi = ((max(pre_lo, post_lo), min(pre_hi, post_hi)) if g.pair_only
              else (min(pre_lo, post_lo), max(pre_hi, post_hi)))
    if lo >= hi:
        return np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1, dtype=bool)
    edges = np.concatenate([g.pre.breakpoints() + delay, g.post.breakpoints() + delta_t])
    edges = edges[(edges >= lo - 1e-12) & (edges <= hi + 1e-12)]
    times = [(float(e), side) for e in edges for side in (-1, +1)]
    if g.pre.has_curved_pieces() or g.post.has_curved_pieces():
        k0, k1 = int(np.ceil(lo / g.dt_step - 1e-9)), int(np.floor(hi / g.dt_step + 1e-9))
        times += [(float(t), +1) for t in np.arange(k0, k1 + 1) * g.dt_step]
    times.sort(key=lambda e: (e[0], e[1]))
    post = [limit(g.post, t - delta_t, side) for t, side in times]
    pre = [limit(g.pre, t - delay, side) for t, side in times]
    valid = [(a and b) if g.pair_only else (a or b) for (_, a), (_, b) in zip(post, pre)]
    return (np.array([t for t, _ in times]), np.array([v for v, _ in post]),
            alpha * np.array([v for v, _ in pre]), np.array(valid))


ORACLE_BANKS = [(0.3, "ramp"), (0.37, "reversed"), (0.25, "uniform")]
ORACLE_OFFSETS = (-6.3, -4.5, -2.0, -1.1, -0.3, 0.0, 0.5, 1.7, 3.2, 5.5)
ORACLE_STEP = 0.05  # grid of the curved shapes; coarser than the default keeps the reference quick


@pytest.mark.parametrize("pair_only", [True, False])
@pytest.mark.parametrize("shape", ["hrht", "rect", "sawtooth", "dexp", "bio"])
def test_candidate_tables_bitwise_match_per_sample_reference(shape, pair_only):
    """Byte equality, so that -0.0 against 0.0 (or a last-bit change) fails;
    hrht with pair_only off at 3.2 is a case where evaluating at the snapped
    time would give -0.0 instead of -8.9e-17.  Past its candidates a column
    repeats its first one, and an empty column is all zeros."""
    w = SpikeWaveform(shape)
    for delay_max, assignment in ORACLE_BANKS:
        g = PairingGeometry(pre=w, post=w, bank=DendriteBank(16, 0.6, 1.0, delay_max, assignment),
                            device=DeviceModel(), dt_step=ORACLE_STEP, pair_only=pair_only)
        for delta_t in ORACLE_OFFSETS:
            table = candidate_tables(g, delta_t)
            fields = (table.t, table.post_v, table.pre_v)
            row = np.arange(len(table.t))[:, None]
            for x in fields:
                padded = np.where(row < table.counts, x, x[0])
                empty = x[:, table.counts == 0]
                assert padded.tobytes() == x.tobytes()
                assert not (empty.any() or np.signbit(empty).any())
            for i, count in enumerate(table.counts.tolist(), start=1):
                *columns, valid = reference_table(g, i, delta_t)
                # the kept rows are the reference's valid rows, byte for byte
                got, want = (x[:count, i - 1] for x in fields), (x[valid] for x in columns)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), \
                        (shape, pair_only, delay_max, assignment, delta_t, i)


def peaks(table, i, s_pre=1.0, s_post=1.0):
    """Oracle of branch_drives, one column at a time: (v_max, v_min,
    reset_later) of column i's candidates with both spikes rescaled, each
    shaped like the broadcast scales, from argmax / argmin over the column;
    reset_later is t[argmin] >= t[argmax], True for an empty column."""
    s_pre, s_post = np.broadcast_arrays(np.asarray(s_pre, dtype=float),
                                        np.asarray(s_post, dtype=float))
    count = table.counts[i]
    if not count:
        return np.zeros(s_pre.shape), np.zeros(s_pre.shape), np.ones(s_pre.shape, dtype=bool)
    t, post_v, pre_v = (x[:count, i] for x in (table.t, table.post_v, table.pre_v))
    v = s_post[..., None] * post_v - s_pre[..., None] * pre_v
    imax, imin = np.argmax(v, axis=-1), np.argmin(v, axis=-1)
    v_max = np.take_along_axis(v, imax[..., None], -1)[..., 0]
    v_min = np.take_along_axis(v, imin[..., None], -1)[..., 0]
    return np.maximum(v_max, 0.0), np.minimum(v_min, 0.0), t[imin] >= t[imax]


def _bank(shape, delay_max=0.3, pair_only=True, pre=None):
    w = SpikeWaveform(shape)
    return PairingGeometry(pre=SpikeWaveform(pre) if pre else w, post=w,
                           bank=DendriteBank(16, 0.6, 1.0, delay_max, "ramp"),
                           device=DeviceModel(), pair_only=pair_only)


def _tie_table():
    """A (400, 3) table: an empty column, a one-candidate column, and 400
    candidates repeating a 4-candidate pattern at distinct times, so that
    every extremum is tied across the blocks of the scan."""
    t, post_v, pre_v = np.zeros((3, 400, 3))
    t[:, 1], post_v[:, 1], pre_v[:, 1] = 0.7, 0.9, 0.4  # its candidate, then copies of it
    t[:, 2] = np.arange(400) * 0.01
    post_v[:, 2], pre_v[:, 2] = np.tile([[1.0, 0.5], [0.25, 0.0], [-1.0, 0.5], [1.0, 0.5]],
                                        (100, 1)).T
    return CandidateTable(t, post_v, pre_v, counts=np.array([0, 1, 400]))


def _scales():
    """Scalar, quadrature-node and per-epoch scales, each with scales of 0
    and below 0 among them."""
    rng = np.random.default_rng(7)
    nodes = 1.0 + 0.8 * np.polynomial.hermite_e.hermegauss(12)[0]
    epochs = 1.0 + 0.6 * rng.standard_normal((3000, 2))
    epochs[::7] = 0.0
    epochs[1::11, 0] = 0.0
    epochs[2::13, 1] = -0.0
    return {"scalar-1": (1.0, 1.0), "scalar-0": (0.0, 0.0), "scalar-post-0": (0.7, 0.0),
            "scalar-negative": (-0.5, 0.7),
            "nodes": (np.repeat(nodes, 12), np.tile(nodes, 12)),
            "epochs": (epochs[:, 0], epochs[:, 1])}


SCAN_TABLES = {  # id -> (table, expected number of empty columns)
    "fig7-delay-all-empty": (lambda: candidate_tables(_bank("hrht"), -6.0), 16),
    "fig7-delay-some-empty": (lambda: candidate_tables(_bank("hrht"), -5.8), 6),
    "fig7-delay-overlap": (lambda: candidate_tables(_bank("hrht"), -0.3), 0),
    "fig7-delay-zero": (lambda: candidate_tables(_bank("hrht"), 0.0), 0),
    "sawtooth-loose": (lambda: candidate_tables(_bank("sawtooth", pair_only=False), 0.4), 0),
    "rect-plateau": (lambda: candidate_tables(_bank("hrht", 0.0, pre="rect"), 1.0), 0),
    "bio": (lambda: candidate_tables(_bank("bio"), 0.4), 0),
    "dexp": (lambda: candidate_tables(_bank("dexp"), -1.2), 0),
    "ties-empty-one": (_tie_table, 1),
}


@pytest.mark.parametrize("scales", sorted(_scales()))
@pytest.mark.parametrize("case", sorted(SCAN_TABLES))
def test_branch_drives_bitwise_match_per_table_peaks(case, scales):
    """branch_drives against the per-table oracle, byte for byte (so -0.0
    against 0.0 fails): exact ties (the duplicate limits at continuous edges,
    plateaus, a repeated pattern), empty and one-candidate columns, scales of
    0 and below, and bio and dexp tables that the node scales cut into
    several blocks; the per-epoch scales step one candidate at a time."""
    make, empty = SCAN_TABLES[case]
    table = make()
    n = table.counts.size
    assert np.count_nonzero(table.counts == 0) == empty
    s_pre, s_post = _scales()[scales]
    lead = np.broadcast(np.asarray(s_pre), np.asarray(s_post)).shape
    per_candidate = int(np.prod(lead)) * n
    if case in ("bio", "dexp") and scales == "nodes":
        assert table.counts.max() > 2 * (_SCAN_ELEMENTS // per_candidate) > 0  # several blocks
    if scales == "epochs" and n == 16:
        assert 2 * per_candidate > _SCAN_ELEMENTS  # one candidate a step
    d = branch_drives(_bank("hrht"), table, s_pre, s_post)
    want = [np.stack(x, axis=-1) for x in zip(*(peaks(table, i, s_pre, s_post) for i in range(n)))]
    for f, w in zip(("v_max", "v_min", "reset_later"), want):
        got = getattr(d, f)
        assert got.shape == lead + (n,) and got.dtype == w.dtype, f
        assert got.tobytes() == w.tobytes(), f
