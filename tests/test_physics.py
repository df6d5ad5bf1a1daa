"""Channel model: entropy, noise response, calibration, sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkdsim.physics import (
    ATTACK_OFF,
    CalibrationAnchors,
    CalibrationError,
    ChannelParams,
    KNEE_QBER_RISE_MAX,
    KNEE_SKR_DROP,
    abort_qber,
    binary_entropy,
    calibrate,
    noise_rate,
    qber,
    sample,
    skr,
)

# Entropy values computed independently at 40 decimal digits and frozen.
ENTROPY_TABLE = {
    0.02: 0.1414405425418206451544,
    0.0275: 0.1816951997631273667772,
    0.11: 0.4999159581645279956405,
    0.3: 0.8812908992306926182248,
    0.45: 0.9927744539878082936523,
}
# Root of h(q) = 1/(1+f), same precision.
ABORT_TABLE = {
    1.0: 0.1100278644383595512618,
    1.2: 0.09549353849071595317324,
    1.5: 0.07938260048064910011175,
}
# Sifted rate implied by each bundled link's baseline anchors.
SIFTED_RATE_TABLE = {
    (750.0, 0.0275): 1249.436586310169641941,
    (950.0, 0.02): 1379.148538599643974584,
    (850.0, 0.023): 1302.743492609862775659,
}

LINK1_ANCHORS = CalibrationAnchors(750.0, 0.0275, -68.0, -58.0, 30.0)
LINK2_ANCHORS = CalibrationAnchors(950.0, 0.02, -17.0, -9.0, 45.0)


def make_params(**overrides) -> ChannelParams:
    base = dict(
        sifted_rate_cps=1000.0,
        intrinsic_error=0.02,
        dark_rate_cps=50.0,
        noise_coupling_cps_per_mw=400.0,
        suppression_db=30.0,
    )
    base.update(overrides)
    return ChannelParams(**base)


valid_params = st.builds(
    ChannelParams,
    sifted_rate_cps=st.floats(1.0, 1e5),
    intrinsic_error=st.floats(0.001, 0.45),
    dark_rate_cps=st.floats(0.0, 1e4),
    noise_coupling_cps_per_mw=st.floats(0.0, 1e6),
    suppression_db=st.floats(0.0, 60.0),
    ec_efficiency=st.floats(1.0, 2.0),
    knee_sharpness=st.floats(0.2, 5.0),
)
attack_powers = st.one_of(st.just(ATTACK_OFF), st.floats(-120.0, 60.0))


class TestBinaryEntropy:
    def test_frozen_values(self):
        for x, expected in ENTROPY_TABLE.items():
            assert binary_entropy(x) == pytest.approx(expected, abs=1e-12)

    def test_endpoints_and_peak(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize("x", [-0.1, -1e-12, 1.0 + 1e-12, 2.0])
    def test_domain_errors(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)

    @given(st.floats(0.0, 1.0))
    def test_symmetry_and_range(self, x):
        h = binary_entropy(x)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestAbortQber:
    def test_frozen_values(self):
        for f, expected in ABORT_TABLE.items():
            assert abort_qber(f) == pytest.approx(expected, abs=1e-6)

    def test_is_a_root_of_the_secret_fraction(self):
        for f in (1.0, 1.2, 1.5):
            q = abort_qber(f, tol=1e-12)
            assert 1.0 - (1.0 + f) * binary_entropy(q) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_sub_unit_efficiency(self):
        with pytest.raises(ValueError):
            abort_qber(0.9)

    @given(st.floats(1.0, 2.0))
    def test_decreases_with_ec_cost(self, f):
        # More error-correction overhead means a lower tolerable QBER.
        assert abort_qber(f, tol=1e-9) <= abort_qber(1.0, tol=1e-9) + 1e-8


class TestNoiseAndQber:
    def test_attack_off_is_dark_counts_only(self):
        p = make_params()
        assert noise_rate(p, ATTACK_OFF) == p.dark_rate_cps

    def test_coupling_referenced_at_suppression_power(self):
        p = make_params(knee_sharpness=1.0)
        at_ref = noise_rate(p, p.suppression_db)
        assert at_ref == pytest.approx(p.dark_rate_cps + p.noise_coupling_cps_per_mw, rel=1e-12)

    def test_linear_coupling_doubles_per_3dB(self):
        p = make_params(dark_rate_cps=0.0, knee_sharpness=1.0)
        ratio = noise_rate(p, -20.0 + 10.0 * math.log10(2.0)) / noise_rate(p, -20.0)
        assert ratio == pytest.approx(2.0, rel=1e-12)

    def test_sharpness_scales_the_db_slope(self):
        p = make_params(dark_rate_cps=0.0, knee_sharpness=2.5)
        ratio = noise_rate(p, -10.0) / noise_rate(p, -20.0)
        assert ratio == pytest.approx(10.0 ** 2.5, rel=1e-9)

    def test_qber_with_zero_noise_is_intrinsic_exactly(self):
        p = make_params(dark_rate_cps=0.0)
        assert qber(p, ATTACK_OFF) == p.intrinsic_error

    def test_qber_limits(self):
        p = make_params()
        assert qber(p, 500.0) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("power", [3500.0, 5000.0, 1e300])
    def test_an_overflowing_noise_rate_is_infinite(self, power):
        p = make_params()
        assert noise_rate(p, power) == math.inf
        assert (qber(p, power), skr(p, power)) == (0.5, 0.0)

    @given(valid_params, attack_powers)
    def test_qber_range(self, p, power):
        q = qber(p, power)
        assert 0.0 <= q <= 0.5

    @given(valid_params, st.floats(-120.0, 60.0), st.floats(0.0, 40.0))
    def test_qber_monotone_in_power(self, p, power, delta):
        assert qber(p, power + delta) >= qber(p, power) - 1e-12

    @given(valid_params, st.floats(-120.0, 60.0))
    def test_attack_off_is_the_floor(self, p, power):
        assert qber(p, ATTACK_OFF) <= qber(p, power) + 1e-12


class TestSkr:
    @given(valid_params, st.floats(-120.0, 60.0), st.floats(0.0, 40.0))
    def test_skr_monotone_non_increasing(self, p, power, delta):
        assert skr(p, power + delta) <= skr(p, power) + 1e-9

    @given(valid_params, attack_powers)
    def test_zero_exactly_when_uncorrectable(self, p, power):
        q = qber(p, power)
        q_abort = abort_qber(p.ec_efficiency, tol=1e-9)
        assume(abs(q - q_abort) > 5e-6)
        assert (skr(p, power) == 0.0) == (q > q_abort)

    def test_clamped_at_zero(self):
        p = make_params()
        assert skr(p, 100.0) == 0.0


class TestCalibrate:
    @pytest.mark.parametrize("anchors", [LINK1_ANCHORS, LINK2_ANCHORS])
    def test_round_trips_the_anchor_points(self, anchors):
        p = calibrate(anchors)
        key = (anchors.baseline_skr_bps, anchors.baseline_qber)
        assert p.sifted_rate_cps == pytest.approx(SIFTED_RATE_TABLE[key], rel=1e-12)
        assert p.dark_rate_cps == 0.0
        # Attacker off: exact baselines.
        assert qber(p, ATTACK_OFF) == anchors.baseline_qber
        assert skr(p, ATTACK_OFF) == pytest.approx(anchors.baseline_skr_bps, rel=1e-9)
        # Knee: SKR within the configured just-perceptible drop.
        s_knee = skr(p, anchors.knee_power_dbm)
        assert s_knee >= (1.0 - KNEE_SKR_DROP - 1e-9) * anchors.baseline_skr_bps
        assert s_knee <= anchors.baseline_skr_bps
        q_knee = qber(p, anchors.knee_power_dbm)
        assert q_knee <= (1.0 + KNEE_QBER_RISE_MAX) * anchors.baseline_qber + 1e-12
        # Death: exactly no key.
        assert skr(p, anchors.death_power_dbm) == 0.0
        assert skr(p, anchors.death_power_dbm - 0.5) > 0.0

    def test_uncapped_knee_hits_the_skr_drop_exactly(self):
        # Anchors where the QBER-rise cap does not bind.
        anchors = CalibrationAnchors(800.0, 0.05, -40.0, -30.0, 20.0)
        p = calibrate(anchors)
        assert skr(p, -40.0) == pytest.approx((1.0 - KNEE_SKR_DROP) * 800.0, rel=1e-6)

    @pytest.mark.parametrize(
        "anchors",
        [
            CalibrationAnchors(750.0, 0.0275, -58.0, -68.0, 30.0),  # knee above death
            CalibrationAnchors(750.0, 0.0275, -58.0, -58.0, 30.0),  # degenerate span
            CalibrationAnchors(750.0, 0.12, -68.0, -58.0, 30.0),  # baseline already aborted
            CalibrationAnchors(-1.0, 0.0275, -68.0, -58.0, 30.0),  # negative baseline
            CalibrationAnchors(750.0, 0.0, -68.0, -58.0, 30.0),  # zero error rate
        ],
    )
    def test_infeasible_anchors_raise(self, anchors):
        with pytest.raises(CalibrationError):
            calibrate(anchors)

    @settings(max_examples=60, deadline=None)
    @given(
        baseline_skr=st.floats(50.0, 5000.0),
        q0=st.floats(0.005, 0.07),
        knee=st.floats(-80.0, -10.0),
        span=st.floats(2.0, 30.0),
        suppression=st.floats(0.0, 60.0),
        f=st.floats(1.0, 1.5),
    )
    def test_round_trip_property(self, baseline_skr, q0, knee, span, suppression, f):
        assume((1.0 + KNEE_QBER_RISE_MAX) * q0 < abort_qber(f, tol=1e-9) - 1e-4)
        anchors = CalibrationAnchors(baseline_skr, q0, knee, knee + span, suppression, f)
        p = calibrate(anchors)
        assert skr(p, ATTACK_OFF) == pytest.approx(baseline_skr, rel=1e-9)
        assert qber(p, ATTACK_OFF) == q0
        assert skr(p, knee) >= (1.0 - KNEE_SKR_DROP - 1e-9) * baseline_skr
        assert skr(p, knee + span) == 0.0


def fixed_normals(value: float) -> np.ndarray:
    """Both standard normals of one sample set to value."""
    return np.full(2, value)


def sample_at(p: ChannelParams, power: float, normals) -> tuple[np.ndarray, np.ndarray]:
    """sample with every sample at one attack power."""
    return sample(p, ((qber(p, power), skr(p, power)),), [len(normals) // 2], normals)


class TestSample:
    def test_zero_sigma_reproduces_the_means(self):
        p = calibrate(LINK2_ANCHORS)
        q, s = sample_at(p, ATTACK_OFF, fixed_normals(0.0))
        assert s.tolist() == [skr(p, ATTACK_OFF)]
        assert q.tolist() == [qber(p, ATTACK_OFF)]

    def test_same_seed_same_draws(self):
        p = calibrate(LINK2_ANCHORS)
        a, b = (sample_at(p, -20.0, np.random.default_rng(7).standard_normal(2)) for _ in range(2))
        assert (a[0].tolist(), a[1].tolist()) == (b[0].tolist(), b[1].tolist())

    def test_statistical_means(self):
        p = calibrate(LINK2_ANCHORS)
        q, s = sample_at(p, ATTACK_OFF, np.random.default_rng(1234).standard_normal(2 * 10_000))
        # 0.03 and 0.05 relative sigma; allow 5 standard errors.
        assert abs(float(np.mean(s)) - 950.0) < 5 * 950.0 * 0.03 / math.sqrt(10_000)
        assert abs(float(np.mean(q)) - 0.02) < 5 * 0.02 * 0.05 / math.sqrt(10_000)

    def test_clamped_to_valid_ranges(self):
        p = make_params()
        qbers = set()
        for power in (ATTACK_OFF, 20.0, 40.0):
            for normal in (30.0, -30.0):
                q, s = sample_at(p, power, fixed_normals(normal))
                assert s[0] >= 0.0
                assert 0.0 <= q[0] <= 0.5
                qbers.add(q[0].item())
        assert {0.0, 0.5} <= qbers

    def test_aborted_sample_reports_zero_key(self):
        p = calibrate(LINK1_ANCHORS)
        q, s = sample_at(p, -40.0, np.random.default_rng(3).standard_normal(2 * 50))
        assert (s == 0.0).all()
        assert (q >= abort_qber(p.ec_efficiency)).all()


def hand_sample(p: ChannelParams, power: float, rng) -> tuple[float, float]:
    """One sample spelled out in floats: fresh means and two draws from rng,
    QBER then SKR."""
    q = min(max(qber(p, power) * (1.0 + 0.05 * rng.standard_normal()), 0.0), 0.5)
    s = max(skr(p, power) * (1.0 + 0.03 * rng.standard_normal()), 0.0)
    return q, (0.0 if q >= abort_qber(p.ec_efficiency) else s)


calibrated_channels = st.one_of(
    st.sampled_from([LINK1_ANCHORS, LINK2_ANCHORS,
                     CalibrationAnchors(850.0, 0.023, -30.0, -20.0, 40.0)]),
    st.builds(
        lambda skr0, q0, knee, span, suppression: CalibrationAnchors(
            skr0, q0, knee, knee + span, suppression),
        st.floats(50.0, 5000.0), st.floats(0.005, 0.07), st.floats(-80.0, -10.0),
        st.floats(2.0, 30.0), st.floats(0.0, 60.0)),
).map(calibrate)


class TestSampleMemo:
    @settings(max_examples=80, deadline=None)
    @given(calibrated_channels,
           st.lists(st.one_of(st.just(ATTACK_OFF), st.floats(-90.0, 0.0)),
                    min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_sample_equals_the_means_computed_by_hand(self, p, powers, seed):
        for power in powers:
            q, s = sample_at(p, power, np.random.default_rng(seed).standard_normal(2))
            assert (q.item(), s.item()) == hand_sample(p, power, np.random.default_rng(seed))

    def test_a_power_change_gives_the_new_means(self):
        p = calibrate(LINK2_ANCHORS)
        for power in (ATTACK_OFF, -12.0, -12.0, -30.0, ATTACK_OFF):
            q, s = sample_at(p, power, fixed_normals(0.0))
            assert (q.item(), s.item()) == (qber(p, power), skr(p, power))


class TestSampleArray:
    @settings(max_examples=80, deadline=None)
    @given(calibrated_channels, st.one_of(st.just(ATTACK_OFF), st.floats(-90.0, 0.0)),
           st.integers(0, 2**32 - 1), st.integers(0, 50))
    def test_bit_equal_to_sample(self, p, power, seed, n):
        """n samples from one draw equal n hand samples drawn one at a time."""
        rng = np.random.default_rng(seed)
        one_by_one = [hand_sample(p, power, rng) for _ in range(n)]
        q, s = sample_at(p, power, np.random.default_rng(seed).standard_normal(2 * n))
        assert list(zip(q.tolist(), s.tolist())) == one_by_one

    @settings(max_examples=60, deadline=None)
    @given(calibrated_channels,
           st.lists(st.tuples(st.one_of(st.just(ATTACK_OFF), st.floats(-90.0, 0.0)),
                              st.integers(0, 6)), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_runs_of_means_equal_hand_samples(self, p, runs, seed):
        """Samples over runs of means from one draw, empty runs included,
        equal hand samples at each run's power, drawn one at a time."""
        rng = np.random.default_rng(seed)
        one_by_one = [hand_sample(p, power, rng) for power, n in runs for _ in range(n)]
        means = tuple((qber(p, power), skr(p, power)) for power, _ in runs)
        q, s = sample(p, means, [n for _, n in runs],
                      np.random.default_rng(seed).standard_normal(2 * len(one_by_one)))
        assert list(zip(q.tolist(), s.tolist())) == one_by_one

    @pytest.mark.parametrize("normals", [
        [-5.0, -40.0],  # a dead channel's zero mean times a negative factor: -0.0
        [-25.0, 0.0],   # QBER below zero
        [30.0, -40.0],  # QBER past 0.5, aborting
    ])
    def test_clamps_match_python_min_and_max(self, normals):
        p = calibrate(LINK2_ANCHORS)
        power = -9.0  # the death power: mean SKR exactly 0
        q_mean, s_mean = qber(p, power), skr(p, power)
        q = min(max(q_mean * (1.0 + 0.05 * normals[0]), 0.0), 0.5)
        s = max(s_mean * (1.0 + 0.03 * normals[1]), 0.0)
        if q >= abort_qber(p.ec_efficiency):
            s = 0.0
        got_q, got_s = sample_at(p, power, np.array(normals))
        for got, want in ((got_q[0], q), (got_s[0], s)):
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


class TestParamValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"sifted_rate_cps": -1.0},
            {"dark_rate_cps": -0.1},
            {"noise_coupling_cps_per_mw": -5.0},
            {"intrinsic_error": 0.0},
            {"intrinsic_error": 0.5},
            {"ec_efficiency": 0.99},
            {"suppression_db": -1.0},
            {"knee_sharpness": 0.0},
        ],
    )
    def test_rejects_out_of_range_fields(self, overrides):
        with pytest.raises(ValueError):
            make_params(**overrides)
