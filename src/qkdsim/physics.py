"""Parametric model of SKR/QBER response to injected attacker power.

The quantum layer is reduced to count rates: a sifted-detection rate from
the legitimate signal and a noise rate that grows with the optical power
an attacker lands in the receiver's detection band. Error rate and secret
key rate follow from the standard binary-entropy secret-fraction formula,
which gives the two behaviours the control plane cares about: QBER climbs
monotonically with attack power, and key generation dies outright once
the error rate crosses the correctable limit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

ATTACK_OFF = float("-inf")


class CalibrationError(ValueError):
    """Anchor set cannot be realized by the channel model."""


@dataclass(frozen=True)
class ChannelParams:
    """Physical constants of one quantum link.

    noise_coupling_cps_per_mw is referenced at an injected power equal to
    suppression_db; knee_sharpness steepens the response around that
    reference (1.0 = plain linear-in-milliwatts coupling).
    """

    sifted_rate_cps: float
    intrinsic_error: float
    dark_rate_cps: float
    noise_coupling_cps_per_mw: float
    suppression_db: float
    ec_efficiency: float = 1.2
    knee_sharpness: float = 1.0

    def __post_init__(self):
        if self.sifted_rate_cps < 0:
            raise ValueError("sifted_rate_cps must be >= 0")
        if self.dark_rate_cps < 0:
            raise ValueError("dark_rate_cps must be >= 0")
        if self.noise_coupling_cps_per_mw < 0:
            raise ValueError("noise_coupling_cps_per_mw must be >= 0")
        if not 0.0 < self.intrinsic_error < 0.5:
            raise ValueError("intrinsic_error must be in (0, 0.5)")
        if self.ec_efficiency < 1.0:
            raise ValueError("ec_efficiency must be >= 1")
        if self.suppression_db < 0:
            raise ValueError("suppression_db must be >= 0")
        if self.knee_sharpness <= 0:
            raise ValueError("knee_sharpness must be > 0")


def binary_entropy(x: float) -> float:
    """Shannon entropy of a binary variable, in bits; h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy domain is [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def noise_rate(params: ChannelParams, attack_power_dbm: float) -> float:
    """Noise counts/s at the receiver for a given injected power (dBm).

    ATTACK_OFF (-inf) means no attacker; only dark counts remain. A power
    whose noise rate overflows a float has an infinite one.
    """
    if attack_power_dbm == ATTACK_OFF:
        return params.dark_rate_cps
    exponent = params.knee_sharpness * (attack_power_dbm - params.suppression_db) / 10.0
    try:
        return params.dark_rate_cps + params.noise_coupling_cps_per_mw * 10.0 ** exponent
    except OverflowError:
        return math.inf


def qber(params: ChannelParams, attack_power_dbm: float) -> float:
    """Mean quantum bit error rate under the given attack power.

    Noise counts are random (error probability 1/2); signal counts carry
    the intrinsic optical/detector error.
    """
    r_n = noise_rate(params, attack_power_dbm)
    r_s = params.sifted_rate_cps
    if math.isinf(r_n):
        return 0.5
    if r_n == 0.0 or r_s + r_n == 0.0:
        return params.intrinsic_error
    return (0.5 * r_n + params.intrinsic_error * r_s) / (r_s + r_n)


def skr(params: ChannelParams, attack_power_dbm: float) -> float:
    """Mean secret key rate in bits/s; zero once errors are uncorrectable."""
    q = qber(params, attack_power_dbm)
    fraction = 1.0 - (1.0 + params.ec_efficiency) * binary_entropy(q)
    return max(0.0, params.sifted_rate_cps * fraction)


def _entropy_inverse(target: float, tol: float) -> float:
    """Q in (0, 0.5] with binary_entropy(Q) = target, by bisection."""
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@functools.lru_cache(maxsize=64)
def _abort_qber_cached(ec_efficiency: float, tol: float) -> float:
    return _entropy_inverse(1.0 / (1.0 + ec_efficiency), tol)


def abort_qber(ec_efficiency: float, tol: float = 1e-6) -> float:
    """QBER above which the secret fraction is non-positive.

    Solves h(Q) = 1/(1 + ec_efficiency) on (0, 0.5) by bisection.
    """
    if ec_efficiency < 1.0:
        raise ValueError("ec_efficiency must be >= 1")
    return _abort_qber_cached(float(ec_efficiency), tol)


@dataclass(frozen=True)
class CalibrationAnchors:
    """Measured anchor points pinning one link's attack response.

    baseline_* hold with the attacker off; the knee is the highest power
    with no practical effect; at death_power key generation has stopped.
    suppression_db is fixed from the link's physical isolation (filter +
    coupler, or inter-core crosstalk) since only its product with the
    coupling strength is observable.
    """

    baseline_skr_bps: float
    baseline_qber: float
    knee_power_dbm: float
    death_power_dbm: float
    suppression_db: float
    ec_efficiency: float = 1.2


# Fraction of baseline SKR lost at the knee; keeps everything below the
# knee inside a 1% band while still pinning the curve's onset.
KNEE_SKR_DROP = 0.01
# Cap on relative QBER rise at the knee.
KNEE_QBER_RISE_MAX = 0.05


def calibrate(anchors: CalibrationAnchors) -> ChannelParams:
    """Fit ChannelParams to one link's anchor points.

    Baselines fix the sifted rate and intrinsic error directly. The
    remaining freedom (coupling strength and knee sharpness) is pinned by
    two conditions: a just-perceptible degradation at the knee power and
    an exactly-dead channel at the death power.
    """
    f = anchors.ec_efficiency
    q0 = anchors.baseline_qber
    if not 0.0 < q0 < 0.5:
        raise CalibrationError("baseline_qber must be in (0, 0.5)")
    if anchors.baseline_skr_bps <= 0:
        raise CalibrationError("baseline_skr_bps must be > 0")
    if anchors.death_power_dbm <= anchors.knee_power_dbm:
        raise CalibrationError(
            "death_power_dbm must exceed knee_power_dbm "
            f"({anchors.death_power_dbm} <= {anchors.knee_power_dbm})"
        )

    q_abort = abort_qber(f, tol=1e-9)
    if q0 >= q_abort:
        raise CalibrationError(
            f"baseline_qber {q0} is at or above the abort point {q_abort:.6f}"
        )
    secret_fraction = 1.0 - (1.0 + f) * binary_entropy(q0)
    r_s = anchors.baseline_skr_bps / secret_fraction

    # QBER at the knee: the point where SKR has dropped by KNEE_SKR_DROP,
    # capped so the relative QBER rise stays small either way.
    h_knee = (1.0 - (1.0 - KNEE_SKR_DROP) * secret_fraction) / (1.0 + f)
    q_knee = min(_entropy_inverse(h_knee, 1e-12), (1.0 + KNEE_QBER_RISE_MAX) * q0)
    # QBER at death: just past the abort point so skr() clamps to exactly 0.
    q_death = q_abort + 1e-6

    def noise_for(q: float) -> float:
        return r_s * (q - q0) / (0.5 - q)

    n_knee = noise_for(q_knee)
    n_death = noise_for(q_death)
    if n_knee <= 0 or n_death <= n_knee:
        raise CalibrationError("anchors do not admit a rising noise response")

    span_db = anchors.death_power_dbm - anchors.knee_power_dbm
    sharpness = 10.0 * math.log10(n_death / n_knee) / span_db
    try:
        coupling = n_knee / 10.0 ** (
            sharpness * (anchors.knee_power_dbm - anchors.suppression_db) / 10.0
        )
    except (OverflowError, ZeroDivisionError):
        coupling = math.nan
    if not (0.0 < coupling < math.inf and 0.0 < sharpness < math.inf):
        raise CalibrationError(
            f"anchors give no usable noise response (coupling {coupling!r}, "
            f"knee sharpness {sharpness!r})"
        )

    params = ChannelParams(
        sifted_rate_cps=r_s,
        intrinsic_error=q0,
        dark_rate_cps=0.0,
        noise_coupling_cps_per_mw=coupling,
        suppression_db=anchors.suppression_db,
        ec_efficiency=f,
        knee_sharpness=sharpness,
    )
    # Anchor round-trip sanity; failures here mean infeasible anchors.
    if skr(params, anchors.death_power_dbm) != 0.0:
        raise CalibrationError("fitted channel is not dead at death_power_dbm")
    if qber(params, anchors.knee_power_dbm) > (1.0 + KNEE_QBER_RISE_MAX) * q0 + 1e-12:
        raise CalibrationError("fitted channel rises too fast at the knee")
    return params


# Relative jitter of a sample around the model means.
SKR_SIGMA = 0.03
QBER_SIGMA = 0.05


def sample(params: ChannelParams, attack_power_dbm: float,
           normals) -> tuple[np.ndarray, np.ndarray]:
    """Jittered monitoring samples around the model means: (qber, skr_bps)
    arrays, one entry per sample.

    normals holds two standard normal draws per sample, QBER's first, as
    the caller's numpy Generator gave them. Each mean takes relative
    Gaussian jitter and is clamped to its valid range; an in-range value,
    -0.0 included, is kept as it is. A sample whose QBER lands at or
    above the abort point reports zero key rate.
    """
    q = qber(params, attack_power_dbm) * (1.0 + QBER_SIGMA * normals[0::2])
    s = skr(params, attack_power_dbm) * (1.0 + SKR_SIGMA * normals[1::2])
    q = np.where(q > 0.5, 0.5, np.where(q < 0.0, 0.0, q))
    s = np.where((s < 0.0) | (q >= abort_qber(params.ec_efficiency)), 0.0, s)
    return q, s
