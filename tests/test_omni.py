import math
import warnings

import numpy as np
import pytest

from mmwindoor.core import (
    BAND_28GHZ,
    BAND_73GHZ,
    CampaignRecord,
    DirectionalSweep,
    DuplicateAngleWarning,
    EmptyInputError,
    Environment,
    NoMultipathError,
    Pdp,
    Polarization,
    SweepEntry,
    SweepSpacingWarning,
    sounder_lookup,
)
from mmwindoor.omni import (
    omni_path_loss_db,
    omni_received_power_mw,
    unique_angle_powers_mw,
)

NOISELESS = dict(noise_floor_mw=0.0)


def _pdp(*powers):
    return Pdp(2.5, tuple(powers), **NOISELESS)


def _entry(theta_rx, pdp, theta_tx=0.0, phi_tx=0.0, phi_rx=0.0):
    return SweepEntry(theta_tx, phi_tx, theta_rx, phi_rx, pdp)


def _record(sweeps, band=BAND_28GHZ, distance=10.0, env=Environment.LOS, loc="L1"):
    return CampaignRecord(
        location_id=loc, distance_m=distance, env=env,
        sweeps=tuple(sweeps), spec=sounder_lookup(band),
    )


def _sweep(sweep_id, entries, pol=Polarization.VV):
    return DirectionalSweep(sweep_id, pol, tuple(entries))


class TestReceivedPower:
    def test_single_angle_identity(self):
        rec = _record([_sweep("M1", [_entry(0.0, _pdp(0.25, 0.5, 0.25)), _entry(30.0, _pdp(0.0))])])
        assert omni_received_power_mw(rec) == pytest.approx(1.0, rel=1e-12)

    def test_three_angles_sum(self):
        rec = _record([
            _sweep("M1", [_entry(0.0, _pdp(0.5)), _entry(30.0, _pdp(0.25)), _entry(60.0, _pdp(0.25))])
        ])
        assert omni_received_power_mw(rec) == pytest.approx(1.0, rel=1e-12)

    def test_duplicate_angle_counted_once(self):
        dup = _pdp(0.3)
        rec = _record([
            _sweep("M1", [_entry(0.0, dup), _entry(30.0, _pdp(0.2))]),
            _sweep("M7", [_entry(0.0, dup)]),
        ])
        with pytest.warns(DuplicateAngleWarning):
            total = omni_received_power_mw(rec)
        assert total == pytest.approx(0.5, rel=1e-12)

    def test_duplicate_keeps_strongest_acquisition(self):
        rec = _record([
            _sweep("M1", [_entry(0.0, _pdp(0.3))]),
            _sweep("M7", [_entry(0.0, _pdp(0.4))]),
        ])
        with pytest.warns(DuplicateAngleWarning):
            total = omni_received_power_mw(rec)
        assert total == pytest.approx(0.4, rel=1e-12)

    def test_empty_record_rejected(self):
        with pytest.raises(EmptyInputError):
            omni_received_power_mw(_record([]))
        with pytest.raises(EmptyInputError):
            omni_received_power_mw(_record([_sweep("M1", [])]))

    def test_mixed_polarizations_need_selection(self):
        rec = _record([
            _sweep("M1", [_entry(0.0, _pdp(1.0))], pol=Polarization.VV),
            _sweep("M2", [_entry(0.0, _pdp(0.5))], pol=Polarization.VH),
        ])
        with pytest.raises(ValueError):
            omni_received_power_mw(rec)
        assert omni_received_power_mw(rec, Polarization.VV) == pytest.approx(1.0)
        assert omni_received_power_mw(rec, Polarization.VH) == pytest.approx(0.5)

    def test_same_angle_different_pol_not_a_duplicate(self):
        rec = _record([
            _sweep("M1", [_entry(0.0, _pdp(1.0))], pol=Polarization.VV),
            _sweep("M2", [_entry(0.0, _pdp(0.5))], pol=Polarization.VH),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DuplicateAngleWarning)
            omni_received_power_mw(rec, Polarization.VV)


class TestPathLoss:
    def test_hand_case_28ghz(self):
        # P_TX 24 dBm + 15 + 15 dBi - 10*log10(1 mW) = 54 dB
        rec = _record([_sweep("M1", [_entry(0.0, _pdp(1.0))])])
        assert omni_path_loss_db(rec) == pytest.approx(54.0, abs=1e-12)

    def test_hand_case_73ghz(self):
        # 14.6 + 20 + 20 - 10*log10(0.001) = 84.6
        rec = _record([_sweep("M1", [_entry(0.0, _pdp(0.001))])], band=BAND_73GHZ)
        assert omni_path_loss_db(rec) == pytest.approx(84.6, abs=1e-12)

    def test_doubling_power_drops_3db(self):
        rec1 = _record([_sweep("M1", [_entry(0.0, _pdp(0.2))])])
        rec2 = _record([_sweep("M1", [_entry(0.0, _pdp(0.4))])])
        delta = omni_path_loss_db(rec1) - omni_path_loss_db(rec2)
        assert delta == pytest.approx(10.0 * math.log10(2.0), rel=1e-12)

    def test_zero_power_is_an_error(self):
        rec = _record([_sweep("M1", [_entry(0.0, _pdp(0.0, 0.0))])])
        with pytest.raises(NoMultipathError):
            omni_path_loss_db(rec)

    def test_adding_an_angle_never_increases_loss(self):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            entries = [
                _entry(30.0 * k, _pdp(*rng.uniform(0.0, 1.0, size=3)))
                for k in range(n)
            ]
            base = _record([_sweep("M1", entries)])
            extra = _entry(30.0 * n, _pdp(float(rng.uniform(1e-6, 1.0))))
            grown = _record([_sweep("M1", entries + [extra])])
            try:
                pl_base = omni_path_loss_db(base)
            except NoMultipathError:
                continue
            assert omni_path_loss_db(grown) <= pl_base + 1e-12

    def test_omni_loss_bounded_by_best_directional(self):
        # the omni power sums every pointing's, so it is at least the best pointing's
        rng = np.random.default_rng(22)
        for _ in range(200):
            entries = [
                _entry(30.0 * k, _pdp(*rng.uniform(1e-4, 1.0, size=2))) for k in range(4)
            ]
            rec = _record([_sweep("M1", entries)])
            assert omni_received_power_mw(rec) >= max(unique_angle_powers_mw(rec).values())

    def test_antenna_gains_cancel_for_fixed_channel(self):
        # with received power synthesized from a fixed channel loss using the
        # same gains the link budget removes, the loss estimate is gain-free
        from mmwindoor.core import SounderSpec

        channel_loss_db = 97.3
        losses = []
        for tx_dbm, gain in ((24.0, 15.0), (14.6, 20.0), (30.0, 5.0)):
            spec = SounderSpec(
                band=BAND_28GHZ, max_tx_power_dbm=tx_dbm, tx_antenna_gain_dbi=gain,
                rx_antenna_gain_dbi=gain, azimuth_hpbw_deg=30.0,
                elevation_hpbw_deg=28.8, max_measurable_pl_db=162.0,
            )
            pr_mw = 10.0 ** ((tx_dbm + 2 * gain - channel_loss_db) / 10.0)
            rec = CampaignRecord(
                location_id="G", distance_m=10.0, env=Environment.NLOS,
                sweeps=(_sweep("M1", [_entry(0.0, _pdp(pr_mw))]),), spec=spec,
            )
            losses.append(omni_path_loss_db(rec))
        assert all(pl == pytest.approx(channel_loss_db, abs=1e-9) for pl in losses)


class TestSpacingWarning:
    def test_sub_hpbw_spacing_flagged(self):
        # 15 deg steps with the 30 deg beamwidth rig
        entries = [_entry(15.0 * k, _pdp(0.1)) for k in range(4)]
        rec = _record([_sweep("M1", entries)])
        with pytest.warns(SweepSpacingWarning):
            omni_received_power_mw(rec)

    def test_hpbw_spacing_not_flagged(self):
        entries = [_entry(30.0 * k, _pdp(0.1)) for k in range(4)]
        rec = _record([_sweep("M1", entries)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", SweepSpacingWarning)
            omni_received_power_mw(rec)

    def test_15deg_fine_at_73ghz(self):
        entries = [_entry(15.0 * k, _pdp(0.1)) for k in range(4)]
        rec = _record([_sweep("M1", entries)], band=BAND_73GHZ)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SweepSpacingWarning)
            omni_received_power_mw(rec)


class TestThresholdingInSynthesis:
    def test_noise_bins_removed_before_summation(self):
        nf = 1e-6
        # one real tap, everything else at the noise floor
        pdp = Pdp(2.5, (1e-3, nf, nf, nf), noise_floor_mw=nf)
        rec = _record([_sweep("M1", [_entry(0.0, pdp)])])
        assert omni_received_power_mw(rec) == pytest.approx(1e-3, rel=1e-12)

    def test_angle_power_map(self):
        rec = _record([
            _sweep("M1", [_entry(0.0, _pdp(0.5)), _entry(30.0, _pdp(0.25))]),
        ])
        powers = unique_angle_powers_mw(rec)
        assert powers[(0.0, 0.0, 0.0, 0.0)] == pytest.approx(0.5)
        assert powers[(0.0, 0.0, 30.0, 0.0)] == pytest.approx(0.25)
