"""The per-item value types: frozen, slotted, and built by one ``__init__`` each.

One sample, profile, pointing, delay-moment set or outage row is made per input
item, so these types store their fields in slots. They must still behave as
frozen dataclasses: copies and pickles compare equal, ``dataclasses.replace``
rebuilds through the checks, a field cannot be assigned, and every bad
argument is rejected with its message, first bad field first.
"""

import copy
import dataclasses
import math
import pickle

import pytest

from mmwindoor.core import (
    BAND_28GHZ,
    DelayStats,
    Directionality,
    Environment,
    FrequencyBand,
    PathLossSample,
    Pdp,
    Polarization,
    SweepEntry,
)
from mmwindoor.fileio import OutageRow

NAN, INF = math.nan, math.inf
STRATUM = (BAND_28GHZ, Environment.LOS, Polarization.VV, Directionality.OMNI)
PDP = Pdp(2.5, (1.0, 0.5), 1e-9)

#: type -> (valid arguments, one replacement, [(bad arguments, message), ...])
CASES = {
    PathLossSample: (("L1", *STRATUM, 10.0, 80.0), {"path_loss_db": 81.5}, [
        ({"distance_m": NAN}, "distance_m must be finite and > 0, got nan"),
        ({"distance_m": 0.0}, "distance_m must be finite and > 0, got 0.0"),
        ({"distance_m": INF, "path_loss_db": -1.0}, "distance_m must be finite and > 0, got inf"),
        ({"path_loss_db": 0.0}, "path_loss_db must be finite and > 0, got 0.0"),
        ({"path_loss_db": INF}, "path_loss_db must be finite and > 0, got inf"),
    ]),
    Pdp: ((2.5, (1.0, 0.0, 0.5)), {"powers_mw": [2, 0]}, [
        ({"bin_spacing_ns": 0.0, "powers_mw": ()},
         "bin_spacing_ns must be finite and > 0, got 0.0"),
        ({"bin_spacing_ns": INF}, "bin_spacing_ns must be finite and > 0, got inf"),
        ({"powers_mw": ()}, "a Pdp needs at least one delay bin"),
        ({"powers_mw": (1.0, -0.1, NAN)}, "powers_mw[1] must be finite and >= 0, got -0.1"),
        ({"powers_mw": (1e308, 1e308, INF)}, "powers_mw[2] must be finite and >= 0, got inf"),
        ({"noise_floor_mw": -1.0}, "noise_floor_mw must be finite and >= 0, got -1.0"),
        ({"noise_floor_mw": NAN}, "noise_floor_mw must be finite and >= 0, got nan"),
    ]),
    SweepEntry: ((0.0, 0.0, 30.0, 0.0, PDP), {"theta_rx_deg": 390.0}, [
        ({"theta_tx_deg": NAN}, "azimuths must be finite, got nan and 30.0"),
        ({"theta_rx_deg": -INF}, "azimuths must be finite, got 0.0 and -inf"),
    ]),
    DelayStats: ((1.0, 2.0, 1.0, 3.0), {"total_power_mw": 4.0}, [
        ({"mean_excess_delay_ns": -1.0, "total_power_mw": NAN},
         "mean_excess_delay_ns must be finite and >= 0, got -1.0"),
        ({"second_moment_ns2": INF}, "second_moment_ns2 must be finite and >= 0, got inf"),
        ({"rms_delay_spread_ns": NAN}, "rms_delay_spread_ns must be finite and >= 0, got nan"),
        ({"total_power_mw": -0.5}, "total_power_mw must be finite and >= 0, got -0.5"),
    ]),
    OutageRow: (("L2", *STRATUM, 12.0), {"location_id": "L3"}, [
        ({"distance_m": -2.0}, "distance_m must be finite and > 0, got -2.0"),
        ({"distance_m": NAN}, "distance_m must be finite and > 0, got nan"),
    ]),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_slotted_value_type(cls):
    args, change, bad = CASES[cls]
    value = cls(*args)
    kwargs = {f.name: getattr(value, f.name) for f in dataclasses.fields(cls) if f.init}

    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)

    replaced = dataclasses.replace(value, **change)
    assert replaced == cls(**{**kwargs, **change}) != value
    assert repr(replaced) == repr(cls(**{**kwargs, **change}))
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(replaced, name))

    assert not hasattr(value, "__dict__")
    assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))

    for arguments, message in bad:
        with pytest.raises(ValueError) as exc:
            cls(**{**kwargs, **arguments})
        assert str(exc.value) == message


def test_values_are_stored_as_checked():
    # A profile's numbers become floats; an entry's angle key folds azimuths.
    assert dataclasses.replace(Pdp(2.5, (1.0,)), powers_mw=[2, 0]).powers_mw == (2.0, 0.0)
    for spacing, floor in [(True, False), (2, 0), (FrequencyBand(2.5), FrequencyBand(1e-9))]:
        pdp = Pdp(spacing, (1.0,), floor)
        assert (type(pdp.bin_spacing_ns), type(pdp.noise_floor_mw)) == (float, float)
        assert (pdp.bin_spacing_ns, pdp.noise_floor_mw) == (spacing, floor)
    entry = SweepEntry(360.0, 0.0, 390.0, 0.0, PDP)
    assert entry.angle == (0.0, 0.0, 30.0, 0.0)
    assert pickle.loads(pickle.dumps(entry)).angle == entry.angle
