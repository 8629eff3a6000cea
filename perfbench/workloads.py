"""Workload generators and output checks for the mmwindoor benchmark.

Each workload writes its inputs from a seed, names the CLI command that
processes them and checks that command's outputs. Checks never import the
package under test: they re-derive every number from the generated input
with their own reference arithmetic (two-pass ``math.fsum`` moments, the
link budget, the numpy closed-form MMSE fit) and their own file emitters.
No output digest is pinned; only byte identity between invocations of one
run is required.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# CLI defaults the commands run with.
THRESHOLD_DB = 5.0
DYNAMIC_RANGE_DB = 30.0

SPEED_OF_LIGHT_M_S = 299_792_458.0
BIN_NS = 2.5
NOISE_FLOOR_MW = 1e-9
#: Sounder link budget per band: (max TX power dBm, TX gain dBi, RX gain dBi, azimuth HPBW deg).
SOUNDERS = {28.0: (24.0, 15.0, 15.0, 30.0), 73.5: (14.6, 20.0, 20.0, 15.0)}

PATHLOSS_HEADER = "location_id,band_ghz,env,pol,dir,distance_m,path_loss_db"
FIT_HEADER = "band_ghz,env,pol,dir,ple,sigma_db,d0_m"
DELAY_STATS_HEADER = (
    "pdp_index,status,mean_excess_delay_ns,rms_delay_spread_ns,total_power_mw,"
    "sigma_tau_mean_ns,sigma_tau_std_ns,sigma_tau_max_ns,sigma_tau_p90_ns"
)

SIZES = {
    "full": {
        "simulate_pdp": {"locations": 10000},
        "pdp_batch": {"window_profiles": 2600, "window_bins": 320, "long_profiles": 24,
                      "long_bins": 4096, "huge_profiles": 3, "huge_bins": 32768,
                      "noise_only_profiles": 80},
        "omni_sweeps": {"records": 100, "sweeps_per_pol": 8, "pdp_bins": 40, "outage_records": 5},
        "fit_strata": {"rows": 100000, "outage_every": 100},
    },
    "tiny": {
        "simulate_pdp": {"locations": 300},
        "pdp_batch": {"window_profiles": 40, "window_bins": 320, "long_profiles": 2,
                      "long_bins": 4096, "huge_profiles": 1, "huge_bins": 32768,
                      "noise_only_profiles": 2},
        "omni_sweeps": {"records": 6, "sweeps_per_pol": 8, "pdp_bins": 40, "outage_records": 1},
        "fit_strata": {"rows": 1200, "outage_every": 100},
    },
}


@dataclass
class Case:
    """One workload's generated inputs, CLI command and output check."""

    argv: list[str]  # CLI arguments; "{out}" stands for the invocation's output directory
    items: int
    sizes: dict
    #: Traced counts the generated input implies: "<layer>.<function>.calls" or a counter.
    expected: dict[str, float]
    check: Callable[[Path], list[str]]  # problems found in one invocation's output directory


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def free_space_pl_db(ghz: float) -> float:
    return 20.0 * math.log10(4.0 * math.pi * 1.0 / (SPEED_OF_LIGHT_M_S / (ghz * 1e9)))


def kept_bins(powers: np.ndarray, noise_floor: float) -> tuple[list[int], list[float]]:
    """Indices and powers of the bins that survive the noise and dynamic-range cuts."""
    peak = float(powers.max())
    cutoff = max(noise_floor * 10.0 ** (THRESHOLD_DB / 10.0),
                 peak * 10.0 ** (-DYNAMIC_RANGE_DB / 10.0))
    keep = (powers >= cutoff) | ((powers == peak) & (peak > 0.0))
    idx = np.flatnonzero(keep & (powers > 0.0))
    return idx.tolist(), powers[idx].tolist()


def delay_moments(idx: list[int], kept: list[float]) -> tuple[float, float, float] | None:
    """(mean excess delay, RMS delay spread, total power) by two-pass fsum; None without power."""
    if not idx:
        return None
    taus = [(k - idx[0]) * BIN_NS for k in idx]
    total = math.fsum(kept)
    mean = math.fsum(p * t for p, t in zip(kept, taus)) / total
    var = math.fsum(p * (t - mean) ** 2 for p, t in zip(kept, taus)) / total
    return mean, math.sqrt(var), total


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _emit_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _read_csv(path: Path, header: str, problems: list[str]) -> list[list[str]]:
    try:
        rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    except OSError as exc:
        problems.append(f"{path.name}: {exc}")
        return []
    if not rows or ",".join(rows[0]) != header:
        problems.append(f"{path.name}: unexpected header {rows[0] if rows else None}")
        return []
    return rows[1:]


def _check_delay_stats(rows: list[list[str]], oracle: list, name: str) -> list[str]:
    """Per-profile rows plus the summary row against reference moments."""
    problems: list[str] = []
    body, summary = rows[:-1], rows[-1] if rows else None
    if len(body) != len(oracle):
        return [f"{name}: {len(body)} profile rows, expected {len(oracle)}"]
    spreads = []
    for i, (row, ref) in enumerate(zip(body, oracle)):
        if row[0] != str(i):
            problems.append(f"{name} row {i}: index {row[0]!r}")
        elif ref is None:
            if row[1:5] != ["no-multipath", "", "", ""]:
                problems.append(f"{name} row {i}: expected a no-multipath flag, got {row[1:5]}")
        elif row[1] != "ok" or not all(
            _close(float(got), want) for got, want in zip(row[2:5], ref)
        ):
            problems.append(f"{name} row {i}: got {row[1:5]}, reference {ref}")
        else:
            spreads.append(ref[1])
        if len(problems) > 10:
            break
    if spreads:
        arr = np.asarray(spreads)
        ordered = sorted(spreads)
        rank = min(max(math.ceil(0.9 * len(ordered)), 1), len(ordered))
        while rank > 1 and (rank - 1) / len(ordered) >= 0.9:
            rank -= 1
        want = (float(arr.mean()), float(arr.std()), float(arr.max()), ordered[rank - 1])
        if summary is None or summary[0] != "summary" or not all(
            _close(float(got), w, rel=1e-6) for got, w in zip(summary[5:9], want)
        ):
            problems.append(f"{name}: summary row {summary}, reference {want}")
    return problems


# --------------------------------------------------------------------------- pdp_batch


def _multipath_profile(rng: np.random.Generator, n_bins: int) -> np.ndarray:
    """Receiver noise on every bin plus exponentially decaying multipath taps."""
    powers = rng.exponential(NOISE_FLOOR_MW, n_bins)
    peak = 10.0 ** rng.uniform(-7.0, -4.0)
    decay = max(n_bins / 8.0, 4.0)
    first = int(rng.integers(0, max(n_bins // 10, 1)))
    n_taps = int(rng.integers(5, 40 + n_bins // 256))
    delays = np.minimum(first + rng.exponential(decay, n_taps).astype(int), n_bins - 1)
    tap_mw = peak * np.exp(-(delays - first) / decay) * 10.0 ** (rng.normal(0.0, 3.0, n_taps) / 10.0)
    np.add.at(powers, delays, tap_mw)
    powers[first] += peak
    return powers


def pdp_batch(work: Path, seed: int, size: str) -> Case:
    """`pdp-stats --csv-out` on a ragged batch: sounder windows, a long tail, noise-only profiles."""
    sz = SIZES[size]["pdp_batch"]
    rng = _rng(seed, "pdp_batch")
    lengths = [sz["window_bins"]] * sz["window_profiles"]
    noise_only = set(rng.choice(len(lengths), size=sz["noise_only_profiles"], replace=False).tolist())
    lengths += [sz["long_bins"]] * sz["long_profiles"] + [sz["huge_bins"]] * sz["huge_profiles"]

    oracle = []
    bins_kept = 0
    path = work / "pdps.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[")
        for i, n in enumerate(lengths):
            powers = np.zeros(n) if i in noise_only else _multipath_profile(rng, n)
            idx, kept = kept_bins(powers, NOISE_FLOOR_MW)
            bins_kept += len(idx)
            oracle.append(delay_moments(idx, kept))
            obj = {"bin_spacing_ns": BIN_NS, "noise_floor_mw": NOISE_FLOOR_MW,
                   "powers_mw": powers.tolist()}
            fh.write(("," if i else "") + "\n" + json.dumps(obj))
        fh.write("\n]\n")

    def check(out: Path) -> list[str]:
        problems: list[str] = []
        rows = _read_csv(out / "stats.csv", DELAY_STATS_HEADER, problems)
        return problems or _check_delay_stats(rows, oracle, "stats.csv")

    n_profiles = len(lengths)
    return Case(
        argv=["pdp-stats", str(path), "--csv-out", "{out}/stats.csv"],
        items=sum(lengths),
        sizes={**sz, "profiles": n_profiles, "bins": sum(lengths)},
        expected={
            "fileio.parse_pdp_batch.calls": 1,
            "core.Pdp.calls": 2 * n_profiles,
            "pdp.threshold_pdp.calls": n_profiles,
            "pdp.delay_stats.calls": n_profiles,
            "pdp.bins_in": sum(lengths),
            "pdp.bins_kept": bins_kept,
            "pdp.no_multipath": len(noise_only),
            "estimation.summarize_spreads.calls": 1,
            "fileio.emit_delay_stats_csv.calls": 1,
            "fileio.atomic_write.calls": 1,
            "omni.omni_path_loss_db.calls": 0,
            "simulate.generate_pdp_campaign.calls": 0,
            "estimation.fit_ci_model.calls": 0,
        },
        check=check,
    )


# --------------------------------------------------------------------------- omni_sweeps


def omni_sweeps(work: Path, seed: int, size: str) -> Case:
    """`synthesize-omni --csv-out` on sweep records of both bands and polarizations."""
    sz = SIZES[size]["omni_sweeps"]
    rng = _rng(seed, "omni_sweeps")
    n_records = sz["records"]
    outages = set(rng.choice(n_records, size=sz["outage_records"], replace=False).tolist())

    records, expected_rows = [], []
    entries_total = duplicates = bins_kept = 0
    for i in range(n_records):
        ghz = 28.0 if i % 2 == 0 else 73.5
        ptx, gtx, grx, hpbw = SOUNDERS[ghz]
        env = "LOS" if rng.random() < 0.3 else "NLOS"
        distance = float(rng.uniform(4.0, 45.0))
        boresight_mw = 10.0 ** ((ptx + gtx + grx - free_space_pl_db(ghz)
                                 - 10.0 * (2.0 if env == "LOS" else 3.0) * math.log10(distance)) / 10.0)
        sweeps, angle_power = [], {"VH": {}, "VV": {}}
        for pol in ("VV", "VH"):
            pol_mw = boresight_mw * (1.0 if pol == "VV" else 10.0 ** -1.5)
            for s in range(sz["sweeps_per_pol"]):
                theta_tx = 45.0 * s
                rx_azimuths = [j * hpbw for j in range(int(round(360.0 / hpbw)))]
                # The last sweep re-measures part of the first sweep's TX pointing.
                remeasured = (set(rng.choice(len(rx_azimuths), size=len(rx_azimuths) // 3,
                                             replace=False).tolist())
                              if s == sz["sweeps_per_pol"] - 1 and s > 0 else set())
                entries = []
                for j, theta_rx in enumerate(rx_azimuths):
                    angle = (0.0 if j in remeasured else theta_tx, 0.0, theta_rx, 0.0)
                    n = sz["pdp_bins"]
                    if i in outages:
                        powers = np.zeros(n)
                    else:
                        powers = rng.exponential(NOISE_FLOOR_MW, n)
                        first = int(rng.integers(0, 8))
                        taps = first + rng.exponential(4.0, int(rng.integers(1, 7))).astype(int)
                        taps = np.minimum(taps, n - 1)
                        strength = pol_mw * 10.0 ** (-rng.uniform(0.0, 40.0) / 10.0)
                        np.add.at(powers, taps, strength * np.exp(-(taps - first) / 4.0))
                    idx, kept = kept_bins(powers, NOISE_FLOOR_MW)
                    bins_kept += len(idx)
                    p = math.fsum(kept)
                    seen = angle_power[pol]
                    if angle in seen:
                        duplicates += 1
                    seen[angle] = max(seen.get(angle, p), p)
                    entries.append({
                        "theta_tx_deg": angle[0], "phi_tx_deg": angle[1],
                        "theta_rx_deg": angle[2], "phi_rx_deg": angle[3],
                        "pdp": {"bin_spacing_ns": BIN_NS, "noise_floor_mw": NOISE_FLOOR_MW,
                                "powers_mw": powers.tolist()},
                    })
                entries_total += len(entries)
                sweeps.append({"sweep_id": f"M{s + 1}", "pol": pol, "entries": entries})
        location = f"L{i:04d}"
        records.append({"location_id": location, "band_ghz": ghz, "env": env,
                        "distance_m": distance, "sweeps": sweeps})
        for pol in ("VH", "VV"):
            total = math.fsum(angle_power[pol].values())
            pl = "" if total <= 0.0 else repr(ptx + gtx + grx - 10.0 * math.log10(total))
            expected_rows.append([location, repr(ghz), env, pol, "omni", repr(distance), pl])

    path = work / "records.json"
    path.write_text(json.dumps(records) + "\n", encoding="utf-8")
    del records

    def check(out: Path) -> list[str]:
        problems: list[str] = []
        rows = _read_csv(out / "omni.csv", PATHLOSS_HEADER, problems)
        if problems:
            return problems
        if len(rows) != len(expected_rows):
            return [f"omni.csv: {len(rows)} rows, expected {len(expected_rows)}"]
        for got, want in zip(rows, expected_rows):
            if got[:6] != want[:6] or (got[6:] == [""]) != (want[6] == "") or (
                want[6] and abs(float(got[6]) - float(want[6])) > 1e-9
            ):
                problems.append(f"omni.csv: row {got}, reference {want}")
            if len(problems) > 10:
                break
        return problems

    n_pol_records = 2 * n_records
    return Case(
        argv=["synthesize-omni", str(path), "--csv-out", "{out}/omni.csv"],
        items=entries_total,
        sizes={**sz, "entries": entries_total, "duplicate_angles": duplicates},
        expected={
            "fileio.parse_campaign_records.calls": 1,
            "core.Pdp.calls": 2 * entries_total,
            "pdp.threshold_pdp.calls": entries_total,
            "pdp.integrate_power_mw.calls": entries_total,
            "pdp.bins_in": entries_total * sz["pdp_bins"],
            "pdp.bins_kept": bins_kept,
            "pdp.delay_stats.calls": 0,
            "omni.unique_angle_powers_mw.calls": n_pol_records,
            "omni.omni_path_loss_db.calls": n_pol_records,
            "omni.entries": entries_total,
            "omni.duplicate_angles": duplicates,
            "omni.outages": 2 * len(outages),
            "fileio.emit_pathloss_csv.calls": 1,
            "fileio.atomic_write.calls": 1,
            "estimation.fit_ci_model.calls": 0,
        },
        check=check,
    )


# --------------------------------------------------------------------------- fit_strata

#: (band GHz, env, pol, dir, path loss exponent, shadow sigma dB) of the generated strata.
FIT_STRATA = (
    (28.0, "LOS", "VV", "omni", 1.1, 1.7),
    (28.0, "NLOS", "VV", "omni", 2.7, 9.6),
    (28.0, "LOS", "VH", "omni", 2.5, 3.0),
    (28.0, "NLOS", "VH", "omni", 3.6, 9.4),
    (28.0, "NLOS_BEST", "VV", "directional", 3.0, 10.8),
    (28.0, "LOS", "VV", "directional", 1.7, 2.6),
    (73.5, "LOS", "VV", "omni", 1.3, 1.9),
    (73.5, "NLOS", "VV", "omni", 3.2, 11.3),
    (73.5, "LOS", "VH", "omni", 3.5, 6.3),
    (73.5, "NLOS", "VH", "omni", 4.6, 9.7),
    (73.5, "NLOS_BEST", "VV", "directional", 3.4, 11.8),
    (73.5, "LOS", "VV", "directional", 1.7, 2.1),
)


def closed_form_fit(ghz: float, d: np.ndarray, pl: np.ndarray) -> tuple[float, float]:
    """MMSE exponent and RMS residual of the close-in model with d0 = 1 m."""
    a = pl - free_space_pl_db(ghz)
    b = 10.0 * np.log10(d)
    ple = float(np.dot(a, b)) / float(np.dot(b, b))
    return ple, math.sqrt(float(np.mean((a - ple * b) ** 2)))


def fit_strata(work: Path, seed: int, size: str) -> Case:
    """`fit --csv-out` on a mixed-strata path-loss CSV with ~1 % outage rows."""
    sz = SIZES[size]["fit_strata"]
    rng = _rng(seed, "fit_strata")
    n = sz["rows"]
    stratum = rng.integers(0, len(FIT_STRATA), n)
    stratum[: len(FIT_STRATA)] = np.arange(len(FIT_STRATA))  # every stratum is present
    params = np.array([s[4:] for s in FIT_STRATA])
    ghz = np.array([s[0] for s in FIT_STRATA])[stratum]
    d = rng.uniform(3.9, 45.9, n)
    fspl = np.array([free_space_pl_db(g) for g in ghz])
    pl = fspl + 10.0 * params[stratum, 0] * np.log10(d) + rng.normal(0.0, 1.0, n) * params[stratum, 1]
    pl = np.maximum(pl, 1.0)
    outage = rng.integers(0, sz["outage_every"], n) == 0

    width = len(str(n - 1))
    rows = [PATHLOSS_HEADER.split(",")]
    for i, (k, di, pli, out) in enumerate(zip(stratum.tolist(), d.tolist(), pl.tolist(), outage.tolist())):
        g, env, pol, dir_ = FIT_STRATA[k][:4]
        rows.append([f"loc{i:0{width}d}", repr(g), env, pol, dir_, repr(di), "" if out else repr(pli)])
    path = work / "pathloss.csv"
    path.write_text(_emit_csv(rows), encoding="utf-8")
    del rows

    fitted = {}
    for k, (g, env, pol, dir_, _, _) in enumerate(FIT_STRATA):
        sel = (stratum == k) & ~outage
        fitted[(g, env, pol, dir_)] = closed_form_fit(g, d[sel], pl[sel])
    order = sorted(fitted, key=lambda key: (key[0], key[1], key[2], key[3]))
    n_fitted = int((~outage).sum())

    def check(out: Path) -> list[str]:
        problems: list[str] = []
        got = _read_csv(out / "fit.csv", FIT_HEADER, problems)
        if problems:
            return problems
        keys = [(float(r[0]), r[1], r[2], r[3]) for r in got]
        if keys != order:
            return [f"fit.csv: strata {keys}, expected {order}"]
        for row, key in zip(got, keys):
            ple, sigma = fitted[key]
            if abs(float(row[4]) - ple) > 1e-9 or abs(float(row[5]) - sigma) > 1e-9 or row[6] != "1.0":
                problems.append(f"fit.csv: row {row}, reference ple {ple!r} sigma {sigma!r}")
        return problems

    return Case(
        argv=["fit", str(path), "--csv-out", "{out}/fit.csv"],
        items=n,
        sizes={**sz, "strata": len(FIT_STRATA), "outage_rows": n - n_fitted},
        expected={
            "fileio.parse_pathloss_csv.calls": 1,
            "core.PathLossSample.calls": n_fitted,
            "estimation.fit_ci_model.calls": len(FIT_STRATA),
            "estimation.samples": n_fitted,
            "fileio.emit_fit_csv.calls": 1,
            "fileio.atomic_write.calls": 1,
            "core.Pdp.calls": 0,
            "pdp.threshold_pdp.calls": 0,
            "simulate.generate_pathloss_campaign.calls": 0,
        },
        check=check,
    )


# --------------------------------------------------------------------------- simulate_pdp

#: The bundled 28 GHz NLOS V-V omni campaign config, with the location count and seed replaced.
SIMULATE_CONFIG = {
    "band_ghz": 28.0, "env": "NLOS", "pol": "VV", "dir": "omni",
    "distance_range_m": [3.9, 45.9],
    "pdp_synthesis": {"tap_count_range": [1, 10], "decay_ns": 25.0, "span_ns": 100.0,
                      "tap_power_sigma_db": 3.0, "noise_floor_mw": 1e-9,
                      "fixed_tap_delays_ns": None},
}
SIMULATE_PLE, SIMULATE_SIGMA_DB = 2.7, 9.6


def simulate_pdp(work: Path, seed: int, size: str) -> Case:
    """`simulate -o DIR` with PDP synthesis on; checks re-derive every output file."""
    n = SIZES[size]["simulate_pdp"]["locations"]
    path = work / "config.json"
    path.write_text(json.dumps({**SIMULATE_CONFIG, "n_locations": n, "seed": seed}, indent=2) + "\n",
                    encoding="utf-8")

    def check(out: Path) -> list[str]:
        problems: list[str] = []
        rows = _read_csv(out / "campaign.csv", PATHLOSS_HEADER, problems)
        if problems:
            return problems
        width = len(str(max(n - 1, 1)))
        if [r[0] for r in rows] != [f"loc{i:0{width}d}" for i in range(n)]:
            return [f"campaign.csv: {len(rows)} rows, expected loc0..loc{n - 1}"]
        d = np.array([float(r[5]) for r in rows])
        pl = np.array([float(r[6]) for r in rows])
        reemitted = _emit_csv([PATHLOSS_HEADER.split(",")] + [
            [r[0], repr(float(r[1])), r[2], r[3], r[4], repr(float(r[5])), repr(float(r[6]))]
            for r in rows
        ])
        if reemitted != (out / "campaign.csv").read_text(encoding="utf-8"):
            problems.append("campaign.csv: re-emitting the parsed rows does not reproduce the file")
        ple, sigma = closed_form_fit(28.0, d, pl)
        ple_tol, sigma_tol = 0.05, 0.3  # the acceptance bounds of a full-size campaign
        if size == "tiny":  # too few locations for those bounds: six standard errors
            b = 10.0 * np.log10(d)
            ple_tol = 6.0 * SIMULATE_SIGMA_DB / math.sqrt(float(np.dot(b, b)))
            sigma_tol = 6.0 * SIMULATE_SIGMA_DB / math.sqrt(2.0 * n)
        if abs(ple - SIMULATE_PLE) > ple_tol or abs(sigma - SIMULATE_SIGMA_DB) > sigma_tol:
            problems.append(f"campaign.csv: fit-back ple {ple} sigma {sigma} outside acceptance bounds")
        fitback = json.loads((out / "fitback.json").read_text(encoding="utf-8"))
        if (fitback["n_locations"] != n or fitback["seed"] != seed
                or abs(fitback["fitted"]["ple"] - ple) > 1e-9
                or abs(fitback["fitted"]["sigma_db"] - sigma) > 1e-9):
            problems.append(f"fitback.json: {fitback}, reference ple {ple} sigma {sigma}")

        text = (out / "pdps.json").read_text(encoding="utf-8")
        profiles = json.loads(text)
        if json.dumps(profiles, indent=2) + "\n" != text:
            problems.append("pdps.json: re-emitting the parsed profiles does not reproduce the file")
        if len(profiles) != n:
            return problems + [f"pdps.json: {len(profiles)} profiles, expected {n}"]
        oracle = [delay_moments(*kept_bins(np.asarray(p["powers_mw"]), p["noise_floor_mw"]))
                  for p in profiles]
        stats = _read_csv(out / "delay_stats.csv", DELAY_STATS_HEADER, problems)
        return problems or _check_delay_stats(stats, oracle, "delay_stats.csv")

    return Case(
        argv=["simulate", str(path), "-o", "{out}"],
        items=n,
        sizes={"locations": n},
        expected={
            "fileio.parse_campaign_config.calls": 1,
            "simulate.generate_pathloss_campaign.calls": 1,
            "simulate.locations": n,
            "pathloss.sample_path_loss_db.calls": n,
            "core.PathLossSample.calls": n,
            "estimation.fit_ci_model.calls": 1,
            "estimation.samples": n,
            "simulate.generate_pdp_campaign.calls": 1,
            "simulate.generate_synthetic_pdp.calls": n,
            "core.Pdp.calls": 2 * n,
            "pdp.threshold_pdp.calls": n,
            "pdp.delay_stats.calls": n,
            "pdp.no_multipath": 0,
            "fileio.emit_pathloss_csv.calls": 1,
            "fileio.emit_pdp_batch.calls": 1,
            "fileio.emit_delay_stats_csv.calls": 1,
            "fileio.atomic_write.calls": 4,
            "omni.omni_path_loss_db.calls": 0,
        },
        check=check,
    )


WORKLOADS = {
    "simulate_pdp": simulate_pdp,
    "pdp_batch": pdp_batch,
    "omni_sweeps": omni_sweeps,
    "fit_strata": fit_strata,
}
