"""Command-line surface.

Subcommands: ``catalog``, ``fit``, ``pdp-stats``, ``synthesize-omni``,
``simulate`` and ``report``. Exit codes: 0 success, 2 malformed input
(parse, an undecodable input or an unwritable output path), 3 invalid
values (validation), 4 empty input. Commands raise; one boundary around them
maps exceptions to exit codes and prints each warning when it is raised. The
default output directory comes from ``MMWINDOOR_OUTPUT_DIR`` when set.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import warnings
from pathlib import Path

import click

from . import core, estimation, fileio, omni, pdp, simulate
from .core import Directionality, Environment, Polarization
from .pathloss import xpd_per_decade_db

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_EMPTY = 4

#: Exception -> (exit code, message prefix), first match wins. Anything else
#: propagates, so a bug still shows its traceback.
_EXIT_CODES = (
    (core.EmptyInputError, EXIT_EMPTY, "no samples: "),
    (fileio.ParseError, EXIT_PARSE, ""),
    ((ValueError, OverflowError, core.UnknownCombinationError), EXIT_VALIDATION, ""),
)
_WARNINGS = (core.DistanceRangeWarning, core.DuplicateAngleWarning, core.SweepSpacingWarning)


class _Boundary(click.Group):
    """Runs every command under one exit-code table and one warning sink."""

    def invoke(self, ctx: click.Context):
        with warnings.catch_warnings():
            for category in _WARNINGS:
                warnings.simplefilter("always", category)
            warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
            try:
                return super().invoke(ctx)
            except Exception as exc:
                for types, code, prefix in _EXIT_CODES:
                    if isinstance(exc, types):
                        click.echo(f"error: {prefix}{exc}", err=True)
                        raise SystemExit(code) from None
                raise


def _read_text(path: str) -> str:
    """The text of ``path``, line endings kept: a CR inside a quoted CSV field stays a CR."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise fileio.ParseError(f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def _naming(path: str):
    """Put ``path`` before the message of a ParseError or OverflowError raised inside."""
    try:
        yield
    except (fileio.ParseError, OverflowError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _write(path: str | Path, text: str, done: str = "wrote {}") -> None:
    """Write ``text`` atomically, then echo ``done`` with the path filled in."""
    try:
        fileio.atomic_write(path, text)
    except OSError as exc:
        raise fileio.ParseError(f"cannot write {path}: {exc}") from None
    click.echo(done.format(path))


def _out_path(ctx: click.Context, name: str, explicit_dir: str | None) -> Path:
    base = Path(explicit_dir) if explicit_dir else Path(ctx.obj["output_dir"])
    return base / name


@click.group(cls=_Boundary)
@click.option("--d0-m", default=1.0, show_default=True, help="Close-in reference distance in meters.")
@click.option("--seed", default=None, type=int, help="Override the random seed (simulate).")
@click.option("--threshold-db", default=5.0, show_default=True,
              help="Multipath detection threshold above the noise floor, dB.")
@click.option("--dynamic-range-db", default=30.0, show_default=True,
              help="Maximum dynamic range below the PDP peak, dB.")
@click.option("--output-dir", envvar="MMWINDOOR_OUTPUT_DIR", default=".",
              type=click.Path(file_okay=False),
              help="Directory for output files [env: MMWINDOOR_OUTPUT_DIR].")
@click.pass_context
def main(ctx, d0_m, seed, threshold_db, dynamic_range_db, output_dir):
    """Indoor millimeter-wave path loss and delay-spread analytics."""
    if not 0.0 < d0_m < math.inf:
        raise ValueError(f"--d0-m must be finite and > 0, got {d0_m}")
    if not (threshold_db >= 0.0 and dynamic_range_db >= 0.0):  # inf is allowed: no cut
        raise ValueError("--threshold-db and --dynamic-range-db must be >= 0")
    ctx.obj = {
        "d0_m": d0_m,
        "seed": seed,
        "threshold_db": threshold_db,
        "dynamic_range_db": dynamic_range_db,
        "output_dir": output_dir,
    }


@main.command()
@click.option("--full", is_flag=True, help="Include sounder specs and delay-spread statistics.")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Write JSON here instead of stdout.")
def catalog(full, output):
    """Dump the built-in measured-parameter catalog as JSON."""
    payload = core.full_catalog_dump() if full else core.ci_model_rows()
    text = json.dumps(payload, indent=2) + "\n"
    if output:
        _write(output, text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("input_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--band-ghz", type=float, default=None, help="Only fit this band.")
@click.option("--env", "env_filter", type=click.Choice([e.value for e in Environment]),
              default=None, help="Only fit this environment.")
@click.option("--pol", "pol_filter", type=click.Choice([p.value for p in Polarization]),
              default=None, help="Only fit this polarization.")
@click.option("--dir", "dir_filter", type=click.Choice([d.value for d in Directionality]),
              default=None, help="Only fit this directionality.")
@click.option("--csv-out", type=click.Path(dir_okay=False), default=None,
              help="Write the fitted table (catalog column layout) here.")
@click.pass_context
def fit(ctx, input_csv, band_ghz, env_filter, pol_filter, dir_filter, csv_out):
    """Fit close-in models to path-loss samples, one fit per stratum."""
    samples = fileio.parse_pathloss_csv(_read_text(input_csv))
    strata = {
        (band, env, pol, dir_): group
        for (band, env, pol, dir_), group in _group_by_stratum(samples).items()
        if (band_ghz is None or band == band_ghz)
        and (env_filter is None or env.value == env_filter)
        and (pol_filter is None or pol.value == pol_filter)
        and (dir_filter is None or dir_.value == dir_filter)
    }
    if not strata:
        raise core.EmptyInputError(f"{input_csv} has no fittable rows after filtering")

    d0_m = ctx.obj["d0_m"]
    models = []
    header = f"{'band':>9} {'env':>9} {'pol':>4} {'dir':>13} {'n':>6} {'ple':>7} {'sigma_db':>9}"
    click.echo(header)
    for (band, env, pol, dir_), group in sorted(
        strata.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2].value, kv[0][3].value)
    ):
        stratum = f"({band.label}, {env.value}, {pol.value}, {dir_.value})"
        try:  # a fit that is no model (ple <= 0, or NLOS_BEST omni) is skipped
            result = estimation.fit_ci_model(group, band=band, d0_m=d0_m)
            model = core.CiModelParams(band, env, pol, dir_, result.ple_hat,
                                       result.sigma_hat_db, d0_m)
        except OverflowError as exc:
            raise OverflowError(f"stratum {stratum}: {exc}") from None
        except ValueError as exc:
            click.echo(f"warning: skipping stratum {stratum}: {exc}", err=True)
            continue
        models.append(model)
        click.echo(
            f"{band.label:>9} {env.value:>9} {pol.value:>4} {dir_.value:>13} "
            f"{result.n_samples:>6d} {model.ple:>7.3f} {model.shadow_sigma_db:>9.3f}"
        )
    if not models:
        raise core.EmptyInputError("every stratum was empty or unfittable")
    if csv_out:
        _write(csv_out, fileio.emit_fit_csv(models))


def _group_by_stratum(samples: list[core.PathLossSample]) -> dict:
    """Samples per stratum, each group in input order."""
    groups: dict = {}
    for s in samples:
        groups.setdefault(s.stratum, []).append(s)
    return groups


@main.command(name="pdp-stats")
@click.argument("input_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv-out", type=click.Path(dir_okay=False), default=None,
              help="Write per-PDP stats and the summary row here.")
@click.pass_context
def pdp_stats(ctx, input_json, csv_out):
    """Delay statistics for a batch of PDPs: one row per PDP plus a summary."""
    profiles = fileio.parse_pdp_batch(_read_text(input_json))
    per_pdp, summary = _delay_table(ctx, profiles)
    click.echo(f"{'pdp':>5} {'status':>14} {'mean_ns':>10} {'rms_ns':>10} {'power_mw':>12}")
    for i, status, stats in per_pdp:
        if stats is None:
            click.echo(f"{i:>5d} {status:>14} {'-':>10} {'-':>10} {'-':>12}")
        else:
            click.echo(
                f"{i:>5d} {status:>14} {stats.mean_excess_delay_ns:>10.3f} "
                f"{stats.rms_delay_spread_ns:>10.3f} {stats.total_power_mw:>12.6g}"
            )
    if summary is not None:
        click.echo(
            f"summary: mean {summary.mean_ns:.3f} ns, std {summary.std_ns:.3f} ns, "
            f"max {summary.max_ns:.3f} ns, p90 {summary.p90_ns:.3f} ns"
        )
    else:
        click.echo("summary: no PDP had detectable multipath")
    if csv_out:
        _write(csv_out, fileio.emit_delay_stats_csv(per_pdp, summary))


def _delay_table(ctx: click.Context, profiles: list[core.Pdp]) -> tuple[list, object]:
    """One ``(index, status, DelayStats or None)`` row per thresholded profile, and the
    summary of their RMS delay spreads (None when no profile had detectable multipath)."""
    threshold, dyn_range = ctx.obj["threshold_db"], ctx.obj["dynamic_range_db"]
    per_pdp = []
    spreads = []
    for i, profile in enumerate(profiles):
        cleaned = pdp.threshold_pdp(profile, threshold, dyn_range)
        try:
            stats = pdp.delay_stats(cleaned)
        except core.NoMultipathError:
            per_pdp.append((i, "no-multipath", None))
            continue
        except (OverflowError, ValueError) as exc:  # finite inputs, non-finite sums or moments
            raise ValueError(f"pdp[{i}]: {exc}") from None
        per_pdp.append((i, "ok", stats))
        spreads.append(stats.rms_delay_spread_ns)
    return per_pdp, estimation.summarize_spreads(spreads) if spreads else None


@main.command(name="synthesize-omni")
@click.argument("record_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv-out", type=click.Path(dir_okay=False), default=None,
              help="Write the synthesized path-loss samples here.")
@click.pass_context
def synthesize_omni(ctx, record_json, csv_out):
    """Synthesize omnidirectional path loss from directional sweep records."""
    records = fileio.parse_campaign_records(_read_text(record_json))
    text = fileio.emit_pathloss_csv(_omni_rows(ctx, records))
    if csv_out:
        _write(csv_out, text)
    else:
        click.echo(text, nl=False)


def _omni_rows(ctx: click.Context, records: list[core.CampaignRecord]
               ) -> list[core.PathLossSample | fileio.OutageRow]:
    """One omni path-loss sample, or outage row, per record and polarization."""
    threshold, dyn_range = ctx.obj["threshold_db"], ctx.obj["dynamic_range_db"]
    rows: list[core.PathLossSample | fileio.OutageRow] = []
    for record in records:
        pols = sorted({s.pol for s in record.sweeps}, key=lambda p: p.value)
        for pol in pols:
            try:
                pl_db = omni.omni_path_loss_db(record, pol, threshold, dyn_range)
            except core.NoMultipathError as exc:
                click.echo(f"warning: {exc}; emitting outage row", err=True)
                rows.append(
                    fileio.OutageRow(record.location_id, record.spec.band, record.env,
                                     pol, Directionality.OMNI, record.distance_m)
                )
                continue
            except OverflowError as exc:  # finite powers whose sums are not
                raise OverflowError(
                    f"record {record.location_id!r} ({pol.value}): {exc}") from None
            rows.append(
                core.PathLossSample(
                    location_id=record.location_id,
                    band=record.spec.band,
                    env=record.env,
                    pol=pol,
                    dir=Directionality.OMNI,
                    distance_m=record.distance_m,
                    path_loss_db=pl_db,
                )
            )
    return rows


@main.command(name="simulate")
@click.argument("config_json", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--out-dir", type=click.Path(file_okay=False), default=None,
              help="Directory for campaign outputs (defaults to --output-dir).")
@click.option("--workers", type=int, default=None,
              help="Ignored; generation is serial. Accepted for compatibility.")
@click.pass_context
def simulate_cmd(ctx, config_json, out_dir, workers):
    """Generate a synthetic campaign, then fit it back against its own parameters."""
    if workers is not None:
        click.echo("warning: --workers is ignored; generation is serial", err=True)
    config = fileio.parse_campaign_config(_read_text(config_json))
    if ctx.obj["seed"] is not None:
        config = dataclasses.replace(config, seed=ctx.obj["seed"])

    # All that can fail runs before the first write, so a failed run writes nothing; the
    # samples come after the delay table, to reuse the memory its rows freed.
    params = config.params()
    if config.pdp_synthesis is not None:
        profiles = simulate.generate_pdp_campaign(config)
        stats_text = fileio.emit_delay_stats_csv(*_delay_table(ctx, profiles))
    samples = simulate.generate_pathloss_campaign(config)
    fitres = estimation.fit_ci_model(samples, band=config.band, d0_m=params.d0_m)

    _write(_out_path(ctx, "campaign.csv", out_dir), fileio.emit_pathloss_csv(samples),
           f"wrote {{}} ({len(samples)} locations)")
    fitback = {
        "stratum": {"band_ghz": config.band.ghz, "env": config.env.value,
                    "pol": config.pol.value, "dir": config.dir.value},
        "n_locations": config.n_locations,
        "seed": config.seed,
        "configured": {"ple": params.ple, "sigma_db": params.shadow_sigma_db},
        "fitted": {"ple": fitres.ple_hat, "sigma_db": fitres.sigma_hat_db},
        "delta": {
            "ple": fitres.ple_hat - params.ple,
            "sigma_db": fitres.sigma_hat_db - params.shadow_sigma_db,
        },
    }
    _write(_out_path(ctx, "fitback.json", out_dir), json.dumps(fitback, indent=2) + "\n")
    click.echo(
        f"fit-back: ple {fitres.ple_hat:.4f} vs {params.ple} "
        f"(delta {fitres.ple_hat - params.ple:+.4f}), "
        f"sigma {fitres.sigma_hat_db:.4f} vs {params.shadow_sigma_db} dB "
        f"(delta {fitres.sigma_hat_db - params.shadow_sigma_db:+.4f})"
    )
    if config.pdp_synthesis is not None:
        _write(_out_path(ctx, "pdps.json", out_dir), fileio.emit_pdp_batch(profiles))
        _write(_out_path(ctx, "delay_stats.csv", out_dir), stats_text)


@main.command()
@click.option("--fit-csv", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Fitted table (from `fit --csv-out`) to compare against the catalog.")
@click.option("--spreads", "spreads_files", type=click.Path(exists=True, dir_okay=False),
              multiple=True, help="Delay-spread values (delay-stats CSV or one value per line).")
@click.option("-o", "--out-dir", type=click.Path(file_okay=False), default=None,
              help="Directory for CDF data files (defaults to --output-dir).")
@click.pass_context
def report(ctx, fit_csv, spreads_files, out_dir):
    """Catalog-vs-fitted comparison table plus CDF data files for plotting."""
    models = core.CI_MODEL_CATALOG  # with no fitted table, the catalog is compared with itself
    if fit_csv is not None:
        text = _read_text(fit_csv)
        with _naming(fit_csv):
            models = fileio.parse_fit_csv(text)
    fitted = {m.stratum: m for m in models}

    click.echo("close-in model parameters (catalog vs fitted)")
    bands = sorted({p.band for p in core.CI_MODEL_CATALOG})
    for band in bands:
        click.echo(f"\n[{band.label}]")
        click.echo(f"{'env':>9} {'pol':>4} {'dir':>13} {'ple':>6} {'sigma':>6} "
                   f"{'ple_fit':>8} {'sig_fit':>8} {'d_ple':>7} {'d_sig':>7}")
        for entry in core.CI_MODEL_CATALOG:
            if entry.band != band:
                continue
            match = fitted.get(entry.stratum)  # no fit: blank cells
            fit_cells = f"{'':>8} {'':>8} {'':>7} {'':>7}" if match is None else (
                f"{match.ple:>8.3f} {match.shadow_sigma_db:>8.3f} {match.ple - entry.ple:>+7.3f} "
                f"{match.shadow_sigma_db - entry.shadow_sigma_db:>+7.3f}")
            click.echo(f"{entry.env.value:>9} {entry.pol.value:>4} {entry.dir.value:>13} "
                       f"{entry.ple:>6.1f} {entry.shadow_sigma_db:>6.1f} {fit_cells}")

    click.echo("\ncross-polarization discrimination (omni LOS, per decade of distance)")
    for band in bands:
        co = core.catalog_lookup(band, Environment.LOS, Polarization.VV, Directionality.OMNI)
        cross = core.catalog_lookup(band, Environment.LOS, Polarization.VH, Directionality.OMNI)
        click.echo(f"  {band.label}: {xpd_per_decade_db(co, cross):.1f} dB")
    click.echo(
        "  note: computed from exponents rounded to one decimal; figures quoted from\n"
        "  unrounded fits can differ by up to 1 dB (22.0 dB here vs the quoted 23 dB\n"
        "  at 73.5 GHz)."
    )

    spreads = []  # every file is read and summarized before any CDF file is written
    for path in spreads_files:
        text = _read_text(path)
        with _naming(path):
            values = fileio.parse_spread_values(text)
            spreads.append((path, values, estimation.summarize_spreads(values)))
    for path, values, summary in spreads:
        stem = Path(path).stem
        click.echo(
            f"\ndelay spreads [{stem}]: n={len(values)}, mean {summary.mean_ns:.3f} ns, "
            f"std {summary.std_ns:.3f} ns, max {summary.max_ns:.3f} ns, "
            f"p90 {summary.p90_ns:.3f} ns"
        )
        target = _spread_target_for_stem(stem)
        if target is not None:
            click.echo(
                f"  catalog target: mean {target.mean_ns} ns (delta "
                f"{summary.mean_ns - target.mean_ns:+.3f}), std {target.std_ns} ns, "
                f"max {target.max_ns} ns, p90 {target.p90_ns} ns"
            )
        _write(_out_path(ctx, f"cdf_{stem}.csv", out_dir),
               fileio.emit_cdf_csv(estimation.empirical_cdf(values)), "  wrote {}")


def _spread_target_for_stem(stem: str):
    """Match file stems like 28ghz_nlos_vv against the delay-spread catalog."""
    parts = stem.lower().replace("-", "_").split("_")
    band = env = pol = None
    for part in parts:
        if part in ("28ghz", "28"):
            band = core.BAND_28GHZ
        elif part in ("73ghz", "73.5ghz", "73", "73.5"):
            band = core.BAND_73GHZ
        elif part in ("los", "nlos"):
            env = Environment(part.upper())
        elif part in ("vv", "vh"):
            pol = Polarization(part.upper())
    if band and env and pol:
        try:
            return core.delay_spread_lookup(band, env, pol)
        except core.UnknownCombinationError:
            return None
    return None


if __name__ == "__main__":
    main()
