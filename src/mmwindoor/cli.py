"""Command-line surface.

Subcommands: ``catalog``, ``fit``, ``pdp-stats``, ``synthesize-omni``,
``simulate`` and ``report``. Exit codes: 0 success, 2 malformed input
(parse, an undecodable input or an unwritable output path), 3 invalid
values (validation), 4 empty input. Commands raise; one boundary around them
maps exceptions to exit codes and prints every warning through one sink. The
default output directory comes from ``MMWINDOOR_OUTPUT_DIR`` when set.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
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


class _Boundary(click.Group):
    """Runs every command under one exit-code table and one warning sink, with the
    cyclic collector paused: a command makes no cycles worth collecting, and each
    collection would walk every object it has parsed. The sink prints every UserWarning
    each time it is raised."""

    def invoke(self, ctx: click.Context):
        with warnings.catch_warnings(), fileio._gc_paused():
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = lambda message, *_: click.echo(f"warning: {message}", err=True)
            try:
                return super().invoke(ctx)
            except Exception as exc:
                for types, code, prefix in _EXIT_CODES:
                    if isinstance(exc, types):
                        click.echo(f"error: {prefix}{exc}", err=True)
                        raise SystemExit(code) from None
                raise


@contextlib.contextmanager
def _naming(path: str):
    """Put ``path`` before the message of a ParseError, OverflowError or EmptyInputError
    raised inside."""
    try:
        yield
    except (fileio.ParseError, OverflowError, core.EmptyInputError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _write(path: str | Path, text: str, done: str = "wrote {}") -> str:
    """Write ``text`` atomically and return ``done`` with the path filled in, the line
    that reports the file. A command echoes it only once all its files are written, so
    a failed write prints nothing of its table."""
    try:
        fileio.atomic_write(path, text)
    except OSError as exc:
        raise fileio.ParseError(f"cannot write {path}: {exc}") from None
    return done.format(path)


def _out_path(ctx: click.Context, name: str, explicit_dir: str | None) -> Path:
    base = Path(explicit_dir) if explicit_dir else Path(ctx.obj["output_dir"])
    return base / name


@click.group(cls=_Boundary)
@click.option("--d0-m", default=1.0, show_default=True, help="Close-in reference distance in meters.")
@click.option("--seed", default=None, type=int, help="Override the random seed (simulate).")
@click.option("--threshold-db", default=pdp.THRESHOLD_DB_ABOVE_NOISE, show_default=True,
              help="Multipath detection threshold above the noise floor, dB.")
@click.option("--dynamic-range-db", default=pdp.DYNAMIC_RANGE_DB, show_default=True,
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
        click.echo(_write(output, text))
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
    if band_ghz is not None and not 0.0 < band_ghz < math.inf:  # a band's own rule
        raise ValueError(f"--band-ghz must be finite and > 0, got {band_ghz}")
    samples = fileio.parse_pathloss_csv(fileio.read_text(input_csv))
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
    lines = [f"{'band':>9} {'env':>9} {'pol':>4} {'dir':>13} {'n':>6} {'ple':>7} {'sigma_db':>9}"]
    for (band, env, pol, dir_), group in sorted(
        strata.items(), key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2].value, kv[0][3].value)
    ):
        stratum = core.stratum_label(band, env, pol, dir_)
        try:  # a fit that is no model (ple <= 0, or NLOS_BEST omni) is skipped
            result = estimation.fit_ci_model(group, d0_m=d0_m)
            model = core.CiModelParams(band, env, pol, dir_, result.ple_hat,
                                       result.sigma_hat_db, d0_m)
        except OverflowError as exc:
            raise OverflowError(f"stratum {stratum}: {exc}") from None
        except ValueError as exc:
            warnings.warn(f"skipping stratum {stratum}: {exc}", core.SkippedStratumWarning)
            continue
        models.append(model)
        lines.append(
            f"{band.label:>9} {env.value:>9} {pol.value:>4} {dir_.value:>13} "
            f"{len(group):>6d} {model.ple:>7.3f} {model.shadow_sigma_db:>9.3f}"
        )
    if not models:
        raise core.EmptyInputError("every stratum was empty or unfittable")
    if csv_out:
        lines.append(_write(csv_out, fileio.emit_fit_csv(models)))
    click.echo("\n".join(lines))  # once every stratum is fitted and written: no partial table


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
    per_pdp = fileio.parse_pdp_batch(fileio.read_text(input_json), each=_delay_row(ctx))
    summary = _spread_summary(per_pdp)
    lines = [f"{'pdp':>5} {'status':>14} {'mean_ns':>10} {'rms_ns':>10} {'power_mw':>12}"]
    for i, status, stats in per_pdp:
        if stats is None:
            lines.append(f"{i:>5d} {status:>14} {'-':>10} {'-':>10} {'-':>12}")
        else:
            lines.append(
                f"{i:>5d} {status:>14} {stats.mean_excess_delay_ns:>10.3f} "
                f"{stats.rms_delay_spread_ns:>10.3f} {stats.total_power_mw:>12.6g}"
            )
    if summary is not None:
        lines.append(
            f"summary: mean {summary.mean_ns:.3f} ns, std {summary.std_ns:.3f} ns, "
            f"max {summary.max_ns:.3f} ns, p90 {summary.p90_ns:.3f} ns"
        )
    else:
        lines.append("summary: no PDP had detectable multipath")
    if csv_out:
        lines.append(_write(csv_out, fileio.emit_delay_stats_csv(per_pdp, summary)))
    click.echo("\n".join(lines))  # one write, not one per profile


def _delay_row(ctx: click.Context):
    """The step ``(i, profile) -> (i, status, DelayStats or None)`` that thresholds one
    profile and takes its delay statistics."""
    threshold, dyn_range = ctx.obj["threshold_db"], ctx.obj["dynamic_range_db"]

    def row(i: int, profile: core.Pdp) -> tuple:
        cleaned = pdp.threshold_pdp(profile, threshold, dyn_range)
        try:
            return i, "ok", pdp.delay_stats(cleaned)
        except core.NoMultipathError:
            return i, "no-multipath", None
        except (OverflowError, ValueError) as exc:  # finite inputs, non-finite sums or moments
            raise ValueError(f"pdp[{i}]: {exc}") from None

    return row


def _spread_summary(per_pdp: list):
    """The summary of the rows' RMS delay spreads; None when no profile had detectable
    multipath."""
    spreads = [stats.rms_delay_spread_ns for _, _, stats in per_pdp if stats is not None]
    return estimation.summarize_spreads(spreads) if spreads else None


@main.command(name="synthesize-omni")
@click.argument("record_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv-out", type=click.Path(dir_okay=False), default=None,
              help="Write the synthesized path-loss samples here.")
@click.pass_context
def synthesize_omni(ctx, record_json, csv_out):
    """Synthesize omnidirectional path loss from directional sweep records."""
    per_record = fileio.parse_campaign_records(fileio.read_text(record_json), each=_omni_rows(ctx))
    text = fileio.emit_pathloss_csv(itertools.chain.from_iterable(per_record))
    if csv_out:
        click.echo(_write(csv_out, text))
    else:
        click.echo(text, nl=False)


def _omni_rows(ctx: click.Context):
    """The step ``(i, record) -> rows`` that gives one omni path-loss sample, or outage
    row, per polarization of one record."""
    threshold, dyn_range = ctx.obj["threshold_db"], ctx.obj["dynamic_range_db"]

    def rows(i: int, record: core.CampaignRecord) -> list[core.PathLossSample | fileio.OutageRow]:
        found: list[core.PathLossSample | fileio.OutageRow] = []
        pols = sorted({s.pol for s in record.sweeps}, key=lambda p: p.value)
        for pol in pols or [None]:  # no sweeps: the library raises EmptyInputError naming it
            cells = (record.location_id, record.spec.band, record.env, pol,
                     Directionality.OMNI, record.distance_m)
            try:
                pl_db = omni.omni_path_loss_db(record, pol, threshold, dyn_range)
            except core.NoMultipathError as exc:
                warnings.warn(f"{exc}; emitting outage row", core.OutageWarning)
                found.append(fileio.OutageRow(*cells))
                continue
            except OverflowError as exc:  # finite powers whose sums are not
                raise OverflowError(
                    f"record {record.location_id!r} ({pol.value}): {exc}") from None
            found.append(core.PathLossSample(*cells, pl_db))
        return found

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
        warnings.warn("--workers is ignored; generation is serial")
    config = fileio.parse_campaign_config(fileio.read_text(config_json))
    if ctx.obj["seed"] is not None:
        config = dataclasses.replace(config, seed=ctx.obj["seed"])

    # All that can fail runs before the first write, so a failed run writes nothing; the
    # samples come after the delay table, to reuse the memory its rows freed.
    params = config.params()
    if config.pdp_synthesis is not None:
        profiles = simulate.generate_pdp_campaign(config)
        per_pdp = list(map(_delay_row(ctx), itertools.count(), profiles))
        stats_text = fileio.emit_delay_stats_csv(per_pdp, _spread_summary(per_pdp))
        del per_pdp
    samples = simulate.generate_pathloss_campaign(config)
    fitres = estimation.fit_ci_model(samples, d0_m=params.d0_m)

    click.echo(_write(_out_path(ctx, "campaign.csv", out_dir), fileio.emit_pathloss_csv(samples),
                      f"wrote {{}} ({len(samples)} locations)"))
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
    click.echo(_write(_out_path(ctx, "fitback.json", out_dir),
                      json.dumps(fitback, indent=2) + "\n"))
    click.echo(
        f"fit-back: ple {fitres.ple_hat:.4f} vs {params.ple} "
        f"(delta {fitres.ple_hat - params.ple:+.4f}), "
        f"sigma {fitres.sigma_hat_db:.4f} vs {params.shadow_sigma_db} dB "
        f"(delta {fitres.sigma_hat_db - params.shadow_sigma_db:+.4f})"
    )
    if config.pdp_synthesis is not None:
        click.echo(_write(_out_path(ctx, "pdps.json", out_dir), fileio.emit_pdp_batch(profiles)))
        click.echo(_write(_out_path(ctx, "delay_stats.csv", out_dir), stats_text))


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
    cdf_names: dict[str, str] = {}  # CDF file name -> the spreads file that writes it
    for path in spreads_files:
        name = f"cdf_{Path(path).stem}.csv"
        if name in cdf_names:
            raise fileio.ParseError(f"{cdf_names[name]} and {path} would both write {name}")
        cdf_names[name] = path
    models = core.CI_MODEL_CATALOG  # with no fitted table, the catalog is compared with itself
    if fit_csv is not None:
        text = fileio.read_text(fit_csv)
        with _naming(fit_csv):
            models = fileio.parse_fit_csv(text)
    # A fitted model is compared only with a cataloged model of its stratum and anchor:
    # exponents relative to different d0 do not compare.
    cataloged = {e.stratum: e for e in core.CI_MODEL_CATALOG}
    fitted = {}
    for m in models:  # in file order
        entry = cataloged.get(m.stratum)
        if entry is None:
            reason = "no cataloged model to compare with"
        elif m.d0_m != entry.d0_m:
            reason = f"fitted at d0_m {m.d0_m!r}, cataloged at d0_m {entry.d0_m!r}"
        else:
            fitted[m.stratum] = m
            continue
        warnings.warn(f"skipping stratum {core.stratum_label(*m.stratum)}: {reason}",
                      core.SkippedStratumWarning)

    spreads = []  # every file is read and summarized before a file is written
    for path in spreads_files:
        text = fileio.read_text(path)
        with _naming(path):
            values = fileio.parse_spread_values(text)
            spreads.append((path, values, estimation.summarize_spreads(values)))
    wrote = [  # and every CDF file is written before a line is printed
        _write(_out_path(ctx, f"cdf_{Path(path).stem}.csv", out_dir),
               fileio.emit_cdf_csv(estimation.empirical_cdf(values)), "  wrote {}")
        for path, values, _ in spreads]

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

    for (path, values, summary), done in zip(spreads, wrote):
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
        click.echo(done)


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
    if band and env and pol:  # every (band, env, pol) named here is cataloged
        return core.delay_spread_lookup(band, env, pol)
    return None


if __name__ == "__main__":
    main()
