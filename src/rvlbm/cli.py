"""Command-line entry points.

Exit codes: 0 when the requested checks pass, 1 when a verification fails,
2 for configuration or usage errors and for output paths that cannot be written,
3 for any other exception, reported as one `internal error:` line.  Exits 2 and
3 write no report.
"""

from __future__ import annotations

import contextlib
import pathlib
import sys
import warnings

import click

from . import experiments
from .config import ExperimentConfig, load_config
from .dispersion import STABILITY_TOL, von_neumann_radius
from .errors import SchemeError
from .scheme import save_snapshot


def _load(config_path: str) -> ExperimentConfig:
    return load_config(pathlib.Path(config_path).read_text("utf-8"))


def _out_dir(cfg: ExperimentConfig, override: str | None) -> pathlib.Path:
    path = pathlib.Path(override) if override else pathlib.Path(cfg.output_path)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(cfg, output_dir, fmt, name, payload: dict, csv_rows) -> pathlib.Path:
    """Write `payload` as <name>.json, or csv_rows() as <name>.csv; return the path."""
    path = _out_dir(cfg, output_dir) / f"{name}.{fmt or cfg.output_format}"
    if path.suffix == ".csv":
        experiments.write_csv(csv_rows(), path)
    else:
        experiments.write_json(payload, path)
    return path


def _warn_if_unstable(spec) -> None:
    """Print one stderr warning when the von Neumann pre-flight finds a growing mode."""
    radius, theta = von_neumann_radius(spec)
    if radius > 1.0 + STABILITY_TOL:
        phase = ", ".join(f"{t:.4g}" for t in theta)
        click.echo(f"warning: scheme is linearly unstable: max |g| = {radius:.6g} "
                   f"at kλdt = ({phase})", err=True)


@contextlib.contextmanager
def _command_scope():
    """Turn an exception in a command into one stderr line and exit code 2 or 3,
    and each distinct warning message it raises into one `warning:` line.

    OSError is a usage error: an output directory that cannot be created or written.
    The warning filters still decide what is shown; the display hook is restored.
    """
    shown = set()

    def show(message, *_):
        if str(message) not in shown:
            shown.add(str(message))
            click.echo(f"warning: {message}", err=True)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            yield
        except (SchemeError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)


config_option = click.option(
    "--config", "config_path", required=True,
    type=click.Path(exists=True, dir_okay=False), help="Experiment JSON file.",
)
output_option = click.option(
    "--output", "output_dir", default=None,
    type=click.Path(file_okay=False), help="Directory for result files.",
)
format_option = click.option(
    "--format", "fmt", default=None, type=click.Choice(["json", "csv"]),
    help="Result file format.",
)
order_option = click.option(
    "--order", default=None, type=click.IntRange(1, 3), help="Expansion order.",
)


@click.group()
def main() -> None:
    """Relative-velocity lattice Boltzmann schemes: analysis and verification."""


@main.command()
@config_option
@output_option
@format_option
@order_option
def analyze(config_path, output_dir, fmt, order) -> None:
    """Derive the equivalent equation and write its coefficients."""
    with _command_scope():
        cfg = _load(config_path)
        payload = experiments.analyze_payload(cfg, order)
        _warn_if_unstable(cfg.spec)
        path = _write_report(cfg, output_dir, fmt, "analyze", payload,
                             lambda: experiments.analyze_csv_rows(payload))
    click.echo(payload["pretty"])
    click.echo(f"wrote {path}")


@main.command()
@config_option
@output_option
@format_option
@order_option
def dispersion(config_path, output_dir, fmt, order) -> None:
    """Extract oracle growth-rate series and compare with the prediction."""
    with _command_scope():
        cfg = _load(config_path)
        report = experiments.dispersion_payload(cfg, order)
        _warn_if_unstable(cfg.spec)
        path = _write_report(cfg, output_dir, fmt, "dispersion", report.to_json_dict(),
                             report.csv_rows)
    click.echo(f"{len(report.records)} wavevectors, pass={report.passed}")
    click.echo(f"wrote {path}")
    if not report.passed:
        sys.exit(1)


@main.command()
@config_option
@output_option
@format_option
def simulate(config_path, output_dir, fmt) -> None:
    """Run the scheme and write observables plus a final snapshot."""
    with _command_scope():
        cfg = _load(config_path)
        payload, state = experiments.simulate_payload(cfg)
        path = _write_report(cfg, output_dir, fmt, "simulate", payload,
                             lambda: experiments.simulate_csv_rows(payload))
        out = path.parent
        save_snapshot(state, cfg.spec, out / "snapshot.csv", out / "snapshot_meta.json",
                      cfg.steps)
    click.echo(
        f"{cfg.steps} steps, mass drift {payload['mass_relative_drift']:.3e}"
    )
    click.echo(f"wrote {path} and {out / 'snapshot.csv'}")


@main.command()
@config_option
@output_option
def verify(config_path, output_dir) -> None:
    """Run every verification channel, write verify.json; exit 0 only if all pass."""
    with _command_scope():
        cfg = _load(config_path)
        report = experiments.verify_report(cfg)
        out = _out_dir(cfg, output_dir)
        experiments.write_json(report, out / "verify.json")
    for section in (
        "predictor_vs_oracle",
        "u_invariance",
        "transition_scaling",
        "dhumieres_crosscheck",
    ):
        status = "PASS" if report[section].get("pass") else "FAIL"
        click.echo(f"{section}: {status}")
    click.echo(f"overall: {'PASS' if report['overall_pass'] else 'FAIL'}")
    click.echo(f"wrote {out / 'verify.json'}")
    if not report["overall_pass"]:
        sys.exit(1)


@main.command()
@config_option
@output_option
@format_option
def convergence(config_path, output_dir, fmt) -> None:
    """Refinement study of the equilibrium and transition residuals."""
    with _command_scope():
        cfg = _load(config_path)
        study = experiments.convergence_payload(cfg)
        path = _write_report(cfg, output_dir, fmt, "convergence", study,
                             lambda: experiments.convergence_csv_rows(study))
    click.echo(
        f"equilibrium slope {study['equilibrium_slope']}, "
        f"transition slope {study['transition_slope']}"
    )
    click.echo(f"wrote {path}")
    if not study["overall_pass"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
