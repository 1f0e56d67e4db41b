"""Command-line entry points.

Exit codes: 0 when the requested checks pass, 1 when a verification fails,
2 for configuration or usage errors, config files that cannot be read and output
paths that cannot be written, 3 for any other exception, reported as one
`internal error:` line.  Exits 2 and 3 write no report.  Ctrl-C prints `Aborted!`
and exits 1.
"""

from __future__ import annotations

import argparse
import codecs
import contextlib
import pathlib
import sys
import warnings

from . import experiments
from .config import ExperimentConfig, load_config
from .dispersion import DEFAULT_ORDER, STABILITY_TOL, von_neumann_radius
from .errors import SchemaError, SchemeError


def _echo(message: str, err: bool = False) -> None:
    """Print one line to stdout, or stderr if `err`.  An ASCII stream gets UTF-8
    bytes, since the equivalent equation prints ∂ and ρ and paths can be any text."""
    stream = sys.stderr if err else sys.stdout
    if codecs.lookup(getattr(stream, "encoding", None) or "utf-8").name != "ascii":
        print(message, file=stream, flush=True)
        return
    stream.flush()
    stream.buffer.write(f"{message}\n".encode("utf-8", "replace"))
    stream.buffer.flush()


def _load(config_path: str) -> ExperimentConfig:
    try:
        text = pathlib.Path(config_path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"/: invalid UTF-8 ({exc})") from None
    return load_config(text)


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
        _echo(f"warning: scheme is linearly unstable: max |g| = {radius:.6g} "
              f"at kλdt = ({phase})", err=True)


@contextlib.contextmanager
def _command_scope():
    """Turn an exception in a command into one stderr line and exit code 2 or 3,
    and each distinct warning message it raises into one `warning:` line.

    OSError is a usage error: a config file that cannot be read, or an output
    directory that cannot be created or written.
    The warning filters still decide what is shown; the display hook is restored.
    """
    shown = set()

    def show(message, *_):
        if str(message) not in shown:
            shown.add(str(message))
            _echo(f"warning: {message}", err=True)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            yield
        except (SchemeError, OSError) as exc:
            _echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:
            _echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(3)


def analyze(config_path, output_dir, fmt, order) -> None:
    """Derive the equivalent equation and write its coefficients."""
    with _command_scope():
        cfg = _load(config_path)
        payload = experiments.analyze_payload(cfg, order)
        _warn_if_unstable(cfg.spec)
        path = _write_report(cfg, output_dir, fmt, "analyze", payload,
                             lambda: experiments.analyze_csv_rows(payload))
    _echo(payload["pretty"])
    _echo(f"wrote {path}")


def dispersion(config_path, output_dir, fmt, order) -> None:
    """Extract oracle growth-rate series and compare with the prediction."""
    with _command_scope():
        cfg = _load(config_path)
        report = experiments.dispersion_payload(cfg, order)
        _warn_if_unstable(cfg.spec)
        path = _write_report(cfg, output_dir, fmt, "dispersion", report.to_json_dict(),
                             report.csv_rows)
    _echo(f"{len(report.records)} wavevectors, pass={report.passed}")
    _echo(f"wrote {path}")
    if not report.passed:
        sys.exit(1)


def simulate(config_path, output_dir, fmt) -> None:
    """Run the scheme and write observables plus a final snapshot."""
    with _command_scope():
        cfg = _load(config_path)
        payload, state = experiments.simulate_payload(cfg)
        path = _write_report(cfg, output_dir, fmt, "simulate", payload,
                             lambda: experiments.simulate_csv_rows(payload))
        out = path.parent
        try:
            experiments.save_snapshot(state, cfg.spec, out / "snapshot.csv",
                                      out / "snapshot_meta.json", cfg.steps)
        except Exception:
            # exits 2 and 3 write no report: take back what this command wrote
            for written in (path, out / "snapshot.csv"):
                with contextlib.suppress(OSError):
                    written.unlink()
            raise
    _echo(
        f"{cfg.steps} steps, mass drift {payload['mass_relative_drift']:.3e}"
    )
    _echo(f"wrote {path} and {out / 'snapshot.csv'}")


def verify(config_path, output_dir) -> None:
    """Run every verification channel, write verify.json; exit 0 only if all pass."""
    with _command_scope():
        cfg = _load(config_path)
        report = experiments.verify_report(cfg)
        out = _out_dir(cfg, output_dir)
        experiments.write_json(report, out / "verify.json")
    for section, result in report.items():
        if isinstance(result, dict):
            _echo(f"{section}: {'PASS' if result.get('pass') else 'FAIL'}")
    _echo(f"overall: {'PASS' if report['overall_pass'] else 'FAIL'}")
    _echo(f"wrote {out / 'verify.json'}")
    if not report["overall_pass"]:
        sys.exit(1)


def convergence(config_path, output_dir, fmt) -> None:
    """Refinement study of the equilibrium and transition residuals."""
    with _command_scope():
        cfg = _load(config_path)
        study = experiments.convergence_payload(cfg)
        path = _write_report(cfg, output_dir, fmt, "convergence", study,
                             lambda: experiments.convergence_csv_rows(study))
    _echo(
        f"equilibrium slope {study['equilibrium_slope']}, "
        f"transition slope {study['transition_slope']}"
    )
    _echo(f"wrote {path}")
    if not study["overall_pass"]:
        sys.exit(1)


def main(argv: list[str] | None = None) -> None:
    """Relative-velocity lattice Boltzmann schemes: analysis and verification."""
    parser = argparse.ArgumentParser(prog="rvlbm", description=main.__doc__)
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for command, options in ((analyze, ("--format", "--order")),
                             (dispersion, ("--format", "--order")),
                             (simulate, ("--format",)),
                             (verify, ()),
                             (convergence, ("--format",))):
        sub = commands.add_parser(command.__name__, help=command.__doc__,
                                  description=command.__doc__, allow_abbrev=False)
        sub.set_defaults(command=command)
        sub.add_argument("--config", dest="config_path", required=True, metavar="FILE",
                         help="Experiment JSON file.")
        sub.add_argument("--output", dest="output_dir", metavar="DIR",
                         help="Directory for result files.")
        if "--format" in options:
            sub.add_argument("--format", dest="fmt", choices=["json", "csv"],
                             help="Result file format.")
        if "--order" in options:
            sub.add_argument("--order", type=int, choices=range(1, 4), default=DEFAULT_ORDER,
                             help="Expansion order (default 3).")
    args = vars(parser.parse_args(argv))
    command = args.pop("command")
    try:
        command(**args)
    except KeyboardInterrupt:
        _echo("\nAborted!", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
