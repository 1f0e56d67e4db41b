"""Per-layer measurements for the traced run.

Every traced run, whatever its workload, drills each layer once so that it
reports the same per-layer table.  A call repeated on the same input is
reported at its fastest, like the gated end-to-end time; a figure over
different inputs (family members, wavevectors) is their median.  A drill times a public call and, to split
it into self time and children, makes the same sub-calls itself under a
`bench.replica.*` span: for example `amplification_matrix` and
`dominant_eigenvalue` for each dt level of one `extract_symbol_series`.
Self time is then the call's time minus its replicated children.  Spans
inside rvlbm itself are not recorded; that needs instrumentation in the
package.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np

from rvlbm import (
    BranchAmbiguity,
    amplification_matrix,
    build_moment_matrix,
    collide,
    compare_with_prediction,
    derive_equivalent_equation,
    dhumieres_crosscheck,
    dominant_eigenvalue,
    extract_symbol_series,
    geometric_dt_sequence,
    initial_state,
    load_config,
    refinement_study,
    residual_pair,
    run,
    simulate_payload,
    step,
    stream,
    transition_prediction,
    verify_report,
)
from rvlbm.config import REFERENCE_NAMES, default_k_samples
from rvlbm.dispersion import DEFAULT_LEVELS, DEFAULT_PHASE
from rvlbm.experiments import write_json

from workloads import (
    CLI_COMMANDS,
    FLOORS,
    RELATIVE,
    CliWorkload,
    OpResult,
    config_path,
    oracle_family,
    sim_members,
    with_shift,
)


def _median(values) -> float:
    return float(np.median(values))


class Drills:
    """Runs each layer drill under one tracer and collects metrics with units."""

    def __init__(self, root: pathlib.Path, seed: int, tiny: bool, out_dir: pathlib.Path, tracer):
        self.root, self.seed, self.tiny, self.out_dir, self.tr = root, seed, tiny, out_dir, tracer
        self.metrics: dict[str, tuple[float, str]] = {}
        self.checks = OpResult(0.0, 0.0)
        self.cfgs = {n: load_config(config_path(root, n).read_text("utf-8")) for n in REFERENCE_NAMES}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn under a span named `name`; return (result, seconds)."""
        with self.tr.span(name) as sp:
            out = fn(*args, **kwargs)
        return out, sp.duration

    def run_all(self, copy_gbps: float, field_setup_ms: dict[str, float]) -> None:
        with self.tr.span("bench.drills"):
            self.import_layer()
            self.config_layer()
            family = oracle_family(self.cfgs, self.seed, self.tiny)
            self.lattice_layer(family)
            self.dispersion_layer(family)
            self.equivalent_layer(family)
            for which in ("sim_small", "sim_large", "ref"):
                self.scheme_layer(which, copy_gbps)
            for member, ms in field_setup_ms.items():
                self.put(f"scheme.field_setup_ms.{member}", ms, "ms")
            payload_s = self.experiments_layer()
            self.cli_layer(payload_s)

    def import_layer(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        argv = [sys.executable, "-c", "import sys, rvlbm; print(len(sys.modules))"]
        walls, modules = [], 0
        with self.tr.span("bench.drill.import"):
            for _ in range(1 if self.tiny else 3):
                out, wall = self.timed("import.rvlbm", subprocess.run, argv, env=env, cwd=self.root,
                                       capture_output=True, text=True, check=True, timeout=120)
                walls.append(wall)
                modules = int(out.stdout.strip())
        self.import_wall_s = min(walls)
        self.put("import.wall_s", self.import_wall_s, "s")
        self.put("import.modules", modules, "count")

    def config_layer(self) -> None:
        texts = [config_path(self.root, n).read_text("utf-8") for n in REFERENCE_NAMES]
        with self.tr.span("bench.drill.config"):
            times = [self.timed("config.load_config", load_config, t)[1] for t in texts * 5]
        self.put("config.load_config_ms", _median(times) * 1e3, "ms")

    def lattice_layer(self, family) -> None:
        times = []
        with self.tr.span("bench.drill.lattice"):
            for _, spec in family:
                u = spec.u_tilde.constant_vector(spec.dim)
                times.append(self.timed("lattice.build_moment_matrix", build_moment_matrix,
                                        spec.basis, spec.vset, u)[1])
        self.put("lattice.build_moment_matrix_us", _median(times) * 1e6, "us")

    def dispersion_layer(self, family) -> None:
        compare_t, extract_t, fit_self, amp_t, eig_t = [], [], [], [], []
        symbols = poor = 0
        with self.tr.span("bench.drill.dispersion"):
            for name, spec in family:
                ks = default_k_samples(spec.dim)
                rep, t = self.timed("dispersion.compare_with_prediction", compare_with_prediction,
                                    spec, ks, relative=RELATIVE, floors=FLOORS)
                compare_t.append(t)
                self.checks.count(rep.passed, f"drill {name}: ComparisonReport.passed is false")
                if not name.endswith("_u0.2"):
                    continue
                for k in ks:
                    k = np.asarray(k, dtype=float)
                    dts = geometric_dt_sequence(DEFAULT_PHASE / (np.linalg.norm(k) * spec.vset.lam),
                                                DEFAULT_LEVELS)
                    series, t_ext = self.timed("dispersion.extract_symbol_series", extract_symbol_series,
                                               spec, k, dts, on_poor_fit="flag")
                    symbols += 1
                    poor += bool(series.poor_fit)
                    children = 0.0
                    with self.tr.span("bench.replica.extract_symbol_series"):
                        hint = 1.0 + 0.0j
                        for dt in np.sort(dts):
                            g, ta = self.timed("dispersion.amplification_matrix", amplification_matrix,
                                               spec, k, dt)
                            try:
                                hint, te = self.timed("dispersion.dominant_eigenvalue",
                                                      dominant_eigenvalue, g, hint)
                            except BranchAmbiguity:
                                te = self.tr.spans[-1].duration
                            amp_t.append(ta)
                            eig_t.append(te)
                            children += ta + te
                    extract_t.append(t_ext)
                    fit_self.append(t_ext - children)
        self.put("dispersion.amplification_matrix_us", _median(amp_t) * 1e6, "us")
        self.put("dispersion.dominant_eigenvalue_us", _median(eig_t) * 1e6, "us")
        self.put("dispersion.extract_symbol_series_ms", _median(extract_t) * 1e3, "ms")
        self.put("dispersion.fit_self_ms", _median(fit_self) * 1e3, "ms")
        self.put("dispersion.compare_ms", _median(compare_t) * 1e3, "ms")
        self.put("dispersion.symbols", symbols, "count")
        self.put("dispersion.poor_fits", poor, "count")

    def equivalent_layer(self, family) -> None:
        with self.tr.span("bench.drill.equivalent"):
            derive = [self.timed("equivalent.derive_equivalent_equation", derive_equivalent_equation,
                                 spec, 3)[1] for _, spec in family]
            trans = [self.timed("equivalent.transition_prediction", transition_prediction, cfg.spec, 3)[1]
                     for cfg in self.cfgs.values()]
            cross = [self.timed("equivalent.dhumieres_crosscheck", dhumieres_crosscheck, spec)[1]
                     for name, spec in family if name.endswith("_u0.0")]
        self.put("equivalent.derive_ms", _median(derive) * 1e3, "ms")
        self.put("equivalent.transition_prediction_ms", _median(trans) * 1e3, "ms")
        self.put("equivalent.crosscheck_ms", _median(cross) * 1e3, "ms")

    def scheme_layer(self, which: str, copy_gbps: float) -> None:
        for m in sim_members(self.cfgs, self.seed, which, self.tiny):
            steps = {"sim_small": 3 if self.tiny else 200, "sim_large": 2 * m.steps}.get(which, m.steps)
            with self.tr.span(f"bench.drill.scheme.{m.name}"):
                collide(m.state, m.spec)  # fill the lazy matrix caches first
                m.state, t_run = self.timed("scheme.run", run, m.state, m.spec, steps)
                t_step, t_col, t_str = [], [], []
                for _ in range(steps):
                    m.state, t = self.timed("scheme.step", step, m.state, m.spec)
                    t_step.append(t)
                for _ in range(steps):
                    t_col.append(self.timed("scheme.collide", collide, m.state, m.spec)[1])
                    t_str.append(self.timed("scheme.stream", stream, m.state, m.spec.vset)[1])
            m.done = 2 * steps
            self.checks.count(*m.check())
            step_s = min(t_step)
            tag = m.name
            self.put(f"scheme.step_us.{tag}", step_s * 1e6, "us")
            self.put(f"scheme.collide_us.{tag}", min(t_col) * 1e6, "us")
            self.put(f"scheme.stream_us.{tag}", min(t_str) * 1e6, "us")
            self.put(f"scheme.mpops.{tag}", m.pops_per_step * steps / t_run / 1e6, "Mpop/s")
            self.put(f"scheme.step_self_us.{tag}", (step_s - min(t_col) - min(t_str)) * 1e6, "us")
            self.put(f"scheme.run_self_us.{tag}", (t_run / steps - step_s) * 1e6, "us")
            self.put(f"scheme.min_bytes_per_step.{tag}", m.min_bytes_per_step(), "B")
            self.put(f"scheme.bw_fraction.{tag}", m.min_bytes_per_step() / step_s / (copy_gbps * 1e9), "ratio")
            self.put(f"scheme.cells_updated.{tag}", m.cells * m.done, "count")
            self.put(f"scheme.mass_drift_max.{tag}", m.drift_max, "ratio")

    def experiments_layer(self) -> dict[str, float]:
        """Returns the in-process payload time of each CLI command, in seconds."""
        t: dict[str, list[float]] = {}

        def timed(key: str, name: str, fn, *args, **kwargs):
            out, seconds = self.timed(name, fn, *args, **kwargs)
            t.setdefault(key, []).append(seconds)
            return out

        reports = {}
        with self.tr.span("bench.drill.experiments"):
            for _ in range(1 if self.tiny else 3):
                for name, cfg in self.cfgs.items():
                    reports[name] = timed(f"verify.{name}", "experiments.verify_report", verify_report, cfg)
                    self.checks.count(reports[name]["overall_pass"] is True,
                                      f"drill verify_report {name} failed")
                    with self.tr.span("bench.replica.verify_report"):
                        for u in cfg.u_sweep:
                            timed(f"compare.{name}.{u}", "dispersion.compare_with_prediction",
                                  compare_with_prediction, with_shift(cfg.spec, u), cfg.k_samples,
                                  order=cfg.order, relative=cfg.relative_tolerances,
                                  floors=cfg.absolute_floors, dt0=cfg.dt0, levels=cfg.levels)
                            timed(f"derive.{name}.{u}", "equivalent.derive_equivalent_equation",
                                  derive_equivalent_equation, with_shift(cfg.spec, u), 3)
                        # every shipped config starts from a sine, which verify_report uses as is
                        timed(f"refinement.{name}", "experiments.refinement_study", refinement_study,
                              cfg.spec, cfg.box_lengths, cfg.grids[:3], cfg.initial, cfg.warmup)
                        timed(f"crosscheck.{name}", "equivalent.dhumieres_crosscheck",
                              dhumieres_crosscheck, with_shift(cfg.spec, 0.0))
                    grid = (cfg.grids[0],) * cfg.spec.dim
                    timed(f"pair.{name}", "experiments.residual_pair", residual_pair, cfg.spec, grid,
                          cfg.box_lengths, cfg.initial, cfg.warmup)
                    with self.tr.span("bench.replica.residual_pair"):
                        state = initial_state(cfg.spec, grid, cfg.box_lengths, cfg.initial)
                        timed(f"warmup.{name}", "scheme.run", run, state, cfg.spec, cfg.warmup)
                timed("simulate.d1q3", "experiments.simulate_payload", simulate_payload, self.cfgs["d1q3"])
                out = self.out_dir / "drill"
                out.mkdir(parents=True, exist_ok=True)
                timed("write", "experiments.write_json", write_json, reports["d2q5"], out / "verify.json")
        best = {k: min(v) for k, v in t.items()}
        verify_self = pair_self = 0.0
        for name, cfg in self.cfgs.items():
            children = best[f"refinement.{name}"] + best[f"crosscheck.{name}"] + sum(
                best[f"compare.{name}.{u}"] + best[f"derive.{name}.{u}"] for u in cfg.u_sweep)
            verify_self += best[f"verify.{name}"] - children
            pair_self += best[f"pair.{name}"] - best[f"warmup.{name}"]
            self.put(f"experiments.verify_report_ms.{name}", best[f"verify.{name}"] * 1e3, "ms")
            self.put(f"experiments.refinement_study_ms.{name}", best[f"refinement.{name}"] * 1e3, "ms")
        self.put("experiments.verify_self_ms", verify_self * 1e3, "ms")
        self.put("experiments.residual_pair_self_ms", pair_self * 1e3, "ms")
        self.put("experiments.simulate_payload_ms", best["simulate.d1q3"] * 1e3, "ms")
        self.put("experiments.write_json_ms", best["write"] * 1e3, "ms")
        return {k: v for k, v in best.items() if k.startswith(("verify.", "simulate."))}

    def cli_layer(self, payload_s: dict[str, float]) -> None:
        cli = CliWorkload(self.root, self.seed, self.tiny, self.out_dir / "drill")
        cli.setup()
        with self.tr.span("bench.drill.cli"):
            res = cli.op(self.tr)
        self.checks.attempted += res.attempted
        self.checks.failed += res.failed
        self.checks.notes += res.notes
        self_s = 0.0
        for cmd, cfg in CLI_COMMANDS:
            key = f"{cmd}.{cfg}"
            wall = res.parts[key]
            self.put(f"cli.command_s.{key}", wall, "s")
            self_s += wall - self.import_wall_s - payload_s[key]
        self.put("cli.self_s", self_s, "s")
