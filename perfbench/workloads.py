"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup` (untimed, caches
warmed), then the runner calls `op` repeatedly.  `op` makes the timed calls
into rvlbm, with a span around each public call, and returns an `OpResult`;
the output checks run afterwards, outside the timed region.

Why these four (each stresses a different layer, and each ROADMAP item moves
a different one of them):

- cli: what users run.  Fresh processes, so import, config loading and, for
  d2q5, `refinement_study` dominate.
- oracle_family: the acceptance family through `derive_equivalent_equation`
  and `compare_with_prediction`; `dispersion` and `lattice` do almost all the
  work and the simulator none.
- sim_small: long `run`s on 32..64-cell grids, where Python overhead per call
  dominates; removing dispatch cost shows here, moving fewer bytes does not.
- sim_large: d2q5 at 1024^2 (42 MB per state copy, past the L3 once
  `collide`'s temporaries are counted) and a sine-shifted d2q5 at 512^2 on the
  per-cell matrix path; memory-bound, so moving fewer bytes shows here and
  per-call overhead does not.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from rvlbm import (
    MomentPolynomial,
    SchemeSpec,
    VelocitySet,
    VelocityShift,
    amplification_matrix,
    build_moment_matrix,
    collide,
    compare_with_prediction,
    derive_equivalent_equation,
    equilibrium_state,
    fourier_mode_state,
    load_config,
    make_state,
    run,
    sine_density,
)
from rvlbm.config import REFERENCE_NAMES, default_k_samples

# The d1q2 member with s = 2 sits on the stability edge on purpose; the
# acceptance suite filters the same warning.
warnings.filterwarnings("ignore", message="relaxation rate s")

RELATIVE = (1e-8, 1e-6, 1e-4)
FLOORS = (1e-12, 1e-10, 1e-8)
SHIFTS = (0.0, 0.2, 0.5)
MASS_DRIFT_BOUND = 1e-13
FOURIER_BOUND = 1e-8
SINE_SHIFT = 0.1
# The gated time takes each component of an operation at its fastest over the
# run.  This machine runs at two or three speeds up to 2x apart, each held for
# seconds to tens of seconds; a run's median lands in whichever speed held for
# most of its window, so medians spread 30-40 % between runs (README.md).
CLI_COMMANDS = (("verify", "d1q2"), ("verify", "d1q3"), ("verify", "d2q5"), ("simulate", "d1q3"))


@dataclass
class OpResult:
    """One operation: its wall time, the work it did and its check outcome."""

    seconds: float
    units: float
    parts: dict[str, float] = field(default_factory=dict)  # seconds per component
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def count(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)


def part_times(ops: list[OpResult]) -> dict[str, list[float]]:
    """Each component's times over the operations of a run."""
    out: dict[str, list[float]] = {}
    for op in ops:
        for name, seconds in op.parts.items():
            out.setdefault(name, []).append(seconds)
    return out


def config_path(root: pathlib.Path, name: str) -> pathlib.Path:
    return root / "src" / "rvlbm" / "configs" / f"{name}.json"


def load_reference(root: pathlib.Path) -> tuple[dict, float]:
    """The three shipped configs, parsed, and the median load_config time in ms."""
    texts = {n: config_path(root, n).read_text("utf-8") for n in REFERENCE_NAMES}
    cfgs, times = {}, []
    for name, text in texts.items():
        t0 = time.perf_counter()
        cfgs[name] = load_config(text)
        times.append(time.perf_counter() - t0)
    return cfgs, float(np.median(times)) * 1e3


def with_shift(spec: SchemeSpec, u: float) -> SchemeSpec:
    shift = VelocityShift.zero() if u == 0.0 else VelocityShift.constant((u * spec.vset.lam,) * spec.dim)
    return replace(spec, u_tilde=shift)


def d1q2_member(c: float, s1: float) -> SchemeSpec:
    vset = VelocitySet(1, 1.0, ((1,), (-1,)))
    basis = (MomentPolynomial.constant(1), MomentPolynomial.coordinate(1, 0))
    return SchemeSpec(vset, basis, (0.0, s1), ((1 + c) / 2, (1 - c) / 2))


def drawn_d1q3(rng: np.random.Generator) -> SchemeSpec:
    """A d1q3 scheme drawn like the acceptance suite's seeded members."""
    e = rng.uniform(0.05, 1.0, 3)
    e = e / e.sum()
    s = (0.0,) + tuple(rng.uniform(0.7, 1.8, 2))
    vset = VelocitySet(1, 1.0, ((0,), (1,), (-1,)))
    basis = (
        MomentPolynomial.constant(1),
        MomentPolynomial.coordinate(1, 0),
        MomentPolynomial.from_terms(1, {(2,): 1.0}),
    )
    return SchemeSpec(vset, basis, s, tuple(e))


def oracle_family(cfgs: dict, seed: int, tiny: bool) -> list[tuple[str, SchemeSpec]]:
    """12 d1q2 members, 2 seeded d1q3 members and d2q5, each at 3 shifts."""
    rng = np.random.default_rng(seed)
    pairs = [(0.3, 1.0)] if tiny else [(c, s1) for c in (0.0, 0.3, 0.6) for s1 in (0.8, 1.0, 1.5, 2.0)]
    base = [(f"d1q2_c{c}_s{s1}", d1q2_member(c, s1)) for c, s1 in pairs]
    base += [(f"d1q3_draw{i}", drawn_d1q3(rng)) for i in range(1 if tiny else 2)]
    base.append(("d2q5", cfgs["d2q5"].spec))
    return [(f"{name}_u{u}", with_shift(spec, u)) for name, spec in base for u in SHIFTS]


class Workload:
    name = ""
    unit = ""

    def __init__(self, root: pathlib.Path, seed: int, tiny: bool, out_dir: pathlib.Path):
        self.root, self.seed, self.tiny, self.out_dir = root, seed, tiny, out_dir
        self.phases: dict = {}

    def setup(self) -> None:
        self.cfgs, self.phases["config_ms"] = load_reference(self.root)

    def op(self, tracer) -> OpResult:
        raise NotImplementedError

    def time_per_unit(self, ops: list[OpResult]) -> float:
        """The gated end-to-end figure, in seconds per unit of work.

        Each component of an operation (a CLI command, a family member, a
        simulated member) is taken at its fastest time over the run, and the
        components are summed.
        """
        return sum(min(v) for v in part_times(ops).values()) / ops[0].units

    def summary(self, ops: list[OpResult]) -> dict:
        """Workload-specific end-to-end figures and check records."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CliWorkload(Workload):
    """Closed loop, one client: each round runs every CLI command in a fresh process."""

    name = "cli"
    unit = "CLI round"

    def setup(self) -> None:
        super().setup()
        for cfg in self.cfgs.values():
            u = cfg.spec.u_tilde.constant_vector(cfg.spec.dim)
            build_moment_matrix(cfg.spec.basis, cfg.spec.vset, u)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.child_rss_kb = 0
        self.first_bytes: dict[str, bytes] = {}
        self.digests: dict[str, str] = {}

    def _spawn(self, cmd: str, cfg: str) -> tuple[float, int, pathlib.Path]:
        out = self.out_dir / "cli" / f"{cmd}-{cfg}"
        out.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, "-m", "rvlbm.cli", cmd, "--config", str(config_path(self.root, cfg)),
                "--output", str(out)]
        with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return elapsed, proc.returncode, out

    def op(self, tracer) -> OpResult:
        runs = []
        t0 = time.perf_counter()
        for cmd, cfg in CLI_COMMANDS:
            with tracer.span(f"cli.{cmd}.{cfg}"):
                runs.append(self._spawn(cmd, cfg))
        res = OpResult(time.perf_counter() - t0, 1.0,
                       {f"{cmd}.{cfg}": elapsed for (cmd, cfg), (elapsed, _, _) in zip(CLI_COMMANDS, runs)})
        for (cmd, cfg), (elapsed, code, out) in zip(CLI_COMMANDS, runs):
            key = f"{cmd}.{cfg}"
            if code != 0:
                res.count(False, f"{key}: exit code {code}")
            elif cmd == "verify":
                res.count(*self._check_verify(cfg, out))
            else:
                res.count(*self._check_simulate(out))
        return res

    def _check_verify(self, cfg: str, out: pathlib.Path) -> tuple[bool, str]:
        data = (out / "verify.json").read_bytes()
        self.first_bytes.setdefault(cfg, data)
        self.digests[cfg] = hashlib.sha256(self.first_bytes[cfg]).hexdigest()
        if data != self.first_bytes[cfg]:
            return False, f"verify.{cfg}: verify.json differs between rounds"
        if json.loads(data)["overall_pass"] is not True:
            return False, f"verify.{cfg}: overall_pass is not true"
        return True, ""

    def _check_simulate(self, out: pathlib.Path) -> tuple[bool, str]:
        payload = json.loads((out / "simulate.json").read_text("utf-8"))
        drift = payload["mass_relative_drift"]
        ok = drift <= MASS_DRIFT_BOUND and (out / "snapshot.csv").exists()
        return ok, f"simulate.d1q3: mass drift {drift:.3e} or snapshot missing"

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024.0

    def summary(self, ops: list[OpResult]) -> dict:
        return {
            "cli_round_s": self.time_per_unit(ops),
            "verify_json_sha256": dict(sorted(self.digests.items())),
        }


class OracleWorkload(Workload):
    """Derivation and Fourier-oracle comparison over the acceptance family."""

    name = "oracle_family"
    unit = "symbol series"

    def setup(self) -> None:
        super().setup()
        self.family = oracle_family(self.cfgs, self.seed, self.tiny)
        self.k_samples = {d: default_k_samples(d) for d in {spec.dim for _, spec in self.family}}
        self.worst_rel = [0.0, 0.0, 0.0]
        self.poor_fits = 0
        name, spec = self.family[0]
        derive_equivalent_equation(spec, 3)
        compare_with_prediction(spec, self.k_samples[spec.dim], relative=RELATIVE, floors=FLOORS)

    def op(self, tracer) -> OpResult:
        reports, parts = [], {}
        t0 = time.perf_counter()
        for name, spec in self.family:
            t_part = time.perf_counter()
            try:
                with tracer.span("equivalent.derive_equivalent_equation"):
                    derive_equivalent_equation(spec, 3)
                with tracer.span("dispersion.compare_with_prediction"):
                    rep = compare_with_prediction(spec, self.k_samples[spec.dim],
                                                  relative=RELATIVE, floors=FLOORS)
            except Exception:
                rep = traceback.format_exc(limit=2)
            parts[name] = time.perf_counter() - t_part
            reports.append((name, rep))
        elapsed = time.perf_counter() - t0
        symbols = sum(len(self.k_samples[spec.dim]) for _, spec in self.family)
        res = OpResult(elapsed, float(symbols), parts)
        for name, rep in reports:
            if isinstance(rep, str):
                res.count(False, f"{name}: raised {rep}")
                continue
            for rec in rep.records:
                self.poor_fits += bool(rec["poor_fit"])
                for l, rel in enumerate(rec["rel_err"]):
                    scale = abs(complex(*rec["mu"][l]))
                    if rel is not None and RELATIVE[l] * scale >= FLOORS[l]:
                        self.worst_rel[l] = max(self.worst_rel[l], rel)
            res.count(rep.passed, f"{name}: ComparisonReport.passed is false")
        return res

    def summary(self, ops: list[OpResult]) -> dict:
        return {
            "symbols_per_s": 1.0 / self.time_per_unit(ops),
            "worst_rel_err_by_order": list(self.worst_rel),
            "poor_fits": self.poor_fits,
            "family": [name for name, _ in self.family],
        }


@dataclass
class Member:
    """One simulated scheme on one grid, advanced block by block."""

    name: str
    spec: SchemeSpec
    state: object
    steps: int
    mass0: float
    fourier: tuple | None = None  # (G, w, wave, offset) for the Fourier-mode check
    done: int = 0
    drift_max: float = 0.0

    @property
    def cells(self) -> int:
        return int(np.prod(self.state.grid_sizes))

    @property
    def pops_per_step(self) -> int:
        return self.spec.q * self.cells

    def min_bytes_per_step(self) -> int:
        """Computed lower bound: collide and stream each read and write f once;
        the field path also reads its per-cell M, M^-1 and M E."""
        q, itemsize = self.spec.q, self.state.f.itemsize
        total = 4 * q * self.cells * itemsize
        if not self.spec.u_tilde.is_constant:
            total += self.cells * (2 * q * q + q) * 8
        return total

    def check(self) -> tuple[bool, str]:
        f = self.state.f
        if not np.all(np.isfinite(f)):
            return False, f"{self.name}: non-finite state after {self.done} steps"
        drift = abs(float(np.sum(f.real)) - self.mass0) / abs(self.mass0)
        self.drift_max = max(self.drift_max, drift)
        if drift > MASS_DRIFT_BOUND:
            return False, f"{self.name}: mass drift {drift:.3e} after {self.done} steps"
        if self.fourier is not None:
            g, w, wave, offset = self.fourier
            expected = (np.linalg.matrix_power(g, self.done) @ w)[:, None] * wave
            err = float(np.max(np.abs(f - offset - expected)))
            if err > FOURIER_BOUND:
                return False, f"{self.name}: differs from G^N by {err:.3e} after {self.done} steps"
        return True, ""


def sim_members(cfgs: dict, seed: int, which: str, tiny: bool) -> list[Member]:
    """Members of sim_small or sim_large; the seed draws sine modes and amplitudes.

    sim_small: d1q2, d1q3, d1q3 as a Fourier mode and d1q3 with a sine shift,
    all on 64 cells, and d2q5 on 32^2.  sim_large: d2q5 on 1024^2 and d2q5
    with a sine shift on 512^2 (64^2 and 32^2 with `tiny`).  "ref" is d2q5 on
    256^2, drilled in the traced run only.
    """
    rng = np.random.default_rng(seed)

    def sine_member(name, spec, n, steps):
        grid = (n,) * spec.dim
        box = (1.0,) * spec.dim
        mode = tuple(int(m) for m in rng.integers(1, 5, spec.dim))
        rho = sine_density(grid, box, 1.0, float(rng.uniform(0.005, 0.05)), mode)
        state = equilibrium_state(spec, grid, box, rho)
        return Member(name, spec, state, steps, float(state.f.sum()))

    d1q2, d1q3, d2q5 = (cfgs[n].spec for n in REFERENCE_NAMES)
    if which == "ref":
        # the largest refinement grid of `verify`, measured for the ROADMAP baseline row
        return [sine_member("ref_d2q5_256", d2q5, 16 if tiny else 256, 2 if tiny else 40)]
    if which == "sim_large":
        n_big, n_sine, steps = (64, 32, 1) if tiny else (1024, 512, 2)
        d2q5_sine = replace(d2q5, u_tilde=VelocityShift.sine((SINE_SHIFT, SINE_SHIFT)))
        return [
            sine_member("large_d2q5", d2q5, n_big, steps),
            sine_member("large_d2q5sine", d2q5_sine, n_sine, steps),
        ]
    steps = 5 if tiny else 500
    d1q3_sine = replace(d1q3, u_tilde=VelocityShift.sine((SINE_SHIFT,)))
    members = [
        sine_member("small_d1q2", d1q2, 64, steps),
        sine_member("small_d1q3", d1q3, 64, steps),
        sine_member("small_d1q3sine", d1q3_sine, 64, steps),
        sine_member("small_d2q5", d2q5, 32, 3 if tiny else 300),
    ]
    # The d1q3 scheme also runs as equilibrium plus one Fourier mode, so the
    # simulator is checked against amplification_matrix(...)^N every block.
    mode = int(rng.integers(1, 9))
    offset = equilibrium_state(d1q3, (64,), (1.0,)).f
    w = np.asarray(d1q3.equilibrium, dtype=complex)
    wave_state = fourier_mode_state(d1q3, (64,), (1.0,), w, (mode,))
    state = make_state(d1q3.vset, (64,), (1.0,), offset + wave_state.f)
    g = amplification_matrix(d1q3, np.array([2.0 * np.pi * mode]), state.dt).g
    wave = wave_state.f[0] / w[0]
    members.insert(2, Member("small_d1q3fourier", d1q3, state, steps, float(state.f.real.sum()),
                             (g, w, wave, offset)))
    return members


class SimWorkload(Workload):
    """Blocks of `run` over the members; one block is one operation."""

    unit = "10^6 population updates"

    def __init__(self, name: str, *args):
        super().__init__(*args)
        self.name = name

    def setup(self) -> None:
        super().setup()
        self.members = sim_members(self.cfgs, self.seed, self.name, self.tiny)
        field_ms = {}
        for m in self.members:
            t0 = time.perf_counter()
            collide(m.state, m.spec)
            cold = time.perf_counter() - t0
            if not m.spec.u_tilde.is_constant:
                t0 = time.perf_counter()
                collide(m.state, m.spec)
                field_ms[m.name] = (cold - (time.perf_counter() - t0)) * 1e3
        self.phases["field_setup_ms"] = field_ms

    def op(self, tracer) -> OpResult:
        outcomes, parts = [], {}
        t0 = time.perf_counter()
        for m in self.members:
            t_part = time.perf_counter()
            try:
                with tracer.span("scheme.run"):
                    m.state = run(m.state, m.spec, m.steps)
                m.done += m.steps
                outcomes.append(None)
            except Exception:
                outcomes.append(traceback.format_exc(limit=2))
            parts[m.name] = time.perf_counter() - t_part
        mpop = sum(m.pops_per_step * m.steps for m in self.members) / 1e6
        res = OpResult(time.perf_counter() - t0, mpop, parts)
        for m, err in zip(self.members, outcomes):
            res.count(*((False, f"{m.name}: raised {err}") if err else m.check()))
        return res

    def summary(self, ops: list[OpResult]) -> dict:
        return {
            "mpops": 1.0 / self.time_per_unit(ops),
            "members": {m.name: {"steps": m.done, "mass_drift_max": m.drift_max} for m in self.members},
        }


WORKLOADS = ("cli", "oracle_family", "sim_small", "sim_large")


def make_workload(name: str, root: pathlib.Path, seed: int, tiny: bool, out_dir: pathlib.Path) -> Workload:
    if name == "cli":
        return CliWorkload(root, seed, tiny, out_dir)
    if name == "oracle_family":
        return OracleWorkload(root, seed, tiny, out_dir)
    if name in ("sim_small", "sim_large"):
        return SimWorkload(name, root, seed, tiny, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

