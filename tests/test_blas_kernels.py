"""The simulator is bit for bit on every OpenBLAS kernel this machine can run.

Each kernel runs in its own child process with OPENBLAS_CORETYPE set, since
OpenBLAS picks its kernel once, when numpy loads it.  The child runs the
bitwise tests of test_scheme.py, which compare against a plain np.matmul loop
on the same kernel, and simulates and studies the shipped configs.  One more
child runs the runtime kernel with numpy's AVX-512 loops switched off by
NPY_DISABLE_CPU_FEATURES, which numpy also reads once, at import; its
simulate and convergence reports must equal those of the default dispatch.
verify reports are not compared: the oracle rounds differently on each
kernel.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import blas_kernel
import rvlbm

# the CPU flag each core type's kernels need; Prescott is left out because
# test_theta_zero_vanishes fails under it, at every commit (ROADMAP item 9)
KERNEL_FLAGS = {"Haswell": "avx2", "Zen": "avx2", "SkylakeX": "avx512f"}


def _cpu_flags() -> set[str]:
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def _child(env: dict, out: pathlib.Path) -> dict:
    """The report of blas_kernel.py run in a child process with `env`."""
    child = subprocess.run([sys.executable, blas_kernel.__file__, str(out)], env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    return dict(json.loads(child.stdout.splitlines()[-1]), output=child.stdout)


def _child_env() -> dict:
    """This process's environment, with the rvlbm under test first on the child's path."""
    path = [str(pathlib.Path(rvlbm.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.fixture(scope="module")
def kernel_reports(tmp_path_factory):
    """kernel -> its child's report, or the reason this machine cannot run that kernel."""
    lib = blas_kernel.openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS that names its core")
    flags = _cpu_flags()
    env = _child_env()
    reports = {}
    for kernel, flag in KERNEL_FLAGS.items():
        if flag not in flags:
            reports[kernel] = f"the CPU has no {flag}, which {kernel} kernels need"
        elif not hasattr(lib, f"gotoblas_{kernel.upper()}"):
            # OPENBLAS_CORETYPE would silently run another core type's kernels
            reports[kernel] = f"this OpenBLAS build has no {kernel} kernels"
        else:
            reports[kernel] = _child(dict(env, OPENBLAS_CORETYPE=kernel), tmp_path_factory.mktemp(kernel))
    return reports


class TestBlasKernels:
    @pytest.mark.parametrize("kernel", sorted(KERNEL_FLAGS))
    def test_bitwise_tests_pass(self, kernel, kernel_reports):
        report = kernel_reports[kernel]
        if isinstance(report, str):
            pytest.skip(report)
        assert report["core"] == kernel
        assert report["pytest_exit"] == 0, report["output"]

    def test_simulate_reports_are_equal_across_kernels(self, kernel_reports):
        digests = {k: r["sha256"] for k, r in kernel_reports.items() if isinstance(r, dict)}
        if len(digests) < 2:
            pytest.skip(f"fewer than two kernels to compare: {sorted(digests)}")
        first = next(iter(digests.values()))
        assert all(d == first for d in digests.values()), digests

    def test_convergence_reports_are_equal_across_kernels(self, kernel_reports):
        # the residuals come from the pinned simulator, gemm moments and the FFT, the slopes from libm
        digests = {k: r["convergence_sha256"] for k, r in kernel_reports.items() if isinstance(r, dict)}
        if len(digests) < 2:
            pytest.skip(f"fewer than two kernels to compare: {sorted(digests)}")
        first = next(iter(digests.values()))
        assert all(d == first for d in digests.values()), digests


class TestNumpyDispatch:
    def test_reports_are_equal_without_avx512_loops(self, kernel_reports, tmp_path):
        # numpy's AVX-512 atan2, exp and log differ from libm's in the last bit
        # of some values; on an AVX2-only machine numpy runs the others
        targets = blas_kernel.avx512_targets()
        if not targets:
            pytest.skip("numpy runs no AVX-512 loops on this CPU")
        core = blas_kernel.core_name(blas_kernel.openblas())
        default = kernel_reports.get(core)
        if not isinstance(default, dict):
            pytest.skip(f"no child of the runtime kernel {core} to compare with")
        env = dict(_child_env(), OPENBLAS_CORETYPE=core, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        report = _child(env, tmp_path)
        assert report["core"] == core and report["avx512"] == []
        assert report["pytest_exit"] == 0, report["output"]
        assert default["avx512"] == targets
        assert report["sha256"] == default["sha256"]
        assert report["convergence_sha256"] == default["convergence_sha256"]
