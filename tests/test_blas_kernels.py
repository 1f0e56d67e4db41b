"""The simulator is bit for bit on every OpenBLAS kernel this machine can run.

Each kernel runs in its own child process with OPENBLAS_CORETYPE set, since
OpenBLAS picks its kernel once, when numpy loads it.  The child runs the
bitwise tests of test_scheme.py, which compare against a plain np.matmul loop
on the same kernel, and simulates and studies the shipped configs.  One more
child runs the runtime kernel with numpy's AVX-512 loops switched off by
NPY_DISABLE_CPU_FEATURES, which numpy also reads once, at import; its
simulate, sine-shift simulate, convergence, verify and dispersion reports
must equal those of the default dispatch.  verify and dispersion reports are
not compared across kernels: the oracle's fit rounds differently on each
kernel.  Neither are the sine-shift reports: d2q5's M(x)^-1 stack, from the
batched np.linalg.inv, differs in its last bits between the SkylakeX and
Haswell kernels, and so does its run.  All the children run at the same time.
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
# test_theta_zero_vanishes fails under it, at every commit (ROADMAP records
# the failure under "Tier-1 at this re-anchor")
KERNEL_FLAGS = {"Haswell": "avx2", "Zen": "avx2", "SkylakeX": "avx512f"}


def _cpu_flags() -> set[str]:
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def _start(env: dict, out: pathlib.Path) -> subprocess.Popen:
    """blas_kernel.py started in a child process with `env`, writing into `out`."""
    return subprocess.Popen([sys.executable, blas_kernel.__file__, str(out)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _report(child: subprocess.Popen) -> dict:
    """The report of a child that _start started, once it exits."""
    try:
        stdout, stderr = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        _stop(child)
        raise
    assert child.returncode == 0, stdout + stderr
    return dict(json.loads(stdout.splitlines()[-1]), output=stdout)


def _stop(child: subprocess.Popen) -> None:
    """Kill a child that is still running."""
    if child.poll() is None:
        child.kill()
        child.communicate()


def _child_env() -> dict:
    """This process's environment, with the rvlbm under test first on the child's path."""
    path = [str(pathlib.Path(rvlbm.__file__).parents[1])] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def _unrunnable(lib) -> dict:
    """kernel -> the reason this machine cannot run that kernel, or None if it can."""
    flags = _cpu_flags()
    reasons = {}
    for kernel, flag in KERNEL_FLAGS.items():
        if flag not in flags:
            reasons[kernel] = f"the CPU has no {flag}, which {kernel} kernels need"
        elif not hasattr(lib, f"gotoblas_{kernel.upper()}"):
            # OPENBLAS_CORETYPE would silently run another core type's kernels
            reasons[kernel] = f"this OpenBLAS build has no {kernel} kernels"
        else:
            reasons[kernel] = None
    return reasons


@pytest.fixture(scope="module")
def openblas():
    """numpy's OpenBLAS, if the children can pick its kernel."""
    lib = blas_kernel.openblas()
    if lib is None:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS that names its core")
    return lib


@pytest.fixture(scope="module")
def dispatch_child(openblas, tmp_path_factory):
    """The runtime kernel's child with numpy's AVX-512 loops switched off, started
    and not yet collected, or the reason it cannot run.  kernel_reports starts
    the kernel children while it runs."""
    targets = blas_kernel.avx512_targets()
    core = blas_kernel.core_name(openblas)
    if not targets:
        yield "numpy runs no AVX-512 loops on this CPU"
    elif core not in KERNEL_FLAGS or _unrunnable(openblas)[core]:
        yield f"no child of the runtime kernel {core} to compare with"
    else:
        env = dict(_child_env(), OPENBLAS_CORETYPE=core, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
        child = _start(env, tmp_path_factory.mktemp("dispatch"))
        yield child
        _stop(child)


@pytest.fixture(scope="module")
def kernel_reports(openblas, dispatch_child, tmp_path_factory):
    """kernel -> its child's report, or the reason this machine cannot run that kernel.

    The kernel children run at the same time, beside the numpy-dispatch child."""
    env = _child_env()
    reasons = _unrunnable(openblas)
    children = {kernel: _start(dict(env, OPENBLAS_CORETYPE=kernel), tmp_path_factory.mktemp(kernel))
                for kernel, reason in reasons.items() if reason is None}
    try:
        return {kernel: _report(children[kernel]) if kernel in children else reason
                for kernel, reason in reasons.items()}
    finally:
        for child in children.values():
            _stop(child)


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
    def test_reports_are_equal_without_avx512_loops(self, kernel_reports, dispatch_child):
        # numpy's AVX-512 atan2, exp, log and power differ from libm's in the last
        # bit of some values; on an AVX2-only machine numpy runs the others
        if isinstance(dispatch_child, str):
            pytest.skip(dispatch_child)
        targets = blas_kernel.avx512_targets()
        core = blas_kernel.core_name(blas_kernel.openblas())
        default = kernel_reports[core]
        report = _report(dispatch_child)
        assert report["core"] == core and report["avx512"] == []
        assert report["pytest_exit"] == 0, report["output"]
        assert default["avx512"] == targets
        assert report["sha256"] == default["sha256"]
        assert report["sine_sha256"] == default["sine_sha256"]
        assert report["convergence_sha256"] == default["convergence_sha256"]
        assert report["oracle_sha256"] == default["oracle_sha256"]
