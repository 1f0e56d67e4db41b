"""The OpenBLAS kernel numpy runs, and the simulator's bitwise checks under it.

    python tests/blas_kernel.py        print the runtime core name, e.g. SkylakeX
    python tests/blas_kernel.py DIR    run the bitwise tests of test_scheme.py
                                       and test_golden.py, which pins the
                                       analyze, convergence and simulate
                                       reports of the shipped configs to
                                       golden_digests.json; simulate two
                                       sine-shift variants and write the
                                       verify and dispersion reports of the
                                       shipped configs into DIR; and print
                                       one JSON line: the core name, numpy's
                                       AVX-512 targets in use, the pytest
                                       exit code, the sha256 of each
                                       sine-shift report and snapshot, and
                                       of each verify and dispersion report

OPENBLAS_CORETYPE in the environment picks the kernel of a DYNAMIC_ARCH
OpenBLAS, and NPY_DISABLE_CPU_FEATURES switches off numpy's own SIMD targets;
test_blas_kernels.py runs the second form once per kernel, and once more with
numpy's AVX-512 targets switched off.
"""

from __future__ import annotations

import ctypes
import json
import pathlib
import sys

import numpy as np

import golden

TESTS = pathlib.Path(__file__).resolve().parent
# the tests of test_scheme.py that pin the simulator bit for bit to a plain np.matmul loop
BITWISE_TESTS = [
    "TestSizeRule",
    "TestSignedZeros",
    "TestComplexStates",
    "TestRun",
    "TestCollisionBlocks",
]
SHIPPED_CONFIGS = ("d1q2", "d1q3", "d2q5")
# shipped config -> the amplitude of the sine shift that replaces its shift;
# d1q3's is the sine.json that CI simulates from the installed package
SINE_SHIFTS = {"d1q3": [0.1], "d2q5": [0.1, 0.05]}


def openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS if it is a DYNAMIC_ARCH build that names its core, else None."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return None
    for path in sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))  # the library numpy has loaded, not a second copy
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            return lib
    return None


def core_name(lib: ctypes.CDLL) -> str:
    """The core type whose kernels the running OpenBLAS uses."""
    corename = lib.scipy_openblas_get_corename64_
    corename.restype = ctypes.c_char_p
    return corename().decode()


def avx512_targets() -> list[str]:
    """numpy's dispatched AVX-512 targets that run on this CPU, e.g. X86_V4 AVX512_ICL AVX512_SPR."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__
            if (t == "X86_V4" or t.startswith("AVX512")) and __cpu_features__.get(t)]


def _simulate(cfg, out: pathlib.Path, name: str) -> list[str]:
    """Simulate `cfg` into `out` as `name`: the sha256 of its report and of its snapshot."""
    from rvlbm.experiments import save_snapshot, simulate_payload, write_json

    payload, state = simulate_payload(cfg)
    report, snapshot = out / f"{name}.json", out / f"{name}.csv"
    write_json(payload, report)
    save_snapshot(state, cfg.spec, snapshot, out / f"{name}_meta.json", cfg.steps)
    return [golden.file_digests(report)["sha256"], golden.file_digests(snapshot)["sha256"]]


def check(out: pathlib.Path) -> dict:
    """Run the bitwise and golden-digest tests, simulate the sine-shift variants and
    verify the shipped configs into `out`."""
    import pytest
    from rvlbm import dispersion_payload, load_config, reference_config, verify_report
    from rvlbm.experiments import write_json

    lib = openblas()
    ids = [f"{TESTS / 'test_scheme.py'}::{test}" for test in BITWISE_TESTS]
    ids.append(str(TESTS / "test_golden.py"))
    exit_code = pytest.main(["-q", "-p", "no:cacheprovider", f"--basetemp={out / 'pytest'}", *ids])
    sine, oracle = {}, {}
    for name in SHIPPED_CONFIGS:
        cfg = load_config(reference_config(name))
        verify, dispersion = out / f"{name}_verify.json", out / f"{name}_dispersion.json"
        write_json(verify_report(cfg), verify)
        write_json(dispersion_payload(cfg).to_json_dict(), dispersion)
        oracle[name] = [golden.file_digests(verify)["sha256"], golden.file_digests(dispersion)["sha256"]]
    for name, amplitude in SINE_SHIFTS.items():
        doc = json.loads(reference_config(name))
        doc["scheme"]["u_tilde"] = {"mode": "sine", "value": amplitude}
        sine[name] = _simulate(load_config(json.dumps(doc)), out, f"{name}_sine")
    return {"core": lib and core_name(lib), "avx512": avx512_targets(), "pytest_exit": int(exit_code),
            "sine_sha256": sine, "oracle_sha256": oracle}


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(check(pathlib.Path(sys.argv[1]))))
    else:
        lib = openblas()
        print(core_name(lib) if lib else "unknown: numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
