"""Spectral application of a constant-coefficient operator, for the tests.

    out = spectral_apply(op, field, box_lengths)

applies a term tuple such as `EquivalentEquation.ops[k]` or
`XiPrediction.xi[k][j]` to a periodic field through the FFT, on the same
frequency grid the refinement study uses.  Criterion 10 applies A_2(u) - A_2(0)
with it; the derivation tests check its symbol on single modes.
"""

from __future__ import annotations

import numpy as np

from rvlbm.errors import DimensionMismatch
from rvlbm.experiments import _wavenumbers
from rvlbm.lattice import evaluate_terms


def spectral_apply(op, field: np.ndarray, box_lengths) -> np.ndarray:
    """Apply a constant-coefficient operator on a periodic grid via the FFT.

    op is a term tuple of (multi_index, coefficient) pairs, as the operators of
    EquivalentEquation.ops and XiPrediction.xi are; the multiplier is its symbol on
    the open frequency grid: i f_a along axis a.  The field, the box lengths and
    every multi-index must have one dimension, or DimensionMismatch is raised.
    """
    field = np.asarray(field)
    lengths = {len(exps) for exps, _ in op}
    if lengths | {len(box_lengths)} != {field.ndim}:
        raise DimensionMismatch(f"field has {field.ndim} axes, but {len(box_lengths)} box "
                                f"lengths and multi-indices of length {sorted(lengths)}")
    symbol = evaluate_terms(op, _wavenumbers(field.shape, box_lengths))
    out = np.fft.ifftn(symbol * np.fft.fftn(field))
    return out.real if np.isrealobj(field) else out
