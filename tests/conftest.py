"""Shared oracle helpers: numerical gradient checking, norm-based errors,
access to the gradients a DenseLayer or SplitMlp has written (each backward
overwrites its layer's gradients), a model with fixed logits, an IDX pair
writer, the plain log-softmax and cross-entropy compositions that the
training step's losses must match byte for byte, the ROC with `np.unique`
thresholds, and the BLAS kernel and thread count a golden test's bytes
depend on, which also close every test log."""

from __future__ import annotations

import ctypes
import glob
import math
import os
import struct

import numpy as np

from openset.gradcore import DenseLayer
from openset.network import SplitMlp
from openset.placeholders import masked_logits

# drawn often into the logit matrices of the byte-for-byte oracle tests
SPECIAL_VALUES = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -1.0, 5e-324)
# the OpenBLAS kernel out/blobs6/ and the pinned digests were frozen on; other
# kernels round the gemms differently
GOLDEN_BLAS_KERNEL = "SkylakeX"


def _openblas_call(symbol: str, restype):
    """Call `symbol` of numpy's bundled OpenBLAS, found in numpy.libs as
    perfbench/child.py finds it; None without it."""
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], restype
            return fn()
    return None


def blas_kernel() -> str:
    """The gemm kernel numpy's bundled OpenBLAS loaded: the one it picked for
    this CPU, or the one OPENBLAS_CORETYPE names; "unknown" without it."""
    corename = _openblas_call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return "unknown" if corename is None else corename.decode()


def blas_threads() -> str:
    """The number of threads numpy's bundled OpenBLAS runs a gemm on;
    "unknown" without it."""
    threads = _openblas_call("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return "unknown" if threads is None else str(threads)


def pytest_terminal_summary(terminalreporter) -> None:
    """Close a test log with what the golden bytes and the chunked-scoring
    tests depend on; pytest prints the summary under -q too, where it leaves
    out the session header."""
    terminalreporter.write_line(f"OpenBLAS kernel {blas_kernel()}, {blas_threads()} thread(s)")


def kernel_note() -> str:
    """For the failure message of a test whose bytes depend on the gemm kernel."""
    return (f"(BLAS kernel {blas_kernel()} on {blas_threads()} thread(s); "
            f"the golden bytes were frozen on {GOLDEN_BLAS_KERNEL})")


def rel_error(a, b) -> float:
    """Norm-based relative error between two gradient estimates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(a) + np.linalg.norm(b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def _layers(layer_or_model) -> list:
    return layer_or_model.layers() if hasattr(layer_or_model, "layers") else [layer_or_model]


def zero_grads(layer_or_model) -> None:
    """Zero the parameter gradients of a DenseLayer or of every layer of a SplitMlp."""
    for layer in _layers(layer_or_model):
        layer.grad_weights[:] = 0.0
        layer.grad_biases[:] = 0.0


def gradients(layer_or_model) -> list[np.ndarray]:
    """The gradient arrays of a DenseLayer or SplitMlp, in `parameters()` order."""
    return [g for layer in _layers(layer_or_model) for g in (layer.grad_weights, layer.grad_biases)]


def finite_difference_gradients(loss_fn, params: list[np.ndarray], h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient estimates, perturbing each scalar in place.

    `loss_fn` takes no arguments and must read the current contents of
    `params` (typically a closure over a model). Parameters are restored
    exactly after each probe.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            f_plus = loss_fn()
            p[idx] = orig - h
            f_minus = loss_fn()
            p[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def fixed_logit_model(closed_rows, dummy_rows):
    """A model whose heads reproduce the given logits for one-hot inputs.

    Input row i (one-hot) selects row i of closed_rows / dummy_rows. Both
    embeddings are the identity, so logits equal the weight rows.
    """
    closed = np.asarray(closed_rows, dtype=np.float64)
    dummy = np.asarray(dummy_rows, dtype=np.float64)
    d = closed.shape[0]
    return SplitMlp(
        body=[DenseLayer(np.eye(d), np.zeros(d), "linear")],
        split_index=0,
        closed_head=DenseLayer(closed, np.zeros(closed.shape[1]), "linear"),
        dummy_head=DenseLayer(dummy, np.zeros(dummy.shape[1]), "linear"),
        input_dim=d,
    )


def write_idx_pair(tmp_path, pixels, labels) -> tuple:
    """Write N x D uint8 `pixels` (as 1 x D images) and their N uint8
    labels as an IDX pair under `tmp_path`; returns the two paths."""
    images, label_file = tmp_path / "img.idx", tmp_path / "lab.idx"
    images.write_bytes(struct.pack(">4I", 0x00000803, len(pixels), 1, pixels.shape[1]) + pixels.tobytes())
    label_file.write_bytes(struct.pack(">2I", 0x00000801, len(labels)) + bytes(labels))
    return images, label_file


def known_rate(gaps, bias: float) -> float:
    """Fraction of instances with gap at or above the bias: the known rate
    `calibration.select_bias` counts for every candidate at once, as
    `AugmentedLogits.predictions` keeps a row known on a tie."""
    gaps = np.asarray(gaps, dtype=np.float64)
    return float((gaps >= bias).mean())


def softmax_rows(logits) -> np.ndarray:
    """Row-wise softmax, stabilised by per-row max subtraction: the (B, K)
    probability matrix that `AugmentedLogits.max_softmax` avoids."""
    z = np.asarray(logits, dtype=np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def log_softmax_rows_oracle(logits) -> np.ndarray:
    """Log-softmax with the row max taken along the class axis."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_oracle(logits, targets) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its logit gradient, (softmax - onehot) / n,
    through `log_softmax_rows_oracle` and `mean`."""
    z = np.asarray(logits, dtype=np.float64)
    n = z.shape[0]
    logp = log_softmax_rows_oracle(z)
    loss = float(-logp[np.arange(n), targets].mean())
    grad = np.exp(logp)
    grad[np.arange(n), targets] -= 1.0
    grad /= n
    return loss, grad


def classifier_placeholder_oracle(combined, labels, beta: float) -> tuple[float, np.ndarray]:
    """The classifier-placeholder loss as two cross-entropies: the combined
    logits against the labels, plus beta times the masked logits against the
    dummy class K, whose sentinel entries get no gradient."""
    combined = np.asarray(combined, dtype=np.float64)
    labels = np.asarray(labels)
    loss, d_combined = cross_entropy_oracle(combined, labels)
    if beta != 0.0:
        dummy = np.full(labels.shape, combined.shape[1] - 1)
        mask_loss, d_masked = cross_entropy_oracle(masked_logits(combined, labels), dummy)
        d_masked[np.arange(labels.size), labels] = 0.0
        loss += beta * mask_loss
        d_combined = d_combined + beta * d_masked
    return loss, d_combined


def data_placeholder_oracle(combined) -> tuple[float, np.ndarray]:
    """The data-placeholder loss as one cross-entropy against the dummy class K."""
    combined = np.asarray(combined, dtype=np.float64)
    return cross_entropy_oracle(combined, np.full(combined.shape[0], combined.shape[1] - 1))


def softmax_row_oracle(row):
    """Scalar softmax oracle for a single row, no vectorisation."""
    import math

    m = max(row)
    exps = [math.exp(v - m) for v in row]
    z = sum(exps)
    return [e / z for e in exps]


def cross_entropy_row_oracle(row, target) -> float:
    """Scalar -log softmax(row)[target] via logsumexp."""
    import math

    m = max(row)
    lse = m + math.log(sum(math.exp(v - m) for v in row))
    return lse - row[target]


def roc_points_unique_oracle(known_scores, unknown_scores) -> np.ndarray:
    """`metrics.roc_points` with its thresholds taken by `np.unique`, which
    imports numpy.ma on its first call."""
    thresholds = np.unique(np.concatenate([known_scores, unknown_scores]))[::-1]
    points = np.zeros((thresholds.size + 1, 2))
    for column, scores in enumerate((unknown_scores, known_scores)):
        passed = scores.size - np.searchsorted(np.sort(scores), thresholds, "left")
        np.divide(passed, scores.size, out=points[1:, column])
    return points


def json_paths(doc, prefix=()):
    """The key path of every value nested in a parsed JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*prefix, key)
        yield from json_paths(value, (*prefix, key))
