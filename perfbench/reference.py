"""A fixed reference program that gauges how fast the host runs right now.

Usage: python3 perfbench/reference.py

run.py starts it in a fresh interpreter before and after every iteration of
a workload, and divides the iteration's times by the reference's time
relative to REFERENCE_NOMINAL_S. On a shared host the same code runs up to
a third slower for seconds or minutes at a time; the reference slows down
with it, so the ratio stays put while a change to the program still moves
it. The reference imports nothing from the program and never changes with
it. Its work mirrors the workloads: interpreter start and the numpy import,
small-batch MLP training steps dominated by per-call overhead, and
forward passes over large batches. It prints a checksum of its weights.
"""

from __future__ import annotations

import numpy as np

SIZES = (2, 64, 64, 32, 16, 6)
BATCH = 128
TRAIN_STEPS = 260
SCORE_ROWS = 20000
SCORE_PASSES = 5


def forward(weights, biases, x):
    acts = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = acts[-1] @ w + b
        acts.append(np.maximum(h, 0.0) if i < len(weights) - 1 else h)
    return acts


def main() -> float:
    rng = np.random.default_rng(12345)
    weights = [rng.standard_normal((a, b)) * np.sqrt(2.0 / a) for a, b in zip(SIZES, SIZES[1:])]
    biases = [np.zeros(b) for b in SIZES[1:]]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    x_all = 3.0 * rng.standard_normal((4096, SIZES[0]))
    y_all = (np.arctan2(x_all[:, 1], x_all[:, 0]) * 3.0 / np.pi % SIZES[-1]).astype(np.int64)

    for _ in range(TRAIN_STEPS):
        idx = rng.integers(0, len(x_all), BATCH)
        acts = forward(weights, biases, x_all[idx])
        z = acts[-1] - acts[-1].max(axis=1, keepdims=True)
        grad = np.exp(z)
        grad /= grad.sum(axis=1, keepdims=True)
        grad[np.arange(BATCH), y_all[idx]] -= 1.0
        grad /= BATCH
        for i in reversed(range(len(weights))):
            grad_w, grad_b = acts[i].T @ grad, grad.sum(axis=0)
            if i:
                grad = (grad @ weights[i].T) * (acts[i] > 0)
            vel_w[i] = 0.9 * vel_w[i] + grad_w
            vel_b[i] = 0.9 * vel_b[i] + grad_b
            weights[i] -= 0.05 * vel_w[i]
            biases[i] -= 0.05 * vel_b[i]

    score = 0.0
    for _ in range(SCORE_PASSES):
        logits = forward(weights, biases, 3.0 * rng.standard_normal((SCORE_ROWS, SIZES[0])))[-1]
        score += float(logits.max(axis=1).sum())
    return score + float(sum(np.abs(w).sum() for w in weights))


if __name__ == "__main__":
    print(f"{main():.6f}")
