"""Host-speed diagnostic: a fixed reference kernel that uses no momint code.

A shared host can change speed over minutes, which moves every wall time the
benchmark reports. The benchmark times this kernel at each set-up sample and
writes its median to the result file, so a reader comparing runs taken at
different times can see whether the host changed under them. It corrects no
metric: how momint's cycles respond to host load depends on the code under
test, so no fixed factor could take them to a common speed. Compare two
commits by running them in alternating pairs instead.

The kernel does the two kinds of work momint's pure-Python paths do: one
cyclic-Jacobi sweep of column rotations on a fixed 16x16 matrix, with small
numpy operations, and a product of two fixed polynomials held as dicts of
exponent tuples.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_N = 16
_ROUNDS = 6
_MATRIX = np.fromfunction(lambda i, j: 1.0 / (1.0 + i + j) + (i == j), (_N, _N))
_POLY_A = {(i, j, k): 1.0 + i - j for i in range(7) for j in range(7) for k in range(7)
           if i + j + k <= 6}
_POLY_B = {(i, j, k): 0.5 - k for i in range(3) for j in range(3) for k in range(3)
           if i + j + k <= 2}


def _kernel():
    a = _MATRIX.copy()
    for p in range(_N - 1):
        for q in range(p + 1, _N):
            if a[p, q] == 0.0:
                continue
            tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
            t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            col_p, col_q = a[:, p].copy(), a[:, q].copy()
            a[:, p] = a[p, :] = c * col_p - s * col_q
            a[:, q] = a[q, :] = s * col_p + c * col_q
    product: dict = {}
    for ka, va in _POLY_A.items():
        for kb, vb in _POLY_B.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            product[key] = product.get(key, 0.0) + va * vb
    return a, product


def kernel_seconds() -> float:
    start = perf_counter()
    for _ in range(_ROUNDS):
        _kernel()
    return perf_counter() - start
