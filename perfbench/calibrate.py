"""Host-speed calibration: a fixed reference kernel timed next to every op.

The benchmark runs on shared virtual machines whose CPU throughput drifts by
up to about 1.7x over minutes, for every process alike (the same op, pinned to
one vCPU, takes 0.5 s or 0.9 s depending on the minute).  Wall times alone then
spread more between runs than any change worth measuring.  The kernel below
does the kinds of work realmask's ops spend their time on: RρR sweeps over
2x2 density matrices in a 256-wide batch and one at a time, and many small
Philox generators with Poisson draws.  It uses numpy only, never realmask,
so a change to the program leaves it alone.

`normalise(seconds, ref)` rescales a time measured while the kernel took
`ref` seconds to what it would read on a host where the kernel takes
REF_SECONDS: the typical kernel time on a 2-vCPU Intel Xeon VM.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_SECONDS = 0.08


def ref_kernel() -> float:
    rng = np.random.Generator(np.random.Philox(key=12345))
    proj = rng.normal(size=(6, 2, 2)) + 1j * rng.normal(size=(6, 2, 2))
    proj = proj @ proj.conj().transpose(0, 2, 1)
    acc = 0.0
    for n, sweeps in ((256, 150), (1, 600)):
        rho = np.tile(np.eye(2, dtype=complex) / 2, (n, 1, 1))
        freq = rng.random((n, 6))
        for _ in range(sweeps):
            p = np.einsum("bij,kji->bk", rho, proj).real
            r = np.einsum("bk,kij->bij", freq / np.maximum(p, 1e-12), proj)
            rho = r @ rho @ r.conj().transpose(0, 2, 1)
            rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
            acc += float(p[0, 0])
    for i in range(600):
        g = np.random.Generator(np.random.Philox(key=i))
        acc += float(g.poisson(50.0, size=6).sum())
    return acc


def ref_seconds(repeats: int = 1) -> float:
    """Median wall time of `repeats` runs of the reference kernel."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        ref_kernel()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def normalise(seconds: float, ref: float) -> float:
    return seconds * REF_SECONDS / ref
