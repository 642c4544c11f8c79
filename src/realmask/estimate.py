"""Estimators for the masking experiments.

Three pipelines:

* verification-based fidelity: random local projective tests whose average
  pass rate maps linearly onto the infidelity, eps = (3/2)(1 - p_succ), with
  an Agresti-Coull confidence interval transported through the same linear
  map; the tests' average operator is 1/3 + (2/3)|target><target| for every
  target, so `qsv_run` draws each state's pass count as one binomial from
  its fidelity F with the target, at p_succ = (1 + 2F)/3, all states in one
  call of `measure.generator(seed)`, and at most `measure.MAX_SHOTS` tests
  (`measure`'s count rule),
  and `qsv_interval` gives the estimate and interval of a pass count;
* single-qubit tomography: the squared Bloch length Q = r.r of both qubits
  of a pair from its (..., 9, 4) pair tables, each r_k the linear inversion
  `measure.correlators` of the axis table that sums the marginals of the
  three tables measuring axis k, estimated without bias and with its exact
  binomial variance, and the two qubits' covariance, by
  `squared_bloch_length`, which fig3's purities (1 + Q)/2 and fig5's
  concurrences sqrt(1 - Q) read, at shots None (analytic mode) in the limit
  of infinitely many shots.  No
  pipeline calls `mle_qubit_batch` (the full state fit, each boundary fit a
  bisection of its own), `purity_from_counts` (the MLE purity, (1 + r.r)/2
  of the linear inversion, 1 outside the ball) or the Poisson-resampling
  bootstrap `bootstrap_std`; they stay because `perfbench/tracer.py` wraps
  them by name (ROADMAP items 1 and 12);
* correlation decoding: the nine Pauli-pair correlators of the masked state
  (rows and columns in `measure.AXES` order) determine the real input density
  matrix through one constant linear map, derived from the masker by
  inverting T_jk = tr(M rho M† sigma_j⊗sigma_k) over real symmetric
  unit-trace rho; the reconstruction is real symmetric by construction and
  is projected onto the nearest density matrix when shot noise pushes it
  slightly outside the cone, in real arithmetic (one real `eigh` per stack,
  each item decoded exactly as it would be alone).  fig4 reports the raw
  decode's fidelity, linear in T and so unbiased, with a closed-form error
  (`decode_fidelity` on the probe's `decode_weights`, read from counts and
  shots as `squared_bloch_length` reads them); the projection biases it low
  (Smolin et al., PRL 108, 070502, 2012).

The four estimators that take counts (`squared_bloch_length`,
`decode_fidelity`, `mle_qubit_batch` and `purity_from_counts`) check them
only through `measure._count_tables`, so each fault of a count table is
refused in the same words by all four.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .masker import masker_matrix
from .measure import (PAIR_PAULIS, _checked, _count, _count_tables, _is_integer, correlators, generator,
                      poisson_resample)
from .qcore import EPS_EXACT, EPS_NUMERIC, EPS_PROB, _as_field_array, _dagger, _row_prefix, fidelity_with_pure


# ---------------------------------------------------------------------------
# Verification-based fidelity estimation.

def qsv_run(fidelities, n_tests: int, seed: int) -> list[int]:
    """Run `n_tests` verification tests on each state of a stack, given by
    its (n,) fidelities F = <t|rho|t> with its target t; one pass count per
    row, a Python int, all rows drawn in one call of `measure.generator(seed)`.

    A round picks one of the three local tests XX, -YY and ZZ, rotated onto
    t, at random, so its average operator is 1/3 + (2/3)|t><t| and it passes
    with probability p = (1 + 2F)/3.  The pass count S is therefore drawn as
    one Binomial(n_tests, p), which `qsv_interval` reads.  Each F must be
    finite and in [0, 1] within EPS_NUMERIC, where it is clipped (a pure
    state's fidelity may read 1 + 2e-16); an error names the first faulty
    row.
    `n_tests` is an integer in [1, `measure.MAX_SHOTS`].
    """
    n_tests = _checked("n_tests", _count, n_tests)
    fid = np.asarray(fidelities, dtype=float)
    if fid.ndim != 1:
        raise ValueError(f"fidelities must be an (n,) array, got shape {fid.shape}")
    if (bad := np.flatnonzero(~(np.abs(fid - 0.5) <= 0.5 + EPS_NUMERIC))).size:
        raise ValueError(f"{_row_prefix(fid.shape, bad[0])}fidelity must be a finite number in [0, 1], "
                         f"got {float(fid[bad[0]])!r}")
    return generator(seed).binomial(n_tests, (1.0 + 2.0 * np.clip(fid, 0.0, 1.0)) / 3.0).tolist()


def qsv_interval(passed: int, total: int) -> tuple[float, float, float, float]:
    """(eps_hat, error, eps_low, eps_high) of a verification run that passed
    `passed` of `total` tests: the infidelity estimate eps_hat = 1.5 (1 -
    S/N), the `agresti_coull` interval widened to hold it, and the
    symmetrized half-width max(eps_hat - low, high - eps_hat)."""
    low, high = agresti_coull(passed, total)
    eps_hat = 1.5 * (1.0 - passed / total)
    low, high = min(low, eps_hat), max(high, eps_hat)
    return eps_hat, max(eps_hat - low, high - eps_hat), low, high


# Every verification interval has 95% confidence: kappa is the 97.5% normal
# quantile, as `statistics.NormalDist().inv_cdf(0.975)` gives it.
_KAPPA = 1.9599639845400536


def agresti_coull(passed: int, total: int) -> tuple[float, float]:
    """Add-pseudo-counts 95% interval on the infidelity eps = (3/2)(1 - p).

    With kappa = `_KAPPA`, S~ = S + kappa^2/2,
    N~ = N + kappa^2, p~ = S~/N~:
    endpoints (3/2)[1 - p~ -/+ kappa sqrt(p~ q~ / N~)], clipped to [0, 3/2].
    `passed` and `total` are integers, 0 <= passed <= total and total >= 1.
    """
    if not (_is_integer(passed) and _is_integer(total) and 0 <= passed <= total and total >= 1):
        raise ValueError(f"need integers 0 <= passed <= total with total >= 1, got {passed!r}/{total!r}")
    n_t = total + _KAPPA**2
    p_t = (passed + _KAPPA**2 / 2.0) / n_t
    half = _KAPPA * math.sqrt(p_t * (1.0 - p_t) / n_t)
    lo = 1.5 * (1.0 - p_t - half)
    hi = 1.5 * (1.0 - p_t + half)
    return max(0.0, lo), min(1.5, hi)


# ---------------------------------------------------------------------------
# Single-qubit tomography.

def _linear_inversion(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n+ - n-)/n on each axis of (batch, 3, 2) counts (`measure.correlators`),
    0 on an axis without counts, and each row's squared length r.r, above 1
    outside the Bloch ball."""
    r = correlators(c)
    return r, r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2]


def _bloch_matrices(r: np.ndarray) -> np.ndarray:
    """(batch, 2, 2) matrices (1 + r . sigma)/2 of (batch, 3) Bloch vectors."""
    x, y, z = r.T
    return (np.stack([1.0 + z, x - 1j * y, x + 1j * y, 1.0 - z], axis=1) / 2).reshape(-1, 2, 2)


def _sphere_fit(n_plus: list[float], n_minus: list[float]) -> list[float]:
    """Bloch vector of the MLE of one item's X/Y/Z counts whose linear
    inversion leaves the ball, by bisecting lam to adjacent floats.

    |r_k| at lam is the root in [0, 1] of the cubic p(s) = (1 - s)(a - 2 lam
    s (1 + s)) - b (1 + s), a = max(n+, n-), b = min(n+, n-); it falls as
    lam grows, so monotone Newton climbs to it from below, starting at the
    radii of the bracket's upper end.  The bracket starts at [0, N/4] for N
    counts, and the result is the radii at its upper end, where |r| <= 1.
    """
    axes = [(max(a, b), min(a, b)) for a, b in zip(n_plus, n_minus)]

    def radii(lam: float, start: list[float]) -> list[float]:
        out = []
        for (a, b), s in zip(axes, start):
            while True:
                q = a - 2.0 * lam * s * (1.0 + s)
                p = (1.0 - s) * q - b * (1.0 + s)
                if p <= 0.0:
                    break
                new = min(s - p / (-q - 2.0 * lam * (1.0 - s) * (1.0 + 2.0 * s) - b), 1.0)
                if new <= s:
                    break
                s = new
            out.append(s)
        return out

    lo, hi = 0.0, (sum(n_plus) + sum(n_minus)) / 4.0
    s_hi = radii(hi, [0.0, 0.0, 0.0])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        s = radii(mid, s_hi)
        if s[0] * s[0] + s[1] * s[1] + s[2] * s[2] > 1.0:
            lo = mid
        else:
            hi, s_hi = mid, s
    return [math.copysign(s, a - b) for s, a, b in zip(s_hi, n_plus, n_minus)]


def mle_qubit_batch(counts: np.ndarray) -> np.ndarray:
    """Exact maximum-likelihood qubit states for X/Y/Z counts of shape (batch, 3, 2).

    Outcome 0 is +1; returns (batch, 2, 2) density matrices.  A single (3,
    2) table is a batch of one, and the counts obey `measure._count_tables`
    at shots None.  The concave log-likelihood sum_k n+_k log(1 +
    r_k) + n-_k log(1 - r_k) of the Bloch vector r peaks at the linear
    inversion r_k = (n+_k - n-_k)/n_k, the MLE whenever it lies in the Bloch
    ball.  Otherwise the MLE is the unique point of the sphere with g_k(r_k) =
    n+_k/(1 + r_k) - n-_k/(1 - r_k) = 2 lam r_k on every axis, lam >= 0,
    which `_sphere_fit` solves for each such item alone, so an item's result
    is bit-identical in any batch.  An axis with no counts gets r_k = 0, the
    maximally mixed value.
    """
    c = _count_tables(counts, None, (3, 2), 1)[0].reshape(-1, 3, 2)
    r, r2 = _linear_inversion(c)
    for i in np.flatnonzero(r2 > 1.0):
        r[i] = _sphere_fit(c[i, :, 0].tolist(), c[i, :, 1].tolist())
    return _bloch_matrices(r)


def purity_from_counts(counts: np.ndarray) -> np.ndarray:
    """The purity tr(rho^2) of the constrained MLE of each count array of a
    (batch, 3, 2) stack, with no sphere fit; the counts are checked as
    `mle_qubit_batch` checks them.

    Inside the Bloch ball the MLE is the linear inversion r, whose purity
    is (1 + r.r)/2, computed in real float64 arithmetic; outside it the MLE
    lies on the sphere, so its purity is exactly 1.
    """
    _r, r2 = _linear_inversion(_count_tables(counts, None, (3, 2), 1)[0].reshape(-1, 3, 2))
    return 0.5 * (1.0 + np.minimum(r2, 1.0))


def squared_bloch_length(counts, shots: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each qubit's squared Bloch length Q = sum_k r_k^2 for both qubits A and
    B of a pair, estimated without bias, the variances of those estimates
    and their covariance, from a (..., 9, 4) stack of pair tables of `shots`
    shots each, rows in `measure.PAIRS` order: (..., 2), (..., 2) and (...)
    float arrays.

    A qubit's axis table is the sum of the marginals of the three pair
    tables that measure that axis.  A marginal does not depend on the
    partner's axis (no signalling), so each axis of a qubit is one
    Binomial(m, (1 + r_k)/2) draw of m = 3N shots, N those of a table.  With
    the linear inversion r^_k = (m+_k - m-_k)/m the square u_k = (m r^_k^2 -
    1)/(m - 1) is unbiased for r_k^2, and Q^ = sum_k u_k, unclipped: it may
    leave [0, 1].  The outcome +-1 has cumulants k2 = 1 - r^2, k3 = -2r(1 -
    r^2) and k4 = -2(1 - r^2)(1 - 3r^2), so Var(r^^2) = 4r^2 k2/m + 4r
    k3/m^2 + 2 k2^2/m^2 + k4/m^3 exactly, a function of r^2 alone.  Var(u_k)
    = (m/(m - 1))^2 Var(r^_k^2) is evaluated at r_k^2 = clip(u_k, 0, 1), and
    a qubit's axes are independent, so Var(Q^) = sum_k Var(u_k).

    The two qubits share their tables, so Cov(Q^_A, Q^_B) is the sum over the
    nine tables (j, k) of Cov(u_Aj, u_Bk) (`_square_covariance`), which is
    linear in three moments of the table: t^2, x y t and x^2 y^2, x and y
    the qubits' means and t the table's correlator.  Each moment is
    estimated from the counts: t^2 by the table's own unbiased square (N t^^2
    - 1)/(N - 1), x y t by P t^ with the unbiased product P = (m^2 x^ y^ -
    N t^)/(m^2 - N) (E x^ y^ = x y + N (t - x y)/m^2, and a plug-in x^ y^
    would read 3 times the covariance at x = y = 0), and x^2 y^2 by u_Aj u_Bk.
    The estimate is not clipped: its spread is several times its size where
    x = y = 0, so it is often negative, and at a few shots it may pass
    sqrt(Var_A Var_B).

    `shots` None is the limit N -> inf, in which analytic mode reads Born
    tables as counts: Q^ = sum_k r^_k^2 with variances and covariance 0.
    Otherwise `shots` is an integer in [1, `MAX_SHOTS`].  The counts and
    shots obey `measure._count_tables`, the one rule of a count table, at N.

    A qubit whose three axes each read one outcome shows no spread, yet no
    qubit is deterministic on three axes: its u_k are all 1, so Q^ would be 3
    with variance 0.  It reads the plug-in Q^ = 1 instead, with the stated
    bound 1/4 of its variance, that of any quantity in [0, 1] (a standard
    deviation of its half-range 1/2).  On that event alone Q^ is not unbiased.
    """
    c, n = _count_tables(counts, shots, (9, 4))
    shape = c.shape[:-2]
    # Axes (item, A's axis j, B's axis k, A's outcome, B's outcome).
    c = c.reshape(-1, 3, 3, 2, 2)
    r, r2 = _linear_inversion(np.stack([c.sum(axis=(2, 4)), c.sum(axis=(1, 3))], axis=1).reshape(-1, 3, 2))
    if n is None:
        return r2.reshape(*shape, 2), np.zeros((*shape, 2)), np.zeros(shape)
    m = 3 * n
    r, u = r.reshape(-1, 2, 3), ((m * r * r - 1.0) / (m - 1.0)).reshape(-1, 2, 3)
    unanimous = (np.abs(r) == 1.0).all(axis=-1)
    q = np.where(unanimous, 1.0, u.sum(axis=-1))
    var = np.where(unanimous, 0.25, _square_variance(np.clip(u, 0.0, 1.0), m).sum(axis=-1))
    t = correlators(c.reshape(-1, 3, 3, 4))
    xyt = (m * m * r[:, 0, :, None] * r[:, 1, None, :] - n * t) / (m * m - n) * t
    cov = _square_covariance((n * t * t - 1.0) / max(n - 1, 1), xyt, u[:, 0, :, None] * u[:, 1, None, :], n)
    return q.reshape(*shape, 2), var.reshape(*shape, 2), cov.sum(axis=(1, 2)).reshape(shape)


def _square_variance(s, n: int):
    """Var(u) of one axis's unbiased square u = (n r^^2 - 1)/(n - 1) at r^2 =
    `s`, for n >= 2 shots: (n/(n - 1))^2 Var(r^^2), from the cumulants of the
    outcome +-1 (`squared_bloch_length`)."""
    n = float(n)
    k2 = 1.0 - s
    var = 4.0 * s * k2 / n - 8.0 * s * k2 / n**2 + 2.0 * k2 * k2 / n**2 - 2.0 * k2 * (1.0 - 3.0 * s) / n**3
    return (n / (n - 1.0))**2 * var


def _square_covariance(t2, xyt, xxyy, n: int):
    """Cov(u_Aj, u_Bk) of the unbiased squares of qubit A's axis j and qubit
    B's axis k, each summed over three pair tables of `n` shots, which share
    table (j, k), at its moments t^2 = `t2`, x y t = `xyt` and x^2 y^2 =
    `xxyy` (`squared_bloch_length`).

    With m = 3n, delta = t - x y, and S_A and S_B the sums of the two
    marginals' outcomes +-1, the multinomial moments of the shared table give
    Cov(S_A^2, S_B^2) = 2n(n - 1) delta^2 + 4n(m - 1)^2 x y delta, and u =
    (S^2/m - 1)/(m - 1) divides it by m^2 (m - 1)^2."""
    m = 3.0 * n
    return (2.0 * n * (n - 1.0) * (t2 - 2.0 * xyt + xxyy) / (m - 1.0)**2 + 4.0 * n * (xyt - xxyy)) / (m * m)


def bootstrap_std(
    quantity: Callable[[np.ndarray], np.ndarray],
    counts,
    seed: int,
    resamples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Point values of `quantity` for each count array of an (n, ...) stack,
    and their standard deviation over Poisson resamples of it.

    The resamples are one `poisson_resample` draw of the whole stack from
    `measure.generator(seed)`.  `quantity` maps a stack of m count arrays to
    (m, ...) values in one call, made on the n items followed by the
    resamples, one redrawn stack after another.  Returns the (n, ...) point
    values and the (n, ...) spread of each entry.  `resamples` is an integer
    >= 2.
    """
    if not (_is_integer(resamples) and resamples >= 2):
        raise ValueError(f"resamples must be an integer >= 2, got {resamples!r}")
    counts = np.asarray(counts)
    n = len(counts)
    draws = poisson_resample(counts, resamples, seed)
    values = np.asarray(quantity(np.concatenate([counts, draws.reshape(-1, *counts.shape[1:])])))
    if values.shape[:1] != (n * (resamples + 1),):
        raise ValueError(f"quantity gave shape {values.shape}, expected ({n * (resamples + 1)}, ...)")
    return values[:n], np.std(values[n:].reshape(resamples, *values[:n].shape), axis=0, ddof=1)


# ---------------------------------------------------------------------------
# Correlation-matrix decoding of the real input state.

def _simplex_projection(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of each real vector along the last axis onto the
    probability simplex."""
    srt = np.sort(vals, axis=-1)[..., ::-1]
    cumul = np.cumsum(srt, axis=-1)
    ks = np.arange(1, vals.shape[-1] + 1)
    shifted = srt + (1.0 - cumul) / ks
    # k is one past the last index where shifted > 0; shifted[0] is 1 up to rounding.
    k = vals.shape[-1] - np.argmax(shifted[..., ::-1] > 0, axis=-1, keepdims=True)
    shift = (1.0 - np.take_along_axis(cumul, k - 1, axis=-1)) / k
    return np.clip(vals + shift, 0.0, None)


def project_to_density(mat: np.ndarray) -> np.ndarray:
    """Nearest density matrix in Frobenius norm (eigenvalue simplex projection)
    to each finite matrix of a (..., d, d) stack, in the stack's own field: a
    real stack is decomposed and rebuilt in real arithmetic and gives a real
    symmetric result, a complex one in complex arithmetic.

    One `eigh` of the Hermitian part gives the spectrum, which is projected
    onto the probability simplex and checked where positivity is decided:
    the projected values are nonnegative by construction and must sum to 1
    within EPS_EXACT.  So the Hermitian-symmetrized rebuild is returned
    without a second decomposition by `checked_density`.
    """
    arr = _as_field_array(mat, "matrix")
    vals, vecs = np.linalg.eigh(0.5 * (arr + _dagger(arr)))
    vals = _simplex_projection(vals)
    gap = np.abs(vals.sum(axis=-1) - 1.0).max(initial=0.0)
    if not gap <= EPS_EXACT:
        raise ValueError(f"projected spectrum sums to 1 only within {gap:.3e}")
    rho = (vecs * vals[..., None, :]) @ _dagger(vecs)
    return 0.5 * (rho + _dagger(rho))


@lru_cache(maxsize=None)
def _decode_map() -> np.ndarray:
    """(4, 4, 10) map K with rho = K @ (1, T_xx, T_xy, ..., T_zz).

    The sixteen two-qubit Paulis P obey tr(P P') = 4 delta and M is unitary,
    so rho = sum_P tr(M rho M† P) M† P M / 4.  The map keeps the identity and
    the nine Pauli pairs; it is checked to invert T_jk = tr(M rho M†
    sigma_j⊗sigma_k) with tr(rho) = 1 on the ten real symmetric basis matrices
    E_ii and E_ij + E_ji, which also shows the six dropped terms vanish for
    real symmetric rho.  Every entry of K is a multiple of 1/4, so K is stored
    rounded to that grid.
    """
    m = masker_matrix()
    paulis = np.concatenate([np.eye(4)[None], PAIR_PAULIS])
    exact = np.einsum("ki,nkl,lj->ijn", m.conj(), paulis, m) / 4
    kmap = np.round(4.0 * exact.real) / 4.0
    rows, cols = np.triu_indices(4)
    basis = np.zeros((len(rows), 4, 4))
    basis[np.arange(len(rows)), rows, cols] = basis[np.arange(len(rows)), cols, rows] = 1.0
    forward = np.einsum("nij,bji->nb", paulis, m @ basis @ m.conj().T).real
    residual = max(np.abs(exact - kmap).max(),
                   np.abs(np.einsum("ijn,nb->bij", kmap, forward) - basis).max())
    if residual > EPS_EXACT:
        raise AssertionError(f"decode map is off the 1/4 grid or fails to invert by {residual:.3e}")
    kmap.setflags(write=False)
    return kmap


def decode_real_state(t) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild the real ququart density matrix from the masked correlators:
    the raw reconstruction and its positivity projection, float64 arrays of
    shape (..., 4, 4) like the correlators.

    `t` is a 3x3 correlation matrix or a (..., 3, 3) stack, every entry
    finite and at most 1 in magnitude; each item maps through the constant
    `_decode_map`, every entry of rho a signed sum of quarters of 1 and the
    T_jk, then projects onto the density matrices in real arithmetic: rho
    has no imaginary part by construction.
    """
    t = np.asarray(t, dtype=float)
    if t.shape[-2:] != (3, 3):
        raise ValueError("correlation matrix must be 3x3")
    if not np.isfinite(t).all():
        raise ValueError("correlation matrix has a NaN or infinite entry")
    if np.abs(t).max(initial=0.0) > 1.0 + EPS_PROB:
        raise ValueError("correlator magnitude exceeds 1 beyond tolerance")
    ones = np.ones(t.shape[:-2] + (1,))
    v = np.concatenate([ones, t.reshape(t.shape[:-2] + (9,))], axis=-1)
    # An elementwise product summed over the last axis adds each item's ten
    # terms in the same order whatever the stack, unlike a BLAS product.
    rho = (v[..., None, None, :] * _decode_map()).sum(axis=-1)
    return rho, project_to_density(rho)


def decode_weights(target) -> np.ndarray:
    """The (10,) weights w_n = <a|K_n|a> of a real ququart `target` a on the
    decode map K, the identity term first and then the nine Pauli pairs in
    `measure.PAIRS` order: the raw decode of correlators T has fidelity
    w_0 + sum_n w_n T_n with a (`decode_fidelity`)."""
    return fidelity_with_pure(np.moveaxis(_decode_map(), -1, 0), target)


def decode_fidelity(counts, shots: int | None, weights) -> tuple[float, float]:
    """The raw decode's fidelity F = w_0 + sum_n w_n T_n with the target of
    `weights` (`decode_weights`), from its nine (9, 4) pair tables of `shots`
    shots each, and its standard error: two floats.

    F is linear in the correlators T_n, each the mean of the N outcomes +-1
    of its table (`measure.correlators`), so it is unbiased and unclipped: it
    may exceed 1.  Its error is sqrt(sum_n w_n^2 V_n), V_n = (1 - T_n^2)/(N -
    1) the unbiased estimate of Var T_n.  A unanimous table, T_n = +-1,
    shows no spread, though it does not prove its pair deterministic: its
    V_n is the bound 4 q (1 - q)/N on Var T_n at the rule of three's 95%
    upper bound q = min(3/N, 1/2) on the share of the other outcome (Hanley
    & Lippman-Hand, JAMA 249, 1743, 1983).  Up to 6 shots that is 1/N, the
    bound of any T_n in [-1, 1], and every one-shot table is unanimous.
    `shots` None is the limit N -> inf, in which analytic mode reads Born
    tables as counts and F has error 0.  The nine tables, one (9, 4) array
    with no stack ahead, and the shots obey `measure._count_tables`, as
    `squared_bloch_length`'s do.
    """
    (c, n), w = _count_tables(counts, shots, (9, 4), 0), np.asarray(weights, dtype=float)
    if w.shape != (10,):
        raise ValueError(f"weights must have shape (10,), got {w.shape}")
    t, error = correlators(c), 0.0
    if n is not None:
        q = min(3.0 / n, 0.5)
        var = np.where(np.abs(t) == 1.0, 4.0 * q * (1.0 - q) / n, (1.0 - t * t) / max(n - 1, 1))
        error = math.sqrt(math.fsum((w[1:] * w[1:] * var).tolist()))
    return math.fsum([w[0], *(w[1:] * t).tolist()]), error
