"""Density-matrix algebra and information measures.

Entropies are in classical bits (base-2 logarithms) throughout.  A
DensityMatrix is a validated Hermitian, unit-trace, positive-semidefinite
matrix together with the ordered subsystem dimensions whose product is its
size.

Every two-site state of the models here is an X-state: a qubit pair whose
only nonzero entries sit on the diagonal and the anti-diagonal, fixed by
the correlations <sz>, <sx sx>, <sy sy> and <sz sz>.  x_state_entropies
evaluates a batch of such states in closed form, without building
matrices, as three elementwise passes over stacked rows (the two blocks,
the entropy terms, the relative-entropy terms), so its numpy call count
does not grow with the batch.  Its elementwise leaves _plogp, _g and
_weighted_g work in place, with the operations of the one-expression forms
that tests/oracles.py keeps, so fewer arrays are live and no float moves.
two_site_entropies is the models' one way in: it checks the correlations,
makes that kernel call and turns a non-positive state into
ModelConsistencyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from .errors import ModelConsistencyError, ValidationError

TRACE_TOL = 1e-10
HERM_TOL = 1e-10
NEGATIVITY_REJECT = 1e-10  # eigenvalues below -this are construction bugs
NEGATIVITY_CLIP = 1e-12    # eigenvalues in [-this, 0) are numerical dust
MI_SNAP = 1e-9             # mutual information in [-this, 0) reports as 0
CORRELATION_TOL = 1e-8     # correlations may leave [-1, 1] by this much
SUPPORT_TOL = 1e-12
LN2 = math.log(2.0)


def _plogp(p):
    """p ln p elementwise, with 0 ln 0 = 0."""
    p = np.asarray(p, dtype=float)
    positive = p > 0
    out = np.where(positive, p, 1.0)
    np.log(out, out=out)
    out *= p
    np.copyto(out, 0.0, where=~positive)
    return out


@dataclass(frozen=True)
class DensityMatrix:
    matrix: np.ndarray
    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def make_density_matrix(matrix, dims) -> DensityMatrix:
    """Validated constructor.

    Checks unit trace, Hermiticity and positivity; eigenvalues in
    [-1e-12, 0) are clipped to zero and the spectrum renormalized to unit
    sum.  Anything below -1e-10 is rejected rather than silently fixed.
    """
    matrix = np.asarray(matrix, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("shape", "matrix must be square")
    if any(d < 1 for d in dims) or math.prod(dims) != matrix.shape[0]:
        raise ValidationError(
            "dims", f"product of {dims} must equal dimension {matrix.shape[0]}"
        )
    tr = np.trace(matrix)
    # each check reads `not x <= tol`, so a NaN fails it
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValidationError("unit trace", f"trace = {tr:.12g}")
    herm = np.max(np.abs(matrix - matrix.conj().T))
    if not herm <= HERM_TOL:
        raise ValidationError("hermitian", f"residual {herm:.3e}")
    sym = (matrix + matrix.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    if not w[0] >= -NEGATIVITY_REJECT:
        raise ValidationError(
            "positive semidefinite", f"smallest eigenvalue {w[0]:.3e}"
        )
    w = np.where((w < 0) & (w >= -NEGATIVITY_CLIP), 0.0, w)
    w = w / w.sum()
    out = (v * w) @ v.conj().T
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(out, dims)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum p log2 p over the spectrum, with 0 log 0 = 0.  In bits."""
    p = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
    return float((0.0 - np.sum(_plogp(p))) / LN2)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the subsystems in `keep` (original order kept)."""
    keep = sorted(set(int(k) for k in keep))
    n = len(rho.dims)
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep {keep} outside subsystem range 0..{n - 1}")
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    # same einsum letter on the ket/bra axes of each traced subsystem
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    ket = list(letters[:n])
    bra = [
        ket[i] if i not in keep else letters[n + keep.index(i)]
        for i in range(n)
    ]
    out = "".join(ket[i] for i in keep) + "".join(bra[i] for i in keep)
    reduced = np.einsum("".join(ket) + "".join(bra) + "->" + out, tensor)
    kept_dims = tuple(rho.dims[i] for i in keep)
    d = math.prod(kept_dims)
    return make_density_matrix(reduced.reshape(d, d), kept_dims)


def tensor_product(rho_a: DensityMatrix, rho_b: DensityMatrix) -> DensityMatrix:
    """Kronecker product state; subsystem dims are concatenated."""
    return make_density_matrix(
        np.kron(rho_a.matrix, rho_b.matrix), rho_a.dims + rho_b.dims
    )


def mutual_information(rho: DensityMatrix) -> float:
    """S(A) + S(B) - S(AB) for a bipartite state, in bits.

    Rounding dust in [-1e-9, 0) is snapped to 0 so downstream fits never
    see a negative value.
    """
    if len(rho.dims) != 2:
        raise ValueError("mutual_information needs exactly two subsystems")
    s_a = von_neumann_entropy(partial_trace(rho, {0}))
    s_b = von_neumann_entropy(partial_trace(rho, {1}))
    s_ab = von_neumann_entropy(rho)
    mi = s_a + s_b - s_ab
    if -MI_SNAP <= mi < 0.0:
        return 0.0
    return float(mi)


# g(eps) = (1 + eps) ln(1 + eps) - eps = sum_{n >= 2} (-1)^n eps^n / (n (n - 1));
# twelve terms below |eps| < 0.05 leave a relative truncation below 1e-17
_G_SERIES = tuple((-1) ** n / (n * (n - 1)) for n in range(2, 14))
_G_SERIES_RADIUS = 0.05


def _g(eps):
    """(1 + eps) ln(1 + eps) - eps >= 0, the share of one diagonal entry in
    a relative entropy.  The series avoids cancellation for small eps;
    g(-1) = 1 is the 0 ln 0 limit, also taken below -1, which eigenvalue
    dust can reach."""
    eps = np.asarray(eps, dtype=float)
    small = np.abs(eps) < _G_SERIES_RADIUS
    floor = eps <= -1.0
    poly = np.zeros_like(eps)
    for c in reversed(_G_SERIES):
        poly *= eps
        poly += c
    safe = np.where(small | floor, 0.0, eps)
    direct = np.log1p(safe, out=np.empty_like(safe))  # an array even for 0-d eps
    direct *= 1.0 + safe
    direct -= safe
    np.copyto(direct, 1.0, where=floor)
    poly *= np.multiply(eps, eps, out=safe)
    np.copyto(direct, poly, where=small)
    return direct


def _weighted_g(q, d):
    """q g(d / q), and 0 where q <= 0; q and d of one shape."""
    positive = q > 0
    eps = np.where(positive, q, 1.0)
    out = _g(np.divide(d, eps, out=eps))
    out *= q
    # not ~positive: for a float q, q > 0 is a Python bool, and ~True is -2
    np.copyto(out, 0.0, where=np.logical_not(positive))
    return out


def _block(hi, lo, delta, c):
    """Eigenvalues and coherence terms of 2x2 blocks [[hi, c], [c, lo]],
    elementwise over stacked blocks.

    hi >= lo and delta = (hi - lo)/2 is passed exactly.  The diagonal moves
    by e = c^2 / (hypot(delta, c) + delta) to the eigenvalues hi + e and
    lo - e, and the block's relative entropy to its own diagonal (its
    coherence, in nats) is hi g(e/hi) + lo g(-e/lo) + e ln(hi/lo), three
    non-negative terms.  Returns hi + e, lo - e, e and the last term; the
    caller takes the two g terms in its one _weighted_g pass.
    """
    denom = np.hypot(delta, c) + delta
    e = c * c / np.where(denom > 0, denom, 1.0)
    ratio = 2.0 * delta / np.where(hi + lo > 0, hi + lo, 1.0)
    positive = lo > 0
    safe_hi = np.where(positive, hi, 1.0)
    safe_lo = np.where(positive, lo, 1.0)
    ln_ratio = np.where(
        ratio < 0.5,
        2.0 * np.arctanh(np.minimum(ratio, 0.5)),
        np.log(safe_hi) - np.log(safe_lo),
    )
    return hi + e, lo - e, e, np.where(positive, e * ln_ratio, 0.0)


def _reject_negative(values) -> None:
    lowest = np.min(values, axis=0)
    bad = np.flatnonzero(lowest < -NEGATIVITY_REJECT)
    if bad.size:
        raise ValidationError(
            "positive semidefinite", f"smallest eigenvalue {lowest[bad[0]]:.3e}"
        )


def x_state_entropies(mz, gxx, gyy, czz):
    """S_i (= S_j), S_ij and MI, in bits, of two-site X-states, rowwise.

    The state has the outer block [[u+, z-], [z-, u-]] on {uu, dd} and the
    inner block [[w, z+], [z+, w]] on {ud, du}, with

        u+- = ((1 +- mz)^2 + czz)/4,  w = (1 - mz^2 - czz)/4,
        z+- = (gxx +- gyy)/4,

    and both marginals diag((1 + mz)/2, (1 - mz)/2); czz is the connected
    correlation <sz sz> - mz^2, passed as such so it is never recovered by
    cancellation.  MI is the relative entropy D(rho_ij || rho_i x rho_j):
    a diagonal part sum_k q_k g((rho_kk - q_k)/q_k) over the product
    state's diagonal q, plus one coherence part per block, all terms
    non-negative, so MI keeps its relative precision for weakly correlated
    pairs instead of being a difference of entropies of order 1.

    The work is three elementwise passes over C-contiguous stacks: _block
    over both blocks (2 rows), p ln p over the two marginal and four pair
    eigenvalues (6 rows), _weighted_g over the four block and three
    diagonal terms (7 rows).  The rows are then summed in a fixed order,
    so each state's floats do not depend on the batch around it.

    Inputs broadcast to common 1-d shape.  An eigenvalue of the pair or of
    a marginal below -1e-10 raises ValidationError; smaller negative dust
    counts as 0 in the entropies.
    """
    mz, gxx, gyy, czz = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (mz, gxx, gyy, czz))
    )
    up, dn = marginal = np.stack((1.0 + mz, 1.0 - mz)) / 2.0
    # the product state's diagonal q on uu, dd, ud and the pair's shift from
    # it (stacked, not fancy-indexed: numpy's indexing code adds resident pages)
    q = np.stack((up * up, dn * dn, up * dn))
    shift = np.stack((czz, czz, -czz)) / 4.0
    u_plus, u_minus, w = q + shift
    # row 0 the outer block, row 1 the inner one
    hi = np.stack((np.maximum(u_plus, u_minus), w))
    lo = np.stack((np.minimum(u_plus, u_minus), w))
    eig_hi, eig_lo, e, cross = _block(
        hi, lo, np.stack((np.abs(mz) / 2.0, np.zeros_like(mz))),
        np.stack((gxx - gyy, gxx + gyy)) / 4.0,
    )
    # rows: up, dn, then the outer and inner blocks' upper and lower eigenvalues
    probabilities = np.concatenate((marginal, eig_hi, eig_lo))
    _reject_negative(probabilities[2:])
    _reject_negative(marginal)
    plogp = _plogp(probabilities)
    # 0 - sum, not -sum: a pure state's entropy is +0, never -0
    s_i = (0.0 - (plogp[0] + plogp[1])) / LN2
    s_ij = (0.0 - (plogp[2] + plogp[4] + plogp[3] + plogp[5])) / LN2
    del plogp  # the g pass reuses its memory: a lower peak RSS, measured
    g = _weighted_g(np.concatenate((hi, lo, q)), np.concatenate((e, -e, shift)))
    coherence = g[0:2] + g[2:4] + cross
    diagonal = g[4] + g[5] + 2.0 * g[6]
    mi = (diagonal + coherence[0] + coherence[1]) / LN2
    return s_i, s_ij, mi


def _check_correlations(mz, gxx, gyy, gzz) -> None:
    """ModelConsistencyError unless every entry lies in [-1, 1], up to
    CORRELATION_TOL (a NaN does not)."""
    for name, v in (("mz", mz), ("gxx", gxx), ("gyy", gyy), ("gzz", gzz)):
        v = np.ravel(v)
        bad = np.flatnonzero(~(np.abs(v) <= 1.0 + CORRELATION_TOL))
        if bad.size:
            raise ModelConsistencyError(f"{name} = {v[bad[0]]:.6g} outside [-1, 1]")


def two_site_entropies(mz, gxx, gyy, gzz, czz):
    """S_i (= S_j), S_ij and MI, in bits, of the two-site X-states with
    these correlations (czz = gzz - mz^2, the connected part), shaped like
    the broadcast inputs: one range check and one x_state_entropies call
    for all of them.  A correlation outside [-1, 1] or a non-positive
    state raises ModelConsistencyError."""
    mz, gxx, gyy, gzz, czz = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (mz, gxx, gyy, gzz, czz)))
    _check_correlations(mz, gxx, gyy, gzz)
    try:
        values = x_state_entropies(*(np.ravel(v) for v in (mz, gxx, gyy, czz)))
    except ValidationError as exc:
        raise ModelConsistencyError(f"correlations give an invalid two-site state: {exc}") from exc
    return tuple(v.reshape(mz.shape) for v in values)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """tr(rho log2 rho) - tr(rho log2 sigma), computed in sigma's eigenbasis.

    Returns math.inf when rho has weight outside sigma's support (an
    infinite-divergence signal, not an error).
    """
    if rho.dim != sigma.dim:
        raise ValueError("states must have equal dimension")
    p = np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None)
    s, v = np.linalg.eigh(sigma.matrix)
    s = np.clip(s, 0.0, None)
    diag = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho.matrix, v))
    outside = s <= SUPPORT_TOL
    if np.any(diag[outside] > SUPPORT_TOL):
        return math.inf
    tr_rho_log_rho = np.sum(_plogp(p))
    tr_rho_log_sigma = np.sum(diag[~outside] * np.log(s[~outside]))
    return float((tr_rho_log_rho - tr_rho_log_sigma) / LN2)


def random_density_matrix(dims, rng: np.random.Generator) -> DensityMatrix:
    """Random state on subsystems of the dimensions in the sequence `dims`
    ((4,) for one subsystem): uniform-simplex spectrum conjugated by a Haar
    unitary."""
    dims = tuple(int(d) for d in dims)
    dim = math.prod(dims)
    spectrum = rng.dirichlet(np.ones(dim))
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return make_density_matrix((q * spectrum) @ q.conj().T, dims)
