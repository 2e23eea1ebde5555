"""Independent references that the fast paths of supres are checked against.

Each function here is a direct or dense computation of something the package
computes by FFT, by a structured operator, by bisection or in closed form:
the direct sum of a trigonometric polynomial (in double and in extended
precision) and its sampling by one complex FFT of the whole grid
(eval_grid), the
certificate eta and eta' summed over the atoms' kernels pointwise, the
audit's inner integral F(s; theta) by adaptive quadrature, the two C1
fixed points of constants by Lambert W, the dense Gram-side maps T, T~*,
A = T(P . P), A~* = P T~*(.) P with their projector and weighted norm, the
general FFT step of A(Toep(z)) for any complex z, the dense matrix of
A A~*, the dense Gram matrix Q = P (I/dim + Toep(zeta)) P, the one-atom
limit entries of qk_operator case by case and at finite n, the dense section I - Q + P with
its projector built from the closed form of w and its extreme singular
values by a full SVD, the printed complex kernel
E of those entries, and the measured deviations of the interpolation system
from the identity (neumann_bounds). A polynomial is its full coefficient array
on -n..n here; a Hermitian row, which the package passes by its half
k = 0..n, is unfolded to that array by `unfold`. The complex FFTs
here read the full layout of to_grid and from_grid, coefficient k at
index k mod length, where the package keeps only real FFTs of Hermitian
half rows. No code of the package calls them; tests import them from
here. Of the package they use only the printed inputs of constants, the
Dirichlet kernel, the interpolation system and its closed-form bounds,
the dense Q (itself checked against the entry and finite-n routes here)
and one private helper of gram, the projector factor V, unfolded from its
half; the diagonal lengths d - |s| are their own here (diagonal_lengths).

One oracle stays in the package because the benchmark under perfbench/
imports it from there: spectrum.dense_extremes, the dense SVD its worker
checks spectrum-sweep reports against; the spectrum tests use
section_extremes, and one test pins dense_extremes to it. The benchmark's
tracer also wraps bound_audit.quad, a name the audit does not use:
bound_audit resolves it to scipy.integrate.quad on demand (a module
__getattr__), so importing the audit loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.fft import fft2, ifft2, next_fast_len
from scipy.integrate import quad
from scipy.special import lambertw, sici

from supres import constants as co, trigpoly as tp
from supres.certificate import AtomicMeasure, Certificate, build_system, system_norm_bounds
from supres.gram import _projector_factor
from supres.qk_operator import qk_dense


def freqs(c: np.ndarray) -> np.ndarray:
    """The frequencies -n..n of a coefficient array of length 2n+1."""
    n = (len(c) - 1) // 2
    return np.arange(-n, n + 1)


def unfold(half: np.ndarray) -> np.ndarray:
    """The Hermitian rows on -h..h with halves c_0..c_h (one row, or a stack
    on the last axis): c_-k = conj(c_k)."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def diagonal_lengths(n: int) -> np.ndarray:
    """The lengths d - |s| of the diagonals s = -2n..2n of a d x d matrix,
    d = 2n+1: the weights w of T and of the normal equations."""
    d = 2 * n + 1
    return d - np.abs(np.arange(-(d - 1), d))


def to_grid(x: np.ndarray, length: int) -> np.ndarray:
    """Rows of coefficients on -h..h placed at index k mod length: c_0..c_h
    at the front of each row, c_-h..c_-1 at the back, the layout of a
    complex FFT. Raises ValueError unless the rows have odd length 2h+1 and
    length exceeds 2h, so the two ends do not overlap."""
    if x.shape[-1] % 2 != 1:
        raise ValueError(f"coefficient rows need odd length 2h+1, got {x.shape[-1]}")
    h = (x.shape[-1] - 1) // 2
    if length <= 2 * h:
        raise ValueError(f"grid of {length} points cannot hold order {h} (needs > {2 * h})")
    buf = np.zeros(x.shape[:-1] + (length,), dtype=np.complex128)
    buf[..., : h + 1] = x[..., h:]
    buf[..., length - h :] = x[..., :h]
    return buf


def from_grid(buf: np.ndarray, h: int) -> np.ndarray:
    """Coefficients -h..h of rows laid out as in to_grid."""
    return np.concatenate([buf[..., buf.shape[-1] - h :], buf[..., : h + 1]], axis=-1)


def eval_direct(c: np.ndarray, theta):
    """Evaluate the polynomial with coefficients c at theta (scalar or
    array). Periodic with period 1.

    The direct sum at arbitrary points, against which
    TestEvalGrid::test_matches_pointwise checks `eval_grid`.
    """
    th = np.asarray(theta, dtype=float)
    k = freqs(c)
    # outer-product evaluation; chunk large grids to keep the phase matrix small
    flat = np.atleast_1d(th).ravel()
    out = np.empty(flat.shape, dtype=np.complex128)
    step = max(1, 2_000_000 // len(c))
    for i in range(0, flat.size, step):
        block = flat[i : i + step]
        out[i : i + step] = np.exp(2j * np.pi * np.outer(block, k)) @ c
    out = out.reshape(np.shape(th))
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return complex(out)
    return out


def eval_grid(c: np.ndarray, G: int) -> np.ndarray:
    """Values p(g/G), g = 0..G-1, of the polynomial with coefficients c on
    -n..n, by one zero-padded inverse FFT of length G: the one-FFT sampling
    that trigpoly.phases splits into m phases of length G/m, one inverse
    real FFT per Hermitian row each, and the fine grids the tests compare
    rigorous bounds with. to_grid checks that c has odd length and that G
    exceeds 2n."""
    # "forward" puts the 1/G on the forward transform, so the inverse is the plain sum
    return np.fft.ifft(to_grid(c, G), norm="forward")


def eval_grid_longdouble(c: np.ndarray, G: int) -> np.ndarray:
    """Values p(g/G), g = 0..G-1, of the polynomial with coefficients c, as
    np.clongdouble, by the direct sum in extended precision: the reference for
    the rounding error of `eval_grid` and of trigpoly.phases.

    The phase index k g mod G is formed exactly in integers and picks one of
    the G roots of unity, so the phases carry only the long-double rounding
    of 2 pi j/G and of cos and sin, not the double rounding of g/G that
    `eval_direct` would add.
    """
    angle = 8 * np.arctan(np.longdouble(1)) * np.arange(G, dtype=np.longdouble) / G
    roots = np.cos(angle) + 1j * np.sin(angle)
    return roots[np.outer(np.arange(G), freqs(c)) % G] @ c.astype(np.clongdouble)


def eval_eta(c: Certificate, theta):
    """(eta, eta') at theta, two complex arrays of theta's shape, as the sum
    of a_j D + b_j D' and a_j D' + b_j D'' over the atoms, O(|S|) per point:
    the pointwise reference for `eta_coeffs` and the atom checks of
    `verify_bounded`."""
    th = np.asarray(theta, dtype=float)
    eta = np.zeros(th.shape, dtype=np.complex128)
    deta = np.zeros(th.shape, dtype=np.complex128)
    for tau, aj, bj in zip(c.measure.atoms, c.a, c.b):
        D0, D1, D2 = tp.dirichlet_deriv(c.n, th - tau)
        eta += aj * D0
        eta += bj * D1
        deta += aj * D1
        deta += bj * D2
    return eta, deta


def f_inner_quad(s: float, theta: float, n: int) -> tuple[complex, float]:
    """F(s; theta), the integral over t from 0 to -theta of
    sum_{j=1}^{n+1} exp(2 pi i j (s+t)), by adaptive quadrature, with its
    absolute-error estimate (the sum of the real and imaginary parts'
    estimates): the reference for bound_audit.f_inner's closed form."""
    if theta == 0.0:
        return 0.0 + 0j, 0.0
    j = np.arange(1, n + 2)

    def kernel(t):
        return np.exp(2j * np.pi * (s + t) * j).sum()

    # integration runs from 0 down to -theta; the peak of the summed kernel
    # sits at t = -s, which needs an explicit breakpoint when interior
    pts = [-s] if 0.0 < s < theta else None
    re, re_err = quad(lambda t: kernel(t).real, 0.0, -theta,
                      points=pts, limit=200, epsabs=1e-11, epsrel=1e-11)
    im, im_err = quad(lambda t: kernel(t).imag, 0.0, -theta,
                      points=pts, limit=200, epsabs=1e-11, epsrel=1e-11)
    return complex(re, im), float(re_err + im_err)


def c1_roots_lambertw() -> tuple[float, float]:
    """Both fixed points of x = kappa (M1 + M2 log x), kappa = (3 + 3 EPS)/LAM,
    in closed form: with a = kappa M2, x = -a W_k(-e^{-M1/M2}/a) on the
    Lambert W branches k = 0 and -1 (Corless et al., Adv. Comput. Math. 5,
    1996). The reference for constants.c1_bound's bisection."""
    a = (3.0 + 3.0 * co.EPS) / co.LAM * co.M2
    z = -math.exp(-co.M1 / co.M2) / a
    return tuple(-a * float(lambertw(z, k).real) for k in (0, -1))


def neumann_bounds(m: AtomicMeasure) -> dict:
    """Measured deviations of the interpolation system from the identity, next
    to their closed-form counterparts; TestNeumannBounds checks the measured
    values against the bounds.

    Every entry is {"measured": x, "bound": y} with x computed from the
    dense kernel matrices (induced infinity norms) and y the analytic
    row-sum bound in terms of (|S|, n, separation): system_norm_bounds for
    the system and its three blocks, 2 log|S| / ((2n+1) separation) for the
    frame deviation.
    """
    n = m.n
    S = m.size
    D0, D1, D2 = tp.dirichlet_deriv(n, m.atoms[:, None] - m.atoms)
    # sqrt of |D''(0)|: build_system's scale of the derivative unknowns
    g = math.sqrt(4 * math.pi**2 * n * (n + 1) / 3)
    eye = np.eye(S)

    k = np.arange(-n, n + 1)
    U = np.exp(2j * np.pi * np.outer(k, m.atoms))
    gram = U.conj().T @ U / (2 * n + 1)
    dev_uu = float(np.linalg.norm(eye - gram, np.inf))

    meas_d0 = float(np.linalg.norm(D0 - eye, np.inf))
    meas_d1 = float(np.linalg.norm(D1, np.inf)) / g
    meas_d2 = float(np.linalg.norm(-D2 / g**2 - eye, np.inf))

    matrix, _ = build_system(m)
    meas_op = float(np.linalg.norm(np.eye(2 * S) - matrix, np.inf))

    # every bound is 0 for one atom: log|S| = 0, and the separation is inf
    dev_bound = 2 * math.log(S) / ((2 * n + 1) * m.separation) if S > 1 else 0.0
    nb = system_norm_bounds(m)
    return {
        "dev_UU": {"measured": dev_uu, "bound": dev_bound},
        "bound_D0": {"measured": meas_d0, "bound": nb["b0"]},
        "bound_D1": {"measured": meas_d1, "bound": nb["b1"]},
        "bound_D2": {"measured": meas_d2, "bound": nb["b2"]},
        "operator_norm": {"measured": meas_op, "bound": nb["operator_norm"]},
    }


def op_T(H: np.ndarray) -> np.ndarray:
    """Sum the diagonals: p_s = sum over k-l = s of H[k,l], on -(dim-1)..dim-1."""
    d = H.shape[0]
    return np.array([np.trace(H, offset=-s) for s in range(-(d - 1), d)])


def op_Ttilde_star(p: np.ndarray) -> np.ndarray:
    """Weighted Toeplitz lift with entries p_{k-l}/(dim - |k-l|), dim = order+1,
    of the coefficients p on -order..order.

    Right inverse of op_T. Hermitian exactly when p has Hermitian
    coefficients.
    """
    d = (len(p) + 1) // 2
    idx = np.arange(d)
    s = idx[:, None] - idx[None, :]
    return p[s + d - 1] / (d - np.abs(s))


def norm_W(p: np.ndarray) -> float:
    """The weighted coefficient norm sqrt(sum |p_k|^2 / (n+1-|k|)).

    TestXCorr::test_frobenius_bound_chain checks ||X_corr||_F against
    norm_W(p_err) / sqrt(lambda_min_AAtilde), and acceptance criterion 3
    bounds norm_W(p_err) by 1/n.
    """
    w = (len(p) + 1) // 2 - np.abs(freqs(p))
    return float(np.sqrt(np.sum(np.abs(p) ** 2 / w)))


def projector_PUperp(m: AtomicMeasure) -> np.ndarray:
    """Orthogonal projector onto the complement of span{psi(tau_j)}, on -n..n.

    The dense I - V V* of the factor the Gram task uses; op_A,
    op_Atilde_star and lambda_min_AAtilde form it.
    """
    V = unfold(_projector_factor(m).V.T).T
    P = np.eye(V.shape[0]) - V @ V.conj().T
    return (P + P.conj().T) / 2


def toep(z: np.ndarray) -> np.ndarray:
    """Dense Toeplitz matrix with entries z_{k-l}, z on -2n..2n."""
    d = (z.size + 1) // 2
    idx = np.arange(d)
    return z[idx[:, None] - idx[None, :] + d - 1]


def gram_dense(m: AtomicMeasure, zeta: np.ndarray) -> np.ndarray:
    """The dense Gram matrix Q = P (I/dim + Toep(zeta)) P of the measure m
    and the half zeta of the Hermitian Toeplitz row on -2n..2n, formed
    directly from projector_PUperp and the unfolded row: the reference for
    gram's PSD bound and identity check, which form no dense matrix. The
    rounding of the products leaves Q Hermitian only to the last bits.
    """
    P = projector_PUperp(m)
    return P @ (toep(unfold(zeta)) + np.eye(len(P)) / len(P)) @ P


def op_A(m: AtomicMeasure, X: np.ndarray) -> np.ndarray:
    """A(X) = T(P X P) with P the atom-complement projector.

    The TestXCorr residuals are measured through it, TestFFTOperator checks
    the matrix-free T(P Toep(z) P) against it, TestOpA checks the 2-D FFT
    matrix of lambda_min_AAtilde against it column by column, and
    TestFiniteN::test_matches_toeplitz_composition composes it with A~*.
    """
    P = projector_PUperp(m)
    return op_T(P @ X @ P)


def op_Atilde_star(m: AtomicMeasure, p: np.ndarray) -> np.ndarray:
    """A~*(p) = P T~*(p) P on the certificate-side range -n..n.

    TestOpA and TestFiniteN::test_matches_toeplitz_composition compose it
    with op_A. No symmetrization: the output is Hermitian exactly when p
    is, and the exact right-inverse property at |S|=0 needs the raw product.
    """
    if p.shape != (4 * m.n + 1,):
        raise ValueError("p must have order 2n to match the -n..n Gram dimension")
    P = projector_PUperp(m)
    return P @ op_Ttilde_star(p) @ P


def t_ptp(f, z: np.ndarray) -> np.ndarray:
    """T(P Toep(z) P) for any complex coefficients z on -2n..2n, by FFT:
    the general step gram._t_ptp specialises to Hermitian z, kept by its
    half.

    Expanding P = I - V V* gives w z - sum_j [corr(v_j, Toep(z)* v_j - (V C*)_j)
    + corr(Toep(z) v_j, v_j)] with C = V* Toep(z) V and w the diagonal
    lengths. Toep(z)* is Toep of conj(z_{-s}), whose spectrum at this
    layout is the conjugate of z's. TestFFTOperator checks it against op_A
    on complex z, and TestXCorr runs x_corr on it, through unfold and the
    result's half, in place of the package step.
    """
    V, spectra = unfold(f.V.T).T, f.spectra
    n = (V.shape[0] - 1) // 2
    size, length = spectra.shape
    zf = np.fft.fft(to_grid(z, length))
    both = from_grid(np.fft.ifft(np.concatenate([zf * spectra, np.conj(zf) * spectra])), n)
    tv, tsv = both[:size], both[size:]
    C = V.T.conj() @ tv.T
    rows = np.fft.fft(to_grid(np.concatenate([tsv - C.conj() @ V.T, tv]), length))
    cross = spectra * np.conj(rows[:size]) + rows[size:] * np.conj(spectra)
    return diagonal_lengths(n) * z - from_grid(np.fft.ifft(np.sum(cross, axis=0)), 2 * n)


def quad_form_poly(H: np.ndarray) -> np.ndarray:
    """Coefficients of theta -> psi*(theta) H psi(theta) for Hermitian H.

    The pairing psi* H psi produces sum_s T(H)_s e^{-2 pi i s theta}, so the
    standard-orientation coefficients are the conjugates of T(H); the
    resulting polynomial is real valued but in general not even.
    TestAssemble checks the dense Q's pointwise defect against the
    coefficient-form sup_poly_err through it.
    """
    return np.conj(op_T(H))


def _sigma_matrix(P: np.ndarray) -> np.ndarray:
    """Dense matrix S[s',s] = T(P E_s P)_{s'} of the unweighted part of A A~*.

    S[s',s] = sum_{k,u} P[k,u] P[u-s, k-s'], a 2-D correlation of P with its
    transpose, computed as a 2-D FFT convolution zero-padded past 2d-1 per
    axis so the circular product is the linear one. Hermitian positive
    semidefinite; the full operator A A~* acting on coefficients is
    S diag(1/w), similar to the Hermitian pencil w^{-1/2} S w^{-1/2}.
    """
    full = 2 * P.shape[0] - 1
    shape = (next_fast_len(full),) * 2
    S = ifft2(fft2(P, shape) * fft2(P.T[::-1, ::-1], shape))[:full, :full]
    S = (S + S.conj().T) / 2
    return S


def lambda_min_AAtilde(m: AtomicMeasure) -> float:
    """Smallest eigenvalue of A A~* off its 2|S|-dimensional analytic
    kernel, by a dense eigvalsh of w^{-1/2} S w^{-1/2}.

    TestXCorr::test_frobenius_bound_chain, TestLambdaMin and acceptance
    criterion 4 use it. Each
    atom contributes two kernel vectors: w_s e^{2 pi i s tau_j} and
    s w_s e^{2 pi i s tau_j}. Their lifts under T~* are psi psi* and the
    commutator-like (D psi) psi* - psi (D psi)*, both annihilated by the
    outer projectors, so the 2|S| smallest eigenvalues are discarded by
    count.
    """
    rw = 1.0 / np.sqrt(diagonal_lengths(m.n))
    sym = rw[:, None] * _sigma_matrix(projector_PUperp(m)) * rw[None, :]
    return float(np.linalg.eigvalsh(sym)[2 * m.size])


def dirichlet_limit(ell: int) -> complex:
    """Pointwise limit of the one-sided Dirichlet average at integer lags.

    Equals (e^{i pi l} - 1)/(i pi l) with value 1 at l = 0; exactly zero at
    even nonzero integers, computed by parity so the sparsity is exact.
    """
    if ell == 0:
        return 1.0 + 0j
    if ell % 2 == 0:
        return 0.0 + 0j
    return 2j / (np.pi * ell)


def qk_p0_term(l1: int, l2: int) -> float:
    """The |D|^2 p(0) subtraction: nonzero only on the center column."""
    if l2 != 0:
        return 0.0
    return float(abs(dirichlet_limit(l1)) ** 2)


def e_kernel(c: float) -> complex:
    """E(c) = integral over (0, 1] of (e^{i pi c u} - 1)/u du, E(0) = 0, in
    the printed closed form Ci(pi|c|) - gamma - ln(pi|c|) + i sgn(c) Si(pi|c|),
    one scalar at a time from scipy's sici: qk_entry's kernel, independent of
    specfun.r_kernel, which is its real part."""
    if c == 0:
        return 0j
    a = math.pi * abs(c)
    si, ci = sici(a)
    return complex(ci - np.euler_gamma - math.log(a), math.copysign(si, c))


def qk_entry(K: int, l1: int, l2: int) -> complex:
    """Closed-form limit entry at (l1, l2), assembled case by case;
    TestDense::test_matches_entry_route checks qk_dense against it.

    Cases: the l1 = 0 row is e0^T; even l1 != 0 vanishes through the
    Dirichlet prefactor; otherwise the entry is 2 Re(D S1) minus the
    center-column subtraction, with S1 built from four E-kernel values.
    """
    if abs(l1) > K or abs(l2) > K:
        raise ValueError("indices must satisfy |l1|, |l2| <= K")
    if l1 == 0:
        return complex(1.0 if l2 == 0 else 0.0)
    D = dirichlet_limit(l1)
    if D == 0:
        return 0.0 + 0j
    sgn_l2 = -1.0 if l2 % 2 else 1.0
    sgn_l12 = -1.0 if (l1 + l2) % 2 else 1.0
    s1 = (
        sgn_l2 * (e_kernel(l2) - e_kernel(l2 - l1))
        + sgn_l12 * (e_kernel(l1 - l2) - e_kernel(-l2))
    ) / (2j * np.pi * l1)
    return complex(2.0 * np.real(D * s1) - qk_p0_term(l1, l2))


def qk_finite_n(K: int, n: int) -> np.ndarray:
    """The finite-n matrix, the one-atom operator applied to translated
    Dirichlet kernels, sampled at l1/(2n+1);
    TestFiniteN::test_converges_to_limit checks qk_dense against it.

    Entry [l1, l2] is 2 Re(D(theta) S1(theta)) - |D(theta)|^2 p(0) at
    theta = l1/(2n+1), where p is the Dirichlet kernel centered at
    l2/(2n+1), D is the one-sided exponential average of degree n, and S1
    collects the window sums of the weighted Toeplitz lift of p against the
    all-ones vector.
    """
    if n < 4 * K:
        raise ValueError("need n >= 4K for the sampling grid to stay local")
    ells = np.arange(-K, K + 1)
    thetas = ells / (2 * n + 1.0)
    k = np.arange(0, n + 1)
    z = np.exp(2j * np.pi * thetas)
    with np.errstate(invalid="ignore", divide="ignore"):
        geo = (z ** (n + 1) - 1.0) / (z - 1.0) / (n + 1)
    D = np.where(ells == 0, 1.0 + 0j, geo)
    phi = np.exp(-2j * np.pi * np.outer(thetas, k))
    s = np.arange(-n, n + 1)
    w = (n + 1.0) - np.abs(s)
    out = np.zeros((2 * K + 1, 2 * K + 1))
    for j2, l2 in enumerate(ells):
        beta = l2 / (2 * n + 1.0)
        ct = np.exp(-2j * np.pi * s * beta) / (2 * n + 1.0) / w
        pref = np.concatenate(([0.0 + 0j], np.cumsum(ct)))
        hu = pref[k + n + 1] - pref[k]
        s1 = phi @ np.conj(hu)
        p0 = 1.0 if l2 == 0 else 0.0
        out[:, j2] = 2.0 * np.real(D * s1) - np.abs(D) ** 2 * p0
    return out


def alternating_vector(K: int) -> np.ndarray:
    """The projector's vector w on -K..K from its closed form, entry by entry
    in Python floats: w(0) = 0 and w(l) = (-1)^l / (l c), where
    c^2 = 2 sum_{k=1..K} 1/k^2 makes it unit norm.
    TestProjector::test_vector_shape checks build_operator(K).w against it.
    """
    c = math.sqrt(2 * math.fsum(1.0 / k**2 for k in range(1, K + 1)))
    return np.array([(-1.0) ** ell / (ell * c) if ell else 0.0 for ell in range(-K, K + 1)])


def section_dense(K: int) -> np.ndarray:
    """The dense section I - Q + P on -K..K, with Q = qk_dense(K) and
    P = e0 e0^T + w w^T built from alternating_vector. TestMatvec and
    acceptance criterion 5 check both products of qk_operator against it.
    """
    w = alternating_vector(K)
    P = np.outer(w, w)
    P[K, K] = 1.0
    return np.eye(2 * K + 1) - qk_dense(K) + P


def section_extremes(K: int) -> tuple[float, float]:
    """(sigma_min, sigma_max) of section_dense(K) by a full SVD, the truth
    the spectrum tests hold the Lanczos estimates to."""
    svals = np.linalg.svd(section_dense(K), compute_uv=False)
    return float(svals[-1]), float(svals[0])
