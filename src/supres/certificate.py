"""Interpolating dual certificates.

Given an atomic measure with unit-modulus signs, build the trigonometric
polynomial eta(theta) = sum_j a_j D(theta - tau_j) + b_j D'(theta - tau_j)
(D the centered Dirichlet kernel of cutoff n) satisfying eta(tau_j) = sign_j
and eta'(tau_j) = 0, then verify |eta| < 1 away from the atoms on a dense
grid with a Lipschitz safety margin (`verify_bounded`, whose dict is the
certify report). A certificate is its measure and coefficients alone. The
grid values come from the halves k = 0..n of the Hermitian coefficient rows
of Re eta and Im eta (`eta_coeffs`), by trigpoly.phases, two inverse real
FFTs of length fast_len(2n+1) per phase: O(n log n) time per phase and O(n)
memory for any grid_mult. The checks at the atoms read eta and eta' there
from the residual of the interpolation system, whose rows are those values:
the check builds that system from the measure, one |S| x |S| kernel
evaluation, whether the coefficients were solved or given.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import trigpoly as tp
from .budget import check_budget


class SeparationTooSmall(ValueError):
    """The atoms are too close for the interpolation system to be provably invertible."""


class SingularSystem(ArithmeticError):
    """The interpolation system could not be factorized."""


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """At least one atom tau_j in [0,1), with unit-modulus complex signs, at
    cutoff n, and their least wrap-around distance, separation (inf for one
    atom). n is stored as a Python int: an integral float or any integer but
    a bool is taken, anything else raises ValueError."""

    n: int
    atoms: np.ndarray
    signs: np.ndarray
    separation: float = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if isinstance(n, float) and n.is_integer():
            n = int(n)
        if isinstance(n, bool) or not isinstance(n, numbers.Integral):
            raise ValueError(f"cutoff n must be an integer, got {n!r}")
        object.__setattr__(self, "n", int(n))
        atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        signs = np.atleast_1d(np.asarray(self.signs, dtype=np.complex128))
        if atoms.size == 0:
            raise ValueError("atoms must be a non-empty list")
        if self.n < 1:
            raise ValueError("cutoff n must be a positive integer")
        # past 2^53 the frequencies are no longer exact float64 integers
        if self.n > 2**53:
            raise ValueError("cutoff n must not exceed 2^53")
        if atoms.shape != signs.shape or atoms.ndim != 1:
            raise ValueError("atoms and signs must be matching 1-d arrays")
        # NaN compares False, so it would slip past every range check below
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(signs))):
            raise ValueError("atom positions and signs must be finite")
        if np.any((atoms < 0) | (atoms >= 1)):
            raise ValueError("atom positions must lie in [0, 1)")
        if np.max(np.abs(np.abs(signs) - 1.0)) > 1e-12:
            raise ValueError("signs must have unit modulus")
        # min over pairs of min(d, 1 - d): rounding is monotone, so the least d
        # is a sorted neighbours' gap and the least 1 - d is at last - first
        separation = np.inf
        if atoms.size > 1:
            x = np.sort(atoms)
            d = np.append(np.diff(x), x[-1] - x[0])
            separation = float(np.min(np.minimum(d, 1.0 - d)))
            if separation <= 0:
                raise ValueError("atom positions must be pairwise distinct modulo 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "separation", separation)

    @property
    def size(self) -> int:
        return self.atoms.size


def measure_from_json(doc) -> AtomicMeasure:
    """Build a measure from {"n": int, "atoms": [{"position": p, "sign": [re, im]}]}.

    doc is the parsed document; a malformed one raises ValueError.
    """
    try:
        n = doc["n"]
        atoms = doc["atoms"]
        positions = [a["position"] for a in atoms]
        raw_signs = [a["sign"] for a in atoms]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed measure document: {exc}") from exc
    if not isinstance(atoms, list):
        raise ValueError("atoms must be a non-empty list")
    if not all(map(_is_real, positions)):
        raise ValueError("every position must be a number")
    if not all(isinstance(s, list) and len(s) == 2 and all(map(_is_real, s))
               for s in raw_signs):
        raise ValueError("every sign must be a two-element [re, im] list of numbers")
    try:
        signs = np.array([complex(re, im) for re, im in raw_signs])
        positions = np.array(positions, dtype=float)
    except OverflowError as exc:
        raise ValueError(f"a position or sign is out of range: {exc}") from exc
    return AtomicMeasure(n, positions, signs)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Certificate coefficients (a, b) for a measure, solved or given:
    eta = sum_j a_j D(. - tau_j) + b_j D'(. - tau_j)."""

    measure: AtomicMeasure
    a: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.measure.n


def _gamma(n: int) -> float:
    # sqrt of |second derivative at 0| of the centered kernel
    return float(np.sqrt(4 * np.pi**2 * n * (n + 1) / 3))


def build_system(m: AtomicMeasure):
    """Interpolation system in the scaled unknowns (a, gamma*b).

    Block form [[D0, D1/g], [-D1/g, -D2/g^2]] with g = sqrt(|D''(0)|); the
    single-atom case reduces to the identity. Right-hand side is (signs, 0).
    """
    D0, D1, D2 = tp.dirichlet_deriv(m.n, m.atoms[:, None] - m.atoms)
    g = _gamma(m.n)
    top = np.hstack([D0, D1 / g])
    bot = np.hstack([-D1 / g, -D2 / g**2])
    matrix = np.vstack([top, bot])
    rhs = np.concatenate([m.signs, np.zeros(m.size, dtype=np.complex128)])
    return matrix, rhs


def system_norm_bounds(m: AtomicMeasure) -> dict:
    """Row-sum (Gershgorin) bounds on the deviation of the system from the identity.

    Keys b0, b1, b2 bound the three kernel blocks; operator_norm bounds the
    whole system's deviation and must stay below 1 for a safe Neumann-series
    inversion argument. One atom gives 0.0 for all four: log 1 = 0 over
    an infinite separation.
    """
    logS = float(np.log(m.size))
    delta_n = m.separation * m.n
    b0 = logS / (4 * delta_n)
    b1 = np.sqrt(3) * logS / delta_n
    b2 = 9 * logS / (4 * delta_n)
    return {"b0": b0, "b1": b1, "b2": b2, "operator_norm": max(b0 + b1, b1 + b2)}


def solve_certificate(m: AtomicMeasure) -> Certificate:
    bounds = system_norm_bounds(m)
    if bounds["operator_norm"] >= 1.0:
        raise SeparationTooSmall(
            f"deviation bound {bounds['operator_norm']:.3f} >= 1 "
            f"(separation {m.separation:.4g} at n={m.n})"
        )
    matrix, rhs = build_system(m)
    try:
        sol = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularSystem("non-finite solution")
    S = m.size
    g = _gamma(m.n)
    return Certificate(measure=m, a=sol[:S], b=sol[S:] / g)


def eta_coeffs(c: Certificate) -> np.ndarray:
    """The halves k = 0..n of the Hermitian coefficient rows of Re eta and
    Im eta, stacked (2, n+1). D and D' are real, so
    Re eta = sum_j Re a_j D(. - tau_j) + Re b_j D'(. - tau_j), with
    coefficients (1/(2n+1)) sum_j (Re a_j + 2 i pi k Re b_j)
    e^{-2 i pi k tau_j}, and Im eta likewise with Im a and Im b.

    Writing k = qB + r with B = isqrt(n) + 1 and 0 <= r < B splits each
    exponential into e^{-2 i pi qB tau} e^{-2 i pi r tau}, so the four
    sums over j are one product of a (coarse x |S|) and an (|S| x fine)
    table, O(sqrt(n) |S|) exponentials in place of (n+1) |S|.
    """
    n = c.n
    tau = c.measure.atoms
    B = math.isqrt(n) + 1
    # qB tau is reduced mod 1 before the 2 pi: a rounding of the large
    # argument would shift the B coefficients of its block alike
    coarse = np.exp(-2j * np.pi * (np.outer(np.arange(-(-(n + 1) // B)) * B, tau) % 1.0))
    fine = np.exp(-2j * np.pi * np.outer(np.arange(B), tau))
    sums = np.vstack([coarse * w for w in (c.a.real, c.a.imag, c.b.real, c.b.imag)]) @ fine.T
    sa, sb = sums.reshape(2, 2, -1)[..., : n + 1]
    return (sa + 2j * np.pi * np.arange(n + 1) * sb) / (2 * n + 1)


# peak resident bytes per point of one phase of the scan, L = fast_len(2n+1):
# eta_coeffs' table product and its k-weighted copy (about 56, of which its
# (2, n+1) halves keep 16), then per phase the twiddled halves (16) and
# their step (8), the phase's two sample rows (16), squared in place and
# summed into the first, and the FFT's own buffers. Measured with getrusage
# in fresh processes (peak minus the RSS before the scan), three atoms:
# 138-151, 109-110, 85 and 84 at n = 2^12, 2^16, 2^20 and 2^21; certify at
# n = 2^21 ran in 5.6-5.7 s with 368 MB max RSS, one thread
_SCAN_BYTES_PER_L = 210


def _near_atoms(atoms: np.ndarray, n: int, L: int, m: int, r: int) -> np.ndarray:
    """The indices j of phase r, the grid points g = j m + r of G = m L,
    whose wrap-around distance g/G to some atom is at most 1/n.

    Only the j within ceil(L/n) + 2 of floor(tau L) can be that close, so
    the exact distance test runs on those windows alone, O(|S| L/n) work
    and memory per phase.
    """
    w = -(-L // n) + 2
    j = (np.floor(atoms * L).astype(np.int64)[:, None] + np.arange(-w, w + 1)) % L
    dist = np.abs((j * m + r) / (m * L) - atoms[:, None]) % 1.0
    dist = np.minimum(dist, 1.0 - dist)
    return j[dist <= 1.0 / n]


# largest atom residual max_j |eta(tau_j) - sign_j| that certified accepts:
# beyond it the solve has lost the interpolation the certificate rests on
INTERP_TOL = 1e-6


def verify_bounded(c: Certificate, grid_mult: int = 10) -> dict:
    """The certify report: check |eta| < 1 away from the atoms.

    Samples |eta| on G = grid_mult L points, L = fast_len(2n+1) (the
    5-smooth length rule of `trigpoly.fast_len`), by the grid_mult phases of
    `trigpoly.phases` on the halves of Re eta and Im eta (`eta_coeffs`),
    two inverse real FFTs of length L each, keeping per phase only the
    largest |eta|^2 = re^2 + im^2 off the atoms and its point; the square
    root is taken of the maximum only. It excludes a radius-1/n
    neighborhood of each atom (main lobe plus first sidelobe), and
    adds the crude Lipschitz slack pi*n*max|c_k|/grid_mult covering the gap
    between adjacent samples. The slack is at least max|eta'| times half
    the spacing 1/(grid_mult*(2n+1)), so it also covers the finer spacing
    1/G, G >= grid_mult*(2n+1).

    Keys: atom_count, n, separation and deviation_bound (the measure and its
    `system_norm_bounds` operator norm; separation is None for one atom,
    whose measure field is inf); interp_err and deriv_err, the
    largest |eta - sign| and |eta'| at the atoms, from the residual of
    `build_system` at (a, gamma b), whose rows are eta(tau_j) - sign_j and
    -eta'(tau_j)/gamma, built here from c's measure for solved and given
    coefficients alike;
    sup_off_atom and argmax, the grid max off the atoms and its point (None
    when no grid point is off the atoms); certified, True when grid max +
    slack < 1 and interp_err is at most INTERP_TOL.
    Raises BudgetExceeded, before allocating, when the scan would exceed the
    memory budget, _SCAN_BYTES_PER_L per point of one phase: grid_mult
    costs time, not memory.
    """
    if grid_mult < 4:
        raise ValueError("grid_mult must be at least 4")
    m, n = c.measure, c.n
    L = tp.fast_len(2 * n + 1)
    check_budget(_SCAN_BYTES_PER_L * L, f"boundedness scan at n={n}")
    re, im = halves = eta_coeffs(c)
    # eta's coefficients are re_k + i im_k at k >= 0 and conj(re_k - i im_k) at -k
    top = max(float(np.max(np.abs(re + i * im))) for i in (1j, -1j))
    slack = np.pi * n * top / grid_mult
    # the sampler holds the only reference to the halves, and drops it once
    # it has twiddled them
    samples = tp.phases(halves, grid_mult)
    del re, im, halves
    sup_sq, best = -np.inf, 0
    for r, rows in enumerate(samples):
        rows *= rows
        vals = rows[0]
        vals += rows[1]
        vals[_near_atoms(m.atoms, n, L, grid_mult, r)] = -np.inf
        j = int(vals.argmax())
        if vals[j] > sup_sq:
            sup_sq, best = float(vals[j]), j * grid_mult + r

    g = _gamma(n)
    matrix, rhs = build_system(m)
    r = np.abs(matrix @ np.concatenate([c.a, g * c.b]) - rhs)
    interp_err = float(np.max(r[: m.size]))
    report = {
        "atom_count": m.size,
        "n": n,
        "separation": m.separation if m.size > 1 else None,
        "deviation_bound": float(system_norm_bounds(m)["operator_norm"]),
        "interp_err": interp_err,
        "deriv_err": g * float(np.max(r[m.size :])),
        "sup_off_atom": None,
        "argmax": None,
        "certified": False,
    }
    if sup_sq > -np.inf:
        sup_off = math.sqrt(sup_sq)
        report.update(sup_off_atom=sup_off, argmax=best / (grid_mult * L),
                      certified=bool(sup_off + slack < 1.0 and interp_err <= INTERP_TOL))
    return report
