"""Interpolating dual certificates.

Given an atomic measure with unit-modulus signs, build the trigonometric
polynomial eta(theta) = sum_j a_j D(theta - tau_j) + b_j D'(theta - tau_j)
(D the centered Dirichlet kernel of cutoff n) satisfying eta(tau_j) = sign_j
and eta'(tau_j) = 0, then verify |eta| < 1 away from the atoms on a dense
grid with a Lipschitz safety margin (`verify_bounded`, whose dict is the
certify report). The grid values come from one inverse FFT of eta's 2n+1
coefficients, O(n log n); the checks at the atoms read eta and eta' there
from the residual of the solved interpolation system, whose rows are those
values, so they take no kernel evaluation beyond the system's own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import trigpoly as tp
from .budget import check_budget


class SeparationTooSmall(ValueError):
    """The atoms are too close for the interpolation system to be provably invertible."""


class SingularSystem(ArithmeticError):
    """The interpolation system could not be factorized."""


@dataclass(frozen=True)
class AtomicMeasure:
    """Atoms tau_j in [0,1) with unit-modulus complex signs, at cutoff n."""

    n: int
    atoms: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_1d(np.asarray(self.atoms, dtype=float))
        signs = np.atleast_1d(np.asarray(self.signs, dtype=np.complex128))
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
        # the empty measure is legal (the projector handles it); measure
        # documents and the certificate solver require at least one atom
        if np.any((atoms < 0) | (atoms >= 1)):
            raise ValueError("atom positions must lie in [0, 1)")
        if atoms.size and np.max(np.abs(np.abs(signs) - 1.0)) > 1e-12:
            raise ValueError("signs must have unit modulus")
        if atoms.size > 1:
            d = _pairwise_wrap_dist(atoms)
            if np.min(d) <= 0:
                raise ValueError("atom positions must be pairwise distinct modulo 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "signs", signs)

    @property
    def size(self) -> int:
        return self.atoms.size

    @property
    def separation(self) -> float:
        """Minimum wrap-around distance between atoms (inf for a single atom)."""
        if self.size < 2:
            return np.inf
        return float(np.min(_pairwise_wrap_dist(self.atoms)))


def _pairwise_wrap_dist(atoms):
    diff = np.abs(atoms[:, None] - atoms[None, :]) % 1.0
    d = np.minimum(diff, 1.0 - diff)
    return d[np.triu_indices(atoms.size, k=1)]


def measure_from_json(doc) -> AtomicMeasure:
    """Build a measure from {"n": int, "atoms": [{"position": p, "sign": [re, im]}]}.

    The atom list must be non-empty; a malformed document raises ValueError.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    try:
        n = doc["n"]
        atoms = doc["atoms"]
        positions = [a["position"] for a in atoms]
        raw_signs = [a["sign"] for a in atoms]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed measure document: {exc}") from exc
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("atoms must be a non-empty list")
    if isinstance(n, float) and n.is_integer():
        n = int(n)
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"cutoff n must be an integer, got {n!r}")
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


@dataclass(frozen=True)
class Certificate:
    """Solved certificate coefficients for a measure, with the interpolation
    system (matrix, rhs) of `build_system` they solve, which verify_bounded
    reads its atom checks from; None for coefficients given directly, whose
    check then builds the system."""

    measure: AtomicMeasure
    a: np.ndarray
    b: np.ndarray
    system: tuple | None = field(default=None, repr=False, compare=False)

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
    if m.size == 0:
        raise ValueError("need at least one atom to build the interpolation system")
    D0, D1, D2 = tp.dirichlet_deriv(m.n, m.atoms[:, None] - m.atoms)
    g = _gamma(m.n)
    top = np.hstack([D0, D1 / g])
    bot = np.hstack([-D1 / g, -D2 / g**2])
    matrix = np.vstack([top, bot]).astype(np.complex128)
    rhs = np.concatenate([m.signs, np.zeros(m.size, dtype=np.complex128)])
    return matrix, rhs


def _log_s(size: int) -> float:
    return float(np.log(size)) if size > 1 else 0.0


def system_norm_bounds(m: AtomicMeasure) -> dict:
    """Row-sum (Gershgorin) bounds on the deviation of the system from the identity.

    Keys b0, b1, b2 bound the three kernel blocks; operator_norm bounds the
    whole system's deviation and must stay below 1 for a safe Neumann-series
    inversion argument.
    """
    logS = _log_s(m.size)
    if logS == 0.0:
        return {"b0": 0.0, "b1": 0.0, "b2": 0.0, "operator_norm": 0.0}
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
    return Certificate(measure=m, a=sol[:S], b=sol[S:] / g, system=(matrix, rhs))


def eta_coeffs(c: Certificate) -> tp.TrigPoly:
    """Coefficient array of eta: c_k = (1/(2n+1)) sum_j (a_j + 2 i pi k b_j) e^{-2 i pi k tau_j}.

    Writing k = (qB - n) + r with B = ceil(sqrt(2n+1)) and 0 <= r < B splits
    each exponential into e^{-2 i pi (qB - n) tau} e^{-2 i pi r tau}, so both
    sums over j are one product of a (coarse x |S|) and an (|S| x fine)
    table, O(sqrt(n) |S|) exponentials in place of (2n+1) |S|.
    """
    n = c.n
    d = 2 * n + 1
    tau = c.measure.atoms
    B = math.isqrt(d - 1) + 1
    coarse = np.exp(-2j * np.pi * np.outer(np.arange(-(-d // B)) * B - n, tau))
    fine = np.exp(-2j * np.pi * np.outer(np.arange(B), tau))
    sa, sb = (np.vstack([coarse * c.a, coarse * c.b]) @ fine.T).reshape(2, -1)[:, :d]
    k = np.arange(-n, n + 1)
    return tp.TrigPoly(n, (sa + 2j * np.pi * k * sb) / d)


# peak resident bytes per grid point of the 5-smooth scan: 51.3..53.8
# measured with getrusage in fresh processes (peak minus the RSS before the
# scan) at n = 5*10^4..8*10^5
_SCAN_BYTES_PER_POINT = 56


def _off_atom_mask(atoms: np.ndarray, n: int, G: int) -> np.ndarray:
    """True at the grid points g/G whose wrap-around distance to every atom
    exceeds 1/n.

    Only the indices within ceil(G/n)+1 of an atom can be that close, so the
    exact distance test runs on those windows alone, O(|S| G/n) work.
    """
    r = -(-G // n) + 1
    idx = (np.floor(atoms * G).astype(np.int64)[:, None] + np.arange(-r, r + 1)) % G
    dist = np.abs(idx / G - atoms[:, None]) % 1.0
    dist = np.minimum(dist, 1.0 - dist)
    off = np.ones(G, dtype=bool)
    off[idx[dist <= 1.0 / n]] = False
    return off


# largest atom residual max_j |eta(tau_j) - sign_j| that certified accepts:
# beyond it the solve has lost the interpolation the certificate rests on
INTERP_TOL = 1e-6


def verify_bounded(c: Certificate, grid_mult: int = 10) -> dict:
    """The certify report: check |eta| < 1 away from the atoms.

    Samples |eta| on G points, grid_mult*(2n+1) rounded up to a 5-smooth
    length (`trigpoly.fast_len`), by one zero-padded inverse FFT of its
    coefficients (O(n log n), `trigpoly.eval_grid`), excludes a radius-1/n
    neighborhood of each atom (main lobe plus first sidelobe), and adds the
    crude Lipschitz slack pi*n*max|c_k|/grid_mult covering the gap between
    adjacent samples. The slack is at least max|eta'| times half the spacing
    1/(grid_mult*(2n+1)), so it also covers the finer spacing 1/G.

    Keys: atom_count, n, separation and deviation_bound (the measure and its
    `system_norm_bounds` operator norm); interp_err and deriv_err, the
    largest |eta - sign| and |eta'| at the atoms, from the residual of
    `build_system` at (a, gamma b), whose rows are eta(tau_j) - sign_j and
    -eta'(tau_j)/gamma (the system the solve formed, kept on c);
    sup_off_atom and argmax, the grid max off the atoms and its point (NaN
    when no grid point is off the atoms); certified, True when grid max +
    slack < 1 and interp_err is at most INTERP_TOL.
    Raises BudgetExceeded, before allocating, when the scan would exceed the
    memory budget.
    """
    if grid_mult < 4:
        raise ValueError("grid_mult must be at least 4")
    m, n = c.measure, c.n
    G = tp.fast_len(grid_mult * (2 * n + 1))
    check_budget(_SCAN_BYTES_PER_POINT * G,
                 f"boundedness scan at n={n}, grid_mult={grid_mult}")
    p = eta_coeffs(c)
    vals = np.abs(tp.eval_grid(p, G))
    off = _off_atom_mask(m.atoms, n, G)

    max_c = float(np.max(np.abs(p.coeffs)))
    slack = np.pi * n * max_c / grid_mult

    g = _gamma(n)
    matrix, rhs = c.system or build_system(m)
    r = np.abs(matrix @ np.concatenate([c.a, g * c.b]) - rhs)
    interp_err = float(np.max(r[: m.size]))
    report = {
        "atom_count": m.size,
        "n": n,
        "separation": m.separation,
        "deviation_bound": system_norm_bounds(m)["operator_norm"],
        "interp_err": interp_err,
        "deriv_err": g * float(np.max(r[m.size :])),
        "sup_off_atom": np.nan,
        "argmax": np.nan,
        "certified": False,
    }
    if np.any(off):
        idx = int(np.argmax(np.where(off, vals, -np.inf)))
        sup_off = float(vals[idx])
        report.update(sup_off_atom=sup_off, argmax=idx / G,
                      certified=bool(sup_off + slack < 1.0 and interp_err <= INTERP_TOL))
    return report


def neumann_bounds(m: AtomicMeasure) -> dict:
    """Measured deviations of the interpolation system from the identity, next
    to their closed-form counterparts.

    Every entry is {"measured": x, "bound": y} with x computed from the
    actual kernel matrices (induced infinity norms) and y the analytic
    row-sum bound in terms of (|S|, n, separation).
    """
    n = m.n
    S = m.size
    D0, D1, D2 = tp.dirichlet_deriv(n, m.atoms[:, None] - m.atoms)
    g = _gamma(n)
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
    dev_bound = 2 * _log_s(S) / ((2 * n + 1) * m.separation)
    nb = system_norm_bounds(m)
    return {
        "dev_UU": {"measured": dev_uu, "bound": dev_bound},
        "bound_D0": {"measured": meas_d0, "bound": nb["b0"]},
        "bound_D1": {"measured": meas_d1, "bound": nb["b1"]},
        "bound_D2": {"measured": meas_d2, "bound": nb["b2"]},
        "operator_norm": {"measured": meas_op, "bound": nb["operator_norm"]},
    }
