"""Numerical toolkit for sum-of-squares dual certificates in super-resolution.

Submodules:

- trigpoly:    trigonometric polynomials, the Dirichlet kernel and derivatives,
               the FFT coefficient layout and its one length rule
- certificate: interpolating dual certificate construction and verification
- gram:        the Gram certificate: projector factor, CG correction, identity
               check and PSD proof by the symbol floor
- specfun:     the logarithmic kernel E
- qk_operator: the deviation operator in the Dirichlet basis, asymptotic
               entries, structured matvec
- spectrum:    Lanczos (ARPACK eigsh) with a-posteriori residual bounds
- constants:   the printed scalar inputs and the constants, curve and
               truncation budgets reproduced from them
- bound_audit: closed-form spot checks of the inner-integral master bounds
- budget:      the one memory budget and BudgetExceeded
- cli:         batch front-end
"""

__version__ = "0.1.0"
