"""The numpy route of the two psi_N self-checks of ``chebdyn orbit``, kept as
the test oracle of ``chebyshev.minpoly_conjugate_residuals`` and
``chebyshev.minpoly_identity_mod``.

Both functions are the library's former code, unchanged: a vectorized
residual through the symmetric form, and an int64 Horner pass reduced mod p
every few steps.
"""

from __future__ import annotations

from chebdyn.chebyshev import (
    _IDENTITY_PRIME,
    coprime_residues_half,
    cyclotomic_coeffs,
    halved_minpoly,
    symmetric_coeffs,
)


def minpoly_conjugate_residuals(n: int) -> np.ndarray:
    """|psi_n| at each conjugate, evaluated through the symmetric form.

    Writing psi_n(x) = d_0 + sum d_k T_k(x) and T_k(2 cos t) = 2 cos(k t)
    keeps every term O(1), so the residual is a faithful float measure of
    the construction instead of a catastrophic cancellation artifact.
    """
    import numpy as np

    m, dk = symmetric_coeffs(n)
    ks = sorted(k for k in dk if k)  # a fixed summation order
    es = np.array([dk[k] for k in ks], dtype=np.float64)
    a = np.array(coprime_residues_half(n), dtype=np.float64)
    vals = 2.0 * np.cos(np.outer(a, ks) * (2 * np.pi / n)) @ es
    return np.abs(vals + dk.get(0, 0))


def minpoly_identity_mod(n: int, p: int = _IDENTITY_PRIME) -> bool:
    """Check z^m psi_n(z + 1/z) == Phi_n(z) modulo p (vectorized).

    A Horner pass multiplying by (z^2 + 1) per step rebuilds the left side
    as a Laurent numerator; equality mod a 31-bit prime is a sharp
    consistency check between the monomial coefficients and the cyclotomic
    source (exact equality over Z is covered separately for moderate n).
    p must stay below 2^61 so that int64 holds a step.
    """
    import numpy as np

    if n <= 2:
        return True
    b = [x % p for x in halved_minpoly(n).coeffs]
    m = len(b) - 1
    # k steps from entries below p leave them below 2^(k+1) p, so int64 holds
    # ``lazy`` steps between reductions
    lazy = 62 - p.bit_length()
    h = np.zeros(2 * m + 1, dtype=np.int64)
    g = np.zeros_like(h)
    h[0] = b[m]
    ln = 1
    for j in range(m - 1, -1, -1):
        # g = (1 + z^2) h + b_j z^(m-j); each buffer is still zero past the
        # length it last held, so the two swap with no allocation
        np.add(h[2 : ln + 2], h[:ln], out=g[2 : ln + 2])
        g[:2] = h[:2]
        g[m - j] += b[j]
        h, g = g, h
        ln += 2
        if (m - j) % lazy == 0:
            h %= p
    h %= p
    return h.tolist() == [c % p for c in cyclotomic_coeffs(n)]
