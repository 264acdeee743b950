"""The exact pairing sieve at every degree: an oracle for the degree-1
kernel of ``chebdyn.integrality.PairingSieve``.

One pass of the recurrence Q_d = a^d T_d(beta) in Z[y]/(g)
(``integrality._scaled_chebyshev``) gives the exact integers G_d =
Norm(2 a^d - Q_d) / a^(d(D-1)) (``integrality._norm``); math.log|G_d| and
v_p(G_d) are kept, and their Moebius sums over d | N, halved for N >= 3, are
log|F_N| and v_p(F_N). At degree 1 this is the big-integer pass that the
Lehmer-pair kernel (``lehmer_valuations``, ``lehmer_logs``) replaces; at
degree >= 2 it is the shipped sieve itself.
"""

from __future__ import annotations

import math

from chebdyn.chebyshev import moebius_sums
from chebdyn.errors import PreperiodicInputError
from chebdyn.factorint import padic_valuation
from chebdyn.integrality import _norm, _pairing_beta, _scaled_chebyshev


class ExactPairingSieve:
    """log|F_N| and v_p(F_N) for every N <= n_max from the exact G_d, with
    ``PairingSieve``'s interface."""

    def __init__(self, beta, n_max: int, primes=()):
        self.beta, f, what = _pairing_beta(beta)
        a, lift = f.leading, f.leading ** (f.degree - 1)
        monic = f.scaled_monic()
        log_g = [0.0] * (n_max + 1)
        val_g = {p: [0] * (n_max + 1) for p in primes}
        two_a_d, scale = 2, 1
        for d, q in zip(range(1, n_max + 1), _scaled_chebyshev(f)):
            two_a_d *= a
            scale *= lift
            g_d = _norm([two_a_d - q[0], *(-c for c in q[1:])], monic, scale)
            if g_d == 0:
                raise PreperiodicInputError(f"beta = {what} is a conjugate of the order-{d} orbit")
            log_g[d] = math.log(abs(g_d))
            for p, vals in val_g.items():
                if g_d % p == 0:
                    vals[d] = padic_valuation(g_d, p)
        self.factor_valuations = val_g  # {p: v_p(G_d)}, as ``lehmer_valuations`` returns them
        halves = [1, 1, 1] + [2] * (n_max - 2)
        self._log = [v / half for v, half in zip(moebius_sums(log_g, n_max), halves)]
        self._val = {p: [v // half for v, half in zip(moebius_sums(vals, n_max), halves)] for p, vals in val_g.items()}

    def log_abs(self, n: int) -> float:
        return self._log[n]

    def valuation(self, n: int, p: int) -> int:
        return self._val[p][n]
