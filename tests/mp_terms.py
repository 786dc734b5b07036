"""The exact route's j-term at 50 digits, shared by the test modules.

It shares no part with the double kernel or with specfun: every Gamma
function and every P(a, z) comes from mpmath.
"""

from mpmath import mp


def log_term_mp(params, n, j):
    """ln of the inner k-sum of row j at size n, at 50 digits:

        sum_{k=0}^{a} C(a,k) (-r)^{a-k} n^{-k/(2b)}
            * Gamma(x + k/(2b)) / Gamma(x) * [1 + cu P(x + k/(2b), n r^{2b})],

    x = (j + alpha)/b, cu = (-1)^a e^u - 1.  Summed over j = 1..n it is
    ln E_n, and so ln D_n - ln Z_n: the prefactors of the two products and
    Gamma(x) cancel term by term.
    """
    p = params
    with mp.workdps(50):
        z = mp.mpf(n) * mp.mpf(p.r) ** (2 * mp.mpf(p.b))
        at0 = (mp.mpf(j) + mp.mpf(p.alpha)) / mp.mpf(p.b)
        cu = mp.mpf(-1 if p.a % 2 else 1) * mp.exp(mp.mpf(p.u)) - 1
        lg0 = mp.loggamma(at0)
        total = mp.mpf(0)
        for k in range(p.a + 1):
            d = mp.mpf(k) / (2 * mp.mpf(p.b))
            pk = mp.gammainc(at0 + d, 0, z, regularized=True)
            g = mp.loggamma(at0 + d) - lg0 - d * mp.log(n)
            total += mp.binomial(p.a, k) * (-mp.mpf(p.r)) ** (p.a - k) * mp.exp(g) * (
                1 + cu * pk
            )
        assert total > 0
        return float(mp.log(total))
