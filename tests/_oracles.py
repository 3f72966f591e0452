"""Independent oracles shared by the test modules.

``lambda_quadrature`` evaluates E|Z + x|**p by a 200-node Gauss-Hermite
rule, a route independent of the confluent hypergeometric identity that
``pnormtest.gaussian_moments.lambda_p`` uses.  The rule is exact for even
integer p (a polynomial integrand) and loses ~1e-5 otherwise, because of
the kink of |t + x|**p.
"""

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

_GH_NODES = 200
_gh_s, _gh_w = hermgauss(_GH_NODES)
# E f(Z) = sum_i w_i f(sqrt(2) s_i) / sqrt(pi) for the Hermite rule
_GH_T = math.sqrt(2.0) * _gh_s
_GH_W = _gh_w / math.sqrt(math.pi)


def lambda_quadrature(p: float, x: float) -> float:
    """E|Z + x|**p for standard normal Z by Gauss-Hermite quadrature."""
    return float(np.dot(_GH_W, np.abs(_GH_T + x) ** p))
