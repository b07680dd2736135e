"""exp, erf and the normal CDF, ported to numpy from Cephes (S. L. Moshier,
Methods and Programs for Mathematical Functions, 1989).

They use only + - * /, floor and ldexp, so their bits do not depend on
which SIMD kernels numpy dispatches to on the CPU, as numpy's own exp does.
The switching law (`device`) and the curved spikes (`waveforms`) both take
e**x from here, so a (config, seed) writes the same bytes on any x86 CPU.
"""
from __future__ import annotations

import math

import numpy as np

SQRT2 = math.sqrt(2.0)

# erf and erfc of Cephes ndtr.c: T/U on |x| <= 1, P/Q on 1 < |x| < 8, R/S
# beyond; the leading 1 of each denominator is implied
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # ln(2**1024); exp(-x*x) underflows past it
# exp of Cephes exp.c: e**x = e**g 2**n with |g| <= ln(2)/2, ln(2) split in two
_EXP_P = (1.26177193074810590878e-4, 3.02994407707441961300e-2, 9.99999999999999999910e-1)
_EXP_Q = (3.00198505138664455042e-6, 2.52448340349684104192e-3, 2.27265548208155028766e-1,
          2.00000000000000000009e0)
_LN2_HI, _LN2_LO = 6.93145751953125e-1, 1.42860682030941723212e-6
_LOG2E = 1.4426950408889634073599


def _polevl(x, coef):
    """coef[0] x^N + ... + coef[N], by Horner's rule in Cephes' order."""
    y = coef[0] * x + coef[1]
    for c in coef[2:]:
        y = y * x + c
    return y


def _p1evl(x, coef):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: _polevl with a leading 1."""
    y = x + coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def exp(x):
    """e**x for x <= 0, by Cephes exp.c's rational form.  Below -_MAXLOG,
    where e**x is subnormal, and at -inf it is exactly 0.0, with no numpy
    warning.  The exponents go to np.ldexp as int32, its native loop."""
    under = x < -_MAXLOG
    x = np.where(under, 0.0, x)
    n = np.floor(_LOG2E * x + 0.5)
    g = x - n * _LN2_HI
    g = g - n * _LN2_LO
    gg = g * g
    px = g * _polevl(gg, _EXP_P)
    e = np.ldexp(1.0 + 2.0 * (px / (_polevl(gg, _EXP_Q) - px)), n.astype(np.int32))
    return np.where(under, 0.0, e)


def erf(x):
    """erf of a float array, shape kept: Cephes ndtr.c's erf of |x| with the
    sign of x.  The C original takes exp(-x*x) from the C library; exp
    stands in for it, which moves erf by at most 1 ulp."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    a = np.abs(flat)
    out = a.copy()  # nan stays nan
    small = a <= 1.0
    s = a[small]
    if s.size:
        z = s * s
        out[small] = s * _polevl(z, _T) / _p1evl(z, _U)
    # 1 - erfc(a) beyond 1; erfc underflows to 0 where exp(-a*a) would
    for part, num, den in (((a > 1.0) & (a < 8.0), _P, _Q), (a >= 8.0, _R, _S)):
        s = a[part]
        if not s.size:
            continue
        z = -s * s
        live = z >= -_MAXLOG
        s, erfc = s[live], np.zeros(z.shape)
        erfc[live] = exp(z[live]) * _polevl(s, num) / _p1evl(s, den)
        out[part] = 1.0 - erfc
    return np.copysign(out, flat).reshape(x.shape)


def phi(z):
    """Standard normal CDF, accurate to ~1e-15 via erf."""
    return 0.5 * (1.0 + erf(np.asarray(z, dtype=float) / SQRT2))
