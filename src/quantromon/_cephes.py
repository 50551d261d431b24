"""The standard normal distribution: ports of SciPy 1.17.1's
``scipy.special.ndtri`` (vectorized over an array, in place) and
``scipy.special.ndtr`` (scalar, with its ``erf`` and ``erfc``), which give
SciPy's results bit for bit.

Both are the Cephes Math Library's algorithms (S. L. Moshier, "Methods and
Programs for Mathematical Functions", 1989), as SciPy evaluates them: the
same rational approximations, switch points and operation order, no fused
multiply-add. The logarithms of ``ndtri``'s tails are the C library's
``log``, as in SciPy: numpy's float64 ``log`` has its own vectorized
implementation, which differs from it on about 60 draws in a million, so
they are taken as the real part of numpy's complex ``log`` (the C library's
``clog``, whose real part is ``log(x)`` for a real ``x`` below 0.5 or
above 2, the only arguments here). ``ndtr``'s exponential is
``math.exp``, the C library's ``exp``.

Ported from SciPy (scipy/special/xsf/cephes/ndtri.h and ndtr.h), which
carries this notice:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math

import numpy as np

# ndtri: sqrt(2 pi), and exp(-2), the edge of the central approximation
_S2PI = 2.50662827463100050242E0
_EXP_M2 = 0.13533528323661269189

# approximation for 0 <= |y - 0.5| <= 3/8
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
# approximation for z = sqrt(-2 log y) between 2 and 8, i.e. y between
# exp(-2) = .135 and exp(-32) = 1.27e-14
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
# approximation for z = sqrt(-2 log y) between 8 and 64, i.e. y between
# exp(-32) = 1.27e-14 and exp(-2048) = 3.67e-890
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


# erf for |x| <= 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)
# erfc for 1 <= x < 8
_EP = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
       7.46321056442269912687E0, 4.86371970985681366614E1,
       1.96520832956077098242E2, 5.26445194995477358631E2,
       9.34528527171957607540E2, 1.02755188689515710272E3,
       5.57535335369399327526E2)
_EQ = (1.32281951154744992508E1, 8.67072140885989742329E1,
       3.54937778887819891062E2, 9.75708501743205489753E2,
       1.82390916687909736289E3, 2.24633760818710981792E3,
       1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc for x >= 8
_ER = (5.64189583547755073984E-1, 1.27536670759978104416E0,
       5.01905042251180477414E0, 6.16021097993053585195E0,
       7.40974269950448939160E0, 2.97886665372100240670E0)
_ES = (2.26052863220117276590E0, 9.39603524938001434673E0,
       1.20489539808096656605E1, 1.70814450747565897222E1,
       9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX)
_SQRT1_2 = 0.70710678118654752440  # M_SQRT1_2


def _polevl(x, coef: tuple[float, ...]):
    """Cephes ``polevl``: the polynomial with coefficients ``coef`` (highest
    degree first) at ``x``, a float or a float64 array, by Horner's rule."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef: tuple[float, ...]):
    """Cephes ``p1evl``: as :func:`_polevl` with a leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF of each element of the float64
    array ``y``, whose elements lie in (0, 1); overwrites and returns ``y``.
    ``ndtri`` of SciPy 1.17.1, bit for bit."""
    # the tails, y <= exp(-2) and its mirror y > 1 - exp(-2), as Cephes
    # splits them: there x = sqrt(-2 log y') for y' = min(y, 1 - y)
    tail = np.flatnonzero((y > 1.0 - _EXP_M2) | (y <= _EXP_M2))
    t = y[tail]
    sign = t - 0.5  # positive in the upper tail, where x keeps its sign
    c = np.minimum(t, 1.0 - t).astype(complex)
    np.log(c, out=c)
    x = np.multiply(-2.0, c.real, out=t)
    np.sqrt(x, out=x)
    c.real = x  # the imaginary parts stay 0, the phase of a positive number
    np.log(c, out=c)
    x0 = x - c.real / x
    far = np.flatnonzero(x >= 8.0)  # y' <= exp(-32) = 1.2664165549e-14
    z = np.divide(1.0, x, out=x)
    x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    if far.size:
        zf = z[far]
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x0 -= x1
    np.copysign(x0, sign, out=x0)
    # the center, 1/4 < y' (all of y, then the tails overwritten)
    y -= 0.5
    y2 = y * y
    num = _polevl(y2, _P0)
    num *= y2
    num /= _p1evl(y2, _Q0)
    num *= y
    y += num
    y *= _S2PI
    y[tail] = x0
    return y


def ndtr(a: float) -> float:
    """The standard normal CDF at ``a``: ``ndtr`` of SciPy 1.17.1, bit for
    bit, as a float."""
    a = float(a)
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        y = 0.5 + 0.5 * _erf(x)
    else:
        y = 0.5 * _erfc(z)
        if x > 0:
            y = 1.0 - y
    return y


def _erf(x: float) -> float:
    """Cephes ``erf`` for ``|x| < 1``, the only arguments here. Cephes takes
    ``-erf(-x)`` for a negative ``x``; IEEE rounding is sign-symmetric, so
    the direct form gives the same bits, -0.0 included."""
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _erfc(a: float) -> float:
    """Cephes ``erfc`` for ``a >= 1/sqrt(2)``, the only arguments here; 0
    where ``exp(-a**2)`` underflows."""
    if a < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z < -_MAXLOG:  # underflow
        return 0.0
    z = math.exp(z)
    if a < 8.0:
        p = _polevl(a, _EP)
        q = _p1evl(a, _EQ)
    else:
        p = _polevl(a, _ER)
        q = _p1evl(a, _ES)
    return (z * p) / q
