"""A scalar reference for the one p-value kernel, one test on one profile.

Each function evaluates a test the plain way: Python ints summed from
the sparse multiplicities, and math's float operations in the order the
documented formulas give them. It takes only the bound formulas and the
family table from the package, so the differential tests hold the
kernel's reads, zero rule, tail choice, c_n charge, clamp and notes to
code that shares none of them.
"""

from __future__ import annotations

import math

from iidtest.counts import CountProfile
from iidtest.invariants import (
    FAMILIES,
    Mode,
    PValueMethod,
    TestKind,
    TestOptions,
    TestResult,
    VarianceSource,
    bound_mean,
    theoretical_variance,
)
from iidtest.numerics import log_cn, log_normal_sf

TINY_P = math.ulp(0.0)


def included_k(odd, ks, n, mode):
    # even counts all even k >= 2; odd skips k = 1; multinomial mode also drops k = n
    out = []
    for k in ks:
        if k % 2 != odd or k == 1:
            continue
        if mode is Mode.MULTINOMIAL and k == n:
            continue
        out.append(k)
    return out


def check_options(kind: TestKind, opts: TestOptions) -> VarianceSource:
    weights = FAMILIES[kind.family].weights
    bernstein = opts.pvalue_method is PValueMethod.BERNSTEIN
    if bernstein and weights is None:
        raise ValueError(f"bernstein tail not available for {kind.family}")
    src = opts.variance_source
    if src is VarianceSource.AUTO:
        src = VarianceSource.THEORETICAL if kind.family == "count" else VarianceSource.EMPIRICAL
    elif src is VarianceSource.THEORETICAL and weights is None:
        raise ValueError(f"{kind.family} has no theoretical variance bound; use empirical")
    if bernstein and src is not VarianceSource.THEORETICAL:
        raise ValueError("bernstein tail requires the theoretical variance bound")
    return src


def statistic(kind: TestKind, profile: CountProfile, mode: Mode = Mode.POISSON) -> float:
    m = profile.multiplicities
    k = kind.k
    fam = kind.family
    weights = FAMILIES[fam].weights
    if weights is not None:
        return float(sum(w * m.get(k + off, 0) for off, w in weights.items()))
    if k is None:
        return float(sum(j * m[j] for j in included_k(fam == "odd", m, profile.n, mode)))
    mk = (m.get(k - 1, 0), m.get(k, 0), m.get(k + 1, 0))
    if min(mk) == 0:
        raise ValueError(f"logcurv:{k} undefined: m_{k-1}, m_{k}, m_{k+1} = {mk} contain a zero")
    return 2.0 * math.log(mk[1]) - math.log(mk[0]) - math.log(mk[2])


def bound_variance(kind: TestKind, profile: CountProfile, opts: TestOptions | None = None) -> float:
    opts = opts or TestOptions()
    src = check_options(kind, opts)
    m = profile.m
    n = profile.n
    k = kind.k
    if src is VarianceSource.THEORETICAL:
        return theoretical_variance(kind, n, opts.mode)
    weights = FAMILIES[kind.family].weights
    if weights is not None:
        return float(sum(w * w * m(k + off) for off, w in weights.items()))
    if k is None:
        ks = included_k(kind.family == "odd", profile.multiplicities, n, opts.mode)
        return float(sum(j * j * profile.multiplicities[j] for j in ks))
    triple = (m(k - 1), m(k), m(k + 1))
    if min(triple) == 0:
        raise ValueError(f"logcurv:{k} variance undefined: multiplicities {triple} contain a zero")
    return n * n * (1.0 / triple[0] + 4.0 / triple[1] + 1.0 / triple[2])


def clamp_p(log_p: float) -> float:
    p = min(1.0, math.exp(log_p))
    return p if p > 0.0 else TINY_P


def gaussian(statistic, tau_ub, v_ub, n, cn_correction):
    z = (statistic - tau_ub) / math.sqrt(v_ub)
    if z <= 0.0:
        return 0.0, 1.0
    log_p = log_normal_sf(z)
    if cn_correction:
        log_p = min(0.0, log_p + log_cn(n))
    return log_p, clamp_p(log_p)


def bernstein(statistic, tau_ub, v_ub_det, b):
    gap = statistic - tau_ub
    log_p = -gap * gap / 2.0 / (v_ub_det + b * gap / 3.0)
    return log_p, clamp_p(log_p)


def not_applicable(kind, n, tau, notes):
    nan = math.nan
    return TestResult(kind, n, nan, tau, nan, nan, 0.0, 1.0, applicable=False, notes=notes)


def describe(opts: TestOptions, src: VarianceSource) -> str:
    bits = [f"{opts.mode.value} bounds", f"{src.value} variance"]
    if opts.cn_correction:
        bits.append("c_n corrected")
    if opts.pvalue_method is PValueMethod.BERNSTEIN:
        bits.append("bernstein tail")
    return ", ".join(bits)


def run_logcurv(kind, profile, opts, notes):
    k = kind.k
    n = profile.n
    tau = bound_mean(kind, n, opts.mode)
    center = profile.m(k)
    left, right = profile.m(k - 1), profile.m(k + 1)
    if center == 0:
        return not_applicable(kind, n, tau, f"m_{k} = 0; " + notes)
    if left == 0 and right == 0:
        return TestResult(
            kind, n, math.inf, tau, math.inf, math.inf, -math.inf, TINY_P,
            applicable=True,
            notes=f"m_{k-1} = m_{k+1} = 0 with m_{k} > 0, statistic at upper limit; " + notes,
        )
    if left == 0 or right == 0:
        which = k - 1 if left == 0 else k + 1
        return not_applicable(kind, n, tau, f"m_{which} = 0; " + notes)
    stat = statistic(kind, profile, opts.mode)
    var = 1.0 / left + 4.0 / center + 1.0 / right
    z = (stat - tau) / math.sqrt(var)
    log_p, p = gaussian(stat, tau, var, n, opts.cn_correction)
    return TestResult(kind, n, stat, tau, n * n * var, z, log_p, p, applicable=True, notes=notes)


def run_test(kind: TestKind, profile: CountProfile, opts: TestOptions | None = None) -> TestResult:
    opts = opts or TestOptions()
    src = check_options(kind, opts)
    n = profile.n
    if n < 2:
        return not_applicable(kind, n, math.nan, "sample too small (n < 2)")
    notes = describe(opts, src)
    if kind.family == "logcurv":
        return run_logcurv(kind, profile, opts, notes)
    stat = statistic(kind, profile, opts.mode)
    tau = bound_mean(kind, n, opts.mode)
    v_ub = bound_variance(kind, profile, opts)
    if v_ub > 0.0:
        z = (stat - tau) / math.sqrt(v_ub)
    else:
        z = 0.0 if stat <= tau else math.inf
    if stat <= tau or not z > 0.0:
        log_p, p = 0.0, 1.0
    elif opts.pvalue_method is PValueMethod.BERNSTEIN:
        b = max(abs(w) for w in FAMILIES[kind.family].weights.values())
        log_p, p = bernstein(stat, tau, v_ub, b)
    else:
        log_p, p = gaussian(stat, tau, v_ub, n, opts.cn_correction)
    return TestResult(kind, n, stat, tau, v_ub, z, log_p, p, applicable=True, notes=notes)
