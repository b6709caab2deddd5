"""First- and second-order Darboux (SUSY) transforms of periodic potentials.

Order one uses a nodeless seed u at factorization energy eps:

    alpha = u'/u,   V~ = 2 eps - V + 2 alpha^2,   psi~_eps ~ 1/u.

Order two uses a pair of seeds u1, u2 at eps1 != eps2 whose Wronskian
W = u1 u2' - u1' u2 is zero-free (the seeds themselves may have nodes):

    beta = -W'/W,   V~ = V + 2 beta',   psi~_eps1 ~ u2/W,  psi~_eps2 ~ u1/W.

Every derivative that enters a partner potential comes from the
Schrodinger equation or the Wronskian identity W' = (eps1 - eps2) u1 u2,
never from differencing integrated data, so the partner inherits the
integrator's accuracy.  Finite differences appear only in diagnostics,
where an independent route is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfluentTransformError,
    SeedConsistencyError,
    SingularTransformError,
)
from .numdiff import (BOUNDARY_CELLS, cell_max, derivative, local_max, second_derivative,
                      sign_changes)
from .potentials import Potential, TabulatedPotential
from .seeds import (
    KIND_GENERAL,
    RICCATI_GATE,
    SeedSolution,
)

__all__ = [
    "KernelState",
    "TransformResult",
    "susy1",
    "susy2",
    "factorization_residual",
    "apply_intertwiner",
    "write_transform_csv",
]


@dataclass(frozen=True)
class KernelState:
    """A partner eigenfunction annihilated by B, sampled on the window grid."""

    epsilon: float
    psi: np.ndarray
    l2_estimate: float
    normalizable: bool
    decay_rate: float | None
    expected_decay_rate: float | None


@dataclass(frozen=True)
class TransformResult:
    """A partner potential with its intertwining data and diagnostics."""

    order: int
    initial: Potential
    partner: Potential
    x: np.ndarray
    v_values: np.ndarray
    partner_values: np.ndarray
    intertwiner: np.ndarray  # alpha (order 1) or beta (order 2) on the grid
    gamma: np.ndarray | None
    kernel: tuple[KernelState, ...]
    seeds: tuple[SeedSolution, ...]
    periodic: bool
    diagnostics: dict


def _decay_rate(psi, period, spp):
    """Fitted e-folding rate of |psi| toward the window ends.

    Uses per-period peak magnitudes (insensitive to the oscillation inside
    each cell).  Only the outermost cell pair on each flank enters the fit:
    the defect peak can sit off-center and its subleading corrections decay
    slowly, so inner ratios are systematically biased toward zero.
    """
    peaks = np.maximum(cell_max(np.abs(psi), spp), 1e-300)
    cells = peaks.size
    c_star = int(np.argmax(peaks))
    rates = []
    if c_star >= 3:
        rates.append(math.log(peaks[1] / peaks[0]))
    if c_star <= cells - 4:
        rates.append(math.log(peaks[cells - 2] / peaks[cells - 1]))
    if not rates:
        return None
    return float(np.mean(rates)) / period


def _kernel_state(seed, psi_raw, epsilon, seed_exponents, denom_exponents):
    """Normalize a kernel-state sample on seed's window and settle its
    normalizability.

    The flag follows the multiplier bookkeeping: psi~ = numerator / denominator
    decays at an end iff the denominator's dominant growth strictly exceeds
    the numerator's there.
    """
    scale = np.max(np.abs(psi_raw))
    psi = psi_raw / scale if scale > 0 else psi_raw
    num_plus, num_minus = seed_exponents
    den_plus, den_minus = denom_exponents
    rate_plus = den_plus - num_plus
    rate_minus = den_minus - num_minus
    normalizable = rate_plus > 1e-12 and rate_minus > 1e-12
    h = seed.x[1] - seed.x[0]
    l2 = float(np.sqrt(np.sum(psi * psi) * h))
    decay = _decay_rate(psi, seed.period, seed.samples_per_period) if normalizable else None
    expected = 0.5 * (rate_plus + rate_minus) if normalizable else None
    return KernelState(
        epsilon=float(epsilon),
        psi=psi,
        l2_estimate=l2,
        normalizable=bool(normalizable),
        decay_rate=decay,
        expected_decay_rate=expected,
    )


def _asymptotic_period_residual(values, spp):
    """max |V~(x + T) - V~(x)| over the outermost period at each window end."""
    if values.size - 1 < 3 * spp:
        return math.nan
    left = np.max(np.abs(values[spp : 2 * spp] - values[:spp]))
    right = np.max(np.abs(values[-spp:] - values[-2 * spp : -spp]))
    return float(max(left, right))


def _tail(seed):
    """(u, u') on the one-period grid of the fastest-growing branch that seed
    holds with a nonzero coefficient: a Bloch seed itself, the pointwise
    limit of a general one at +infinity (no displacement needed)."""
    return max((b for c, b in seed.branches if c), key=lambda b: b.growth_rate).tiled(0, 1)


def _result(v, seeds, values, intertwiner, gamma, kernel, one_period, diagnostics):
    """The transform of v from seeds, with the partner as a table.

    The partner is periodic iff every seed is a Bloch seed.  ``one_period(xs)``
    gives it on the one-period grid xs from the seeds' ``_tail``s.  A periodic
    partner is that one-period table; any other is the window table
    ``values`` with that tail on both sides, so left of the window it is off
    by ``tail_mismatch_minus`` (0.99 on fig3a, 2.03 on fig3d).  The
    asymptotic-period residual of ``values`` and the closure or tail
    mismatches go into ``diagnostics``.
    """
    seed = seeds[0]
    x = seed.x
    period = seed.period
    spp = seed.samples_per_period
    periodic = all(s.kind != KIND_GENERAL for s in seeds)
    diagnostics["asymptotic_period_residual"] = _asymptotic_period_residual(values, spp)
    vals = one_period(np.linspace(0.0, period, spp + 1))
    partner = table = TabulatedPotential(0.0, period / spp, vals, period)
    if periodic:
        diagnostics["periodic_closure_mismatch"] = float(abs(vals[-1] - vals[0]))
    else:
        diagnostics["tail_mismatch_plus"] = float(np.max(np.abs(values[-spp:] - table(x[-spp:]))))
        diagnostics["tail_mismatch_minus"] = float(np.max(np.abs(values[:spp] - table(x[:spp]))))
        partner = TabulatedPotential(x[0], (x[-1] - x[0]) / (x.size - 1), values, period,
                                     tail=table)
    return TransformResult(
        order=len(seeds),
        initial=v,
        partner=partner,
        x=x,
        v_values=seed.v_values,
        partner_values=values,
        intertwiner=intertwiner,
        gamma=gamma,
        kernel=kernel,
        seeds=tuple(seeds),
        periodic=periodic,
        diagnostics=diagnostics,
    )


def _check_riccati(seed: SeedSolution):
    if seed.riccati_residual > RICCATI_GATE:
        raise SeedConsistencyError(
            f"seed at epsilon = {seed.epsilon:.6g} fails its Riccati gate",
            seed.riccati_residual,
        )


def susy1(v: Potential, seed: SeedSolution) -> TransformResult:
    """First-order transform from a nodeless seed.

    The partner is V~ = 2 eps - V + 2 alpha^2 (the Riccati equation folds
    the alpha' of the log-derivative form back into known quantities).
    Bloch seeds give a strictly periodic partner, emitted as a one-period
    table; general seeds give an asymptotically periodic window whose tail
    is the partner of the dominant growing Bloch branch.
    """
    if seed.nodes:
        raise SingularTransformError(
            f"seed at epsilon = {seed.epsilon:.6g} has nodes in the window",
            seed.nodes,
        )
    _check_riccati(seed)

    eps = seed.epsilon
    alpha = seed.u_prime / seed.u
    partner_values = 2.0 * eps - seed.v_values + 2.0 * alpha * alpha

    def one_period(xs):
        u, up = _tail(seed)
        a = up / u
        return 2.0 * eps - np.asarray(v(xs), dtype=float) + 2.0 * a * a

    diagnostics = {
        "min_abs_u": float(np.min(np.abs(seed.u))),
        "riccati_residual": seed.riccati_residual,
    }
    kernel = _kernel_state(seed, 1.0 / seed.u, eps, (0.0, 0.0), seed.growth_exponents)
    return _result(v, (seed,), partner_values, alpha, None, (kernel,), one_period, diagnostics)


def _wronskian(u1, up1, u2, up2, de):
    """W = u1 u2' - u1' u2 and beta' = -(W'/W)' with W' = de u1 u2, de = eps1 - eps2."""
    w = u1 * up2 - up1 * u2
    q = u1 * u2 / w  # divided before squaring, so |W| > 1e154 does not overflow
    return w, -de * ((up1 * u2 + u1 * up2) / w - de * q * q)


def susy2(v: Potential, seed1: SeedSolution, seed2: SeedSolution) -> TransformResult:
    """Second-order transform from two seeds with a zero-free Wronskian.

    Everything is closed-form in the sampled seeds:

        W' = (eps1 - eps2) u1 u2
        beta = -W'/W
        beta' = -(eps1-eps2) [ (u1' u2 + u1 u2') W - (eps1-eps2) u1^2 u2^2 ] / W^2
        gamma = beta^2/2 - beta'/2 - V + (eps1+eps2)/2
    """
    if seed1.epsilon == seed2.epsilon:
        raise ConfluentTransformError(
            "second-order transform needs distinct factorization energies"
        )
    if len(seed1.x) != len(seed2.x) or abs(seed1.x[0] - seed2.x[0]) > 1e-12:
        raise ValueError("seeds must share the same window grid")
    _check_riccati(seed1)
    _check_riccati(seed2)

    x = seed1.x
    spp = seed1.samples_per_period
    de = seed1.epsilon - seed2.epsilon
    w, beta_prime = _wronskian(seed1.u, seed1.u_prime, seed2.u, seed2.u_prime, de)
    wp = de * seed1.u * seed2.u

    # zero-freeness against a per-period local scale
    local = local_max(np.abs(w), spp)
    sign_flips = np.nonzero(sign_changes(w))[0]
    if sign_flips.size or np.any(np.abs(w) < 1e-12 * local):
        zeros = [0.5 * (x[i] + x[i + 1]) for i in sign_flips]
        raise SingularTransformError(
            "Wronskian vanishes inside the window", zeros
        )

    v_values = seed1.v_values
    beta = -wp / w
    partner_values = v_values + 2.0 * beta_prime
    gamma = 0.5 * beta * beta - 0.5 * beta_prime - v_values + 0.5 * (
        seed1.epsilon + seed2.epsilon
    )

    # independent-route diagnostics
    h = x[1] - x[0]
    wp_fd = derivative(w, h)
    interior = slice(BOUNDARY_CELLS, -BOUNDARY_CELLS)
    wp_scale = np.max(np.abs(wp))
    wprime_identity = float(
        np.max(np.abs(wp_fd[interior] - wp[interior])) / wp_scale
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha1 = seed1.u_prime / seed1.u
        alpha2 = seed2.u_prime / seed2.u
        dalpha = alpha1 - alpha2
        beta_from_alpha = np.where(np.abs(dalpha) > 1e-6, de / dalpha, np.nan)
    mask = np.isfinite(beta_from_alpha)
    beta_consistency = float(np.max(np.abs(beta_from_alpha[mask] - beta[mask])))

    diagnostics = {
        "min_abs_w": float(np.min(np.abs(w) / local)),
        "wprime_identity_residual": wprime_identity,
        "beta_consistency_residual": beta_consistency,
    }

    def one_period(xs):
        _, bp = _wronskian(*_tail(seed1), *_tail(seed2), de)
        return np.asarray(v(xs), dtype=float) + 2.0 * bp

    # W is bilinear in the branches, so its dominant growth toward each end
    # is the sum of the seeds' dominant growths there
    w_exponents = tuple(
        a + b for a, b in zip(seed1.growth_exponents, seed2.growth_exponents)
    )
    kernel = (
        _kernel_state(seed1, seed2.u / w, seed1.epsilon, seed2.growth_exponents, w_exponents),
        _kernel_state(seed1, seed1.u / w, seed2.epsilon, seed1.growth_exponents, w_exponents),
    )
    return _result(v, (seed1, seed2), partner_values, beta, gamma, kernel, one_period,
                   diagnostics)


def factorization_residual(v: Potential, result: TransformResult) -> float:
    """Operator-level factorization check on two Gaussians, one at x = 0 and
    one at 0.35 of the right window end, each a tenth of the window wide.

    Order 1: compares B B^dag + eps against H and B^dag B + eps against the
    partner Hamiltonian, applying the first-order factors as two separate
    finite-difference passes.  Order 2: compares B^dag B against
    (H~ - eps1)(H~ - eps2).  All derivatives are high-order finite
    differences on the sample grid, which makes this an independent route
    through the data rather than an algebraic identity.
    """
    x = result.x
    h = x[1] - x[0]
    fs = [np.exp(-(((x - c) / (0.1 * (x[-1] - x[0]))) ** 2)) for c in (0.0, 0.35 * x[-1])]
    interior = slice(8, -8)
    v_vals = result.v_values
    vt_vals = result.partner_values
    a = result.intertwiner  # alpha (order 1) or beta (order 2)
    gamma = result.gamma
    beta_prime = 0.5 * (vt_vals - v_vals)
    e1 = result.seeds[0].epsilon
    e2 = result.seeds[-1].epsilon
    worst = 0.0
    for f in fs:
        if result.order == 1:
            bdag_f = -derivative(f, h) + a * f
            bbdag_f = derivative(bdag_f, h) + a * bdag_f
            b_f = derivative(f, h) + a * f
            bdagb_f = -derivative(b_f, h) + a * b_f
            rs = ((bbdag_f + e1 * f) - (-second_derivative(f, h) + v_vals * f),
                  (bdagb_f + e1 * f) - (-second_derivative(f, h) + vt_vals * f))
        else:
            # B = (B^dag)^adjoint = d^2 - beta d + (gamma - beta')
            b_f = second_derivative(f, h) - a * derivative(f, h) + (gamma - beta_prime) * f
            bdagb_f = second_derivative(b_f, h) + a * derivative(b_f, h) + gamma * b_f
            g = -second_derivative(f, h) + (vt_vals - e2) * f
            rs = (bdagb_f - (-second_derivative(g, h) + (vt_vals - e1) * g),)
        norm = np.max(np.abs(f))
        worst = max(worst, *(float(np.max(np.abs(r[interior])) / norm) for r in rs))
    return worst


def apply_intertwiner(result: TransformResult, seed: SeedSolution):
    """Push an eigenfunction of H through B^dag and check the partner equation.

    `seed` is any solution of the initial equation at its energy (typically
    a band-edge eigenfunction, not in the kernel).  The image is formed with
    closed-form derivatives; the residual
    max | -phi'' + (V~ - E) phi | / max |phi| uses finite differences for
    phi'', so it genuinely tests the intertwining property of the numbers.
    """
    x = result.x
    h = x[1] - x[0]
    energy = seed.epsilon
    u, up = seed.u, seed.u_prime
    if result.order == 1:
        alpha = result.intertwiner
        phi = -up + alpha * u
    else:
        beta = result.intertwiner
        gamma = result.gamma
        upp = (result.v_values - energy) * u
        phi = upp + beta * up + gamma * u
    scale = np.max(np.abs(phi))
    residual = -second_derivative(phi, h) + (result.partner_values - energy) * phi
    interior = slice(8, -8)
    return phi, float(np.max(np.abs(residual[interior])) / scale)


def write_transform_csv(stream, result: TransformResult):
    """CSV columns: x, V, V_partner, beta_or_alpha, psi_kernel_1, psi_kernel_2
    (12 significant digits); a kernel column the result lacks stays empty."""
    # imported on the first write: `bands` and the analysis calls never build its tables
    from ._csvtext import write_table

    kernel = [state.psi for state in result.kernel[:2]]
    cols = [result.x, result.v_values, result.partner_values, result.intertwiner, *kernel]
    empty = np.arange(6) >= len(cols)
    cols += [np.broadcast_to(0.0, result.x.shape)] * (6 - len(cols))
    write_table(stream, "x,V,V_partner,beta_or_alpha,psi_kernel_1,psi_kernel_2", cols,
                blank=lambda block: empty)
