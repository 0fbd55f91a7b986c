"""Canned reproducible experiment scenarios; ``cli`` writes their results."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .density import a_limit, density_profile, multiplicative_density
from .errors import BoundsExceedX
from .families import AFamily, NormIntervalFamily, PrimePowerFamily
from .fields import NumberField
from .zeta import dedekind_zeta

#: Default tolerances: natural densities converge ~ X^(-1/d), logarithmic
#: ratios only at 1/log x speed.
NATURAL_TOL = 1e-2
LOG_TOL = 5e-2


@dataclass(frozen=True)
class ExperimentResult:
    """Result tables of one scenario, built whole by its experiment: the
    rows, the summary of the final values and the verdict on them."""

    name: str
    params: dict
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict
    verdict: bool

    def summary_document(self) -> dict:
        return {"scenario": self.name, "parameters": self.params,
                "summary": self.summary, "verdict": self.verdict}


def primepower_free_experiment(K: NumberField, l: int, X: int,
                               n_samples: int = 24) -> ExperimentResult:
    """Density of l-th-power-free ideals against the truncated zeta target."""
    if l < 2:
        raise ValueError("l must be >= 2")
    if X < 10**4:
        raise ValueError("X must be >= 10^4")
    family = PrimePowerFamily(field=K, l=l, truncation=X)
    m_report = density_profile(family, X=X, n_samples=n_samples)
    v_report = m_report.complement()
    zeta_value, zeta_tail = dedekind_zeta(K, float(l), X)
    target = 1.0 / zeta_value
    columns, rows = v_report.table()        # rows[i][3]: the natural ratio
    final_nat = float(v_report.natural_ratios[-1])
    final_log = v_report.log_ratios[-1]
    return ExperimentResult(
        name="primepower-free",
        params={"field": K.label(), "l": l, "max_norm": X,
                "zeta_truncated": zeta_value, "zeta_tail_bound": zeta_tail,
                "natural_tol": NATURAL_TOL, "log_tol": LOG_TOL},
        columns=("x", "free_count", *columns[2:], "target", "deviation",
                 "tolerance"),
        rows=[row + (target, abs(row[3] - target), NATURAL_TOL)
              for row in rows],
        summary={"measured_natural": final_nat, "measured_log": final_log,
                 "target": target,
                 "natural_deviation": abs(final_nat - target),
                 "log_deviation": abs(final_log - target)},
        verdict=(abs(final_nat - target) <= NATURAL_TOL
                 and abs(final_log - target) <= LOG_TOL))


def main_theorem_experiment(A: AFamily, X: int = 10**6, k_max: int = 8,
                            r_max: int = 8,
                            n_samples: int = 24) -> ExperimentResult:
    """Compare the three quantities the limit theorem equates.

    Reports the finite-family sequence A_r, the multiplicative densities
    B_k, and the measured logarithmic ratio of M_A, with their pairwise
    deviations.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    K = A.field
    a_seq = a_limit(A, r_max)
    b_states = [multiplicative_density(A, k) for k in range(1, k_max + 1)]
    report = density_profile(A, X=X, n_samples=n_samples)
    a_final = float(a_seq[-1]) if a_seq else 0.0    # no member: M_A empty
    b_final = float(b_states[-1].b_k)
    log_final = report.log_ratios[-1]
    return ExperimentResult(
        name="main-theorem",
        params={"field": K.label(), "family": A.kind, "max_norm": X,
                "k_max": k_max, "r_max": r_max,
                "natural_tol": NATURAL_TOL, "log_tol": LOG_TOL},
        columns=("index", "a_r", "b_k", "log_ratio_x", "log_ratio"),
        rows=[(i, *row) for i, row in enumerate(zip_longest(
            map(float, a_seq), (float(s.b_k) for s in b_states),
            report.sample_points, report.log_ratios, fillvalue=""), start=1)],
        summary={"a_r_final": a_final, "b_k_final": b_final,
                 "log_ratio_final": log_final,
                 "a_vs_b": abs(a_final - b_final),
                 "log_vs_a": abs(log_final - a_final)},
        verdict=(abs(a_final - b_final) <= NATURAL_TOL
                 and abs(log_final - a_final) <= LOG_TOL))


def besicovitch_intervals(T0: int, growth: int, depth: int,
                          X: int) -> list[tuple[int, int]]:
    """Rapidly growing norm intervals (T, 2T], T -> T^growth, clipped at X."""
    if T0 > X:
        raise BoundsExceedX(f"T0={T0} exceeds the enumeration bound {X}")
    intervals = []
    T = T0
    for _ in range(depth):
        if T > X:
            break
        intervals.append((T, 2 * T))
        if T >= 2 and growth >= X.bit_length():
            break                   # T^growth >= 2^growth > X: not built
        T = T ** growth
    return intervals


def besicovitch_experiment(K: NumberField, T0: int = 10, growth: int = 3,
                           depth: int = 3, X: int = 10**6,
                           n_samples: int = 40) -> ExperimentResult:
    """Oscillating natural ratio versus stable logarithmic ratio.

    Uses a union of rapidly growing norm intervals; the natural ratio of
    M_A oscillates across the sample window while the logarithmic ratio
    varies much less.
    """
    if T0 < 4 or growth < 3 or depth < 1:
        raise ValueError("need T0 >= 4, growth >= 3, depth >= 1")
    intervals = besicovitch_intervals(T0, growth, depth, X)
    family = NormIntervalFamily(field=K, intervals=tuple(intervals),
                                truncation=X)
    report = density_profile(family, X=X, n_samples=n_samples)
    oscillation = float(report.d_upper) - float(report.d_lower)
    log_variation = report.delta_upper - report.delta_lower
    columns, rows = report.table()
    return ExperimentResult(
        name="besicovitch",
        params={"field": K.label(), "T0": T0, "growth": growth,
                "depth": depth, "max_norm": X,
                "intervals": intervals, "oscillation_threshold": 0.01},
        columns=columns, rows=rows,
        summary={"natural_oscillation": oscillation,
                 "log_variation": log_variation,
                 "oscillation_flag": oscillation >= 0.01},
        verdict=oscillation >= 0.01 and log_variation < oscillation)
