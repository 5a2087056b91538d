"""Monte Carlo risk harness: grids, rate envelopes, CSV/SVG reporting.

Risks compare the estimate Phat against the truth at one of two levels,
chosen by the config's ``level``:

* ``matrix`` (default) — entrywise comparison to Theta:
  ``frobenius`` = ||Phat - Theta||_F / n, ``l1`` = ||Phat - Theta||_1 / n^2,
  ``cut`` = heuristic cut norm of (Phat - Theta), ``l2`` an alias of
  ``frobenius``.
* ``graphon`` — Phat is lifted to an n-step equal-weight graphon (for the
  adjacency estimator this is exactly the empirical graphon) and compared
  to the scaled truth with a permutation-search distance upper bound;
  ``restarts=0`` keeps only the deterministic alignment candidates.
  ``frobenius`` stays a matrix quantity.

The model behind every grid cell is a fixed banded two-value kernel
(contrast 0.8, equal weights); k=1 degenerates to the constant 1/2.
"""

from __future__ import annotations

import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import StepGraphon
from .cutnorm import matrix_cut_norm_heuristic
from .distance import delta_upper
from .errors import ValidationError
from .estimate import (
    SvtConfig,
    estimate_adjacency,
    estimate_mean,
    estimate_restricted_ls,
    estimate_svt,
    fit_to_prob_matrix,
)
from .sampling import ModelSpec, sample_graph

ESTIMATORS = ("adjacency", "mean", "svt", "rls")
METRICS = ("cut", "l1", "l2", "frobenius")

def _theory_regime(metric: str, level: str) -> str:
    if metric == "cut":
        return "Cut"
    if metric == "l1":
        return "L1"
    if metric == "frobenius":
        return "Frobenius"
    return "L2graphon" if level == "graphon" else "Frobenius"

CSV_HEADER = "n,k,rho,estimator,metric,mean_risk,stderr,reps,theory"


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    ns: Tuple[int, ...]
    ks: Tuple[int, ...]
    rhos: Tuple[float, ...]
    estimators: Tuple[str, ...] = ("adjacency",)
    metrics: Tuple[str, ...] = ("cut",)
    reps: int = 10
    seed: int = 0
    level: str = "matrix"        # comparison level: matrix | graphon
    restarts: int = 0            # permutation-search restarts for graphon metrics
    outdir: str = "."

    def __post_init__(self):
        if self.level not in ("matrix", "graphon"):
            raise ValidationError(f"level must be matrix or graphon, got {self.level!r}")
        if not self.ns or not self.ks or not self.rhos:
            raise ValidationError("grids over n, k and rho must be non-empty")
        if any(n < 2 for n in self.ns):
            raise ValidationError("every n must be >= 2")
        if any(k < 1 for k in self.ks):
            raise ValidationError("every k must be >= 1")
        if any(not (0.0 < r <= 1.0) for r in self.rhos):
            raise ValidationError("every rho must lie in (0, 1]")
        if self.reps < 1:
            raise ValidationError("reps must be >= 1")
        if self.restarts < 0:
            raise ValidationError("restarts must be >= 0")
        bad = set(self.estimators) - set(ESTIMATORS)
        if bad or not self.estimators:
            raise ValidationError(f"unknown estimators {sorted(bad)}; "
                                  f"choose from {ESTIMATORS}")
        bad = set(self.metrics) - set(METRICS)
        if bad or not self.metrics:
            raise ValidationError(f"unknown metrics {sorted(bad)}; "
                                  f"choose from {METRICS}")


_INT_KEYS = {"reps", "seed", "restarts"}
_STR_KEYS = {"outdir", "level"}


def parse_config(text: str) -> ExperimentConfig:
    """Plain key=value lines; grid keys repeat, one value per line."""
    grids = {"n": [], "k": [], "rho": [], "estimator": [], "metric": []}
    scalars = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ValidationError(f"config line {lineno}: expected key=value, got {raw!r}")
        if key in grids:
            grids[key].append(val)
        elif key in _INT_KEYS or key in _STR_KEYS:
            if key in scalars:
                raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
            scalars[key] = val
        else:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
    try:
        ns = tuple(int(v) for v in grids["n"])
        ks = tuple(int(v) for v in grids["k"])
        rhos = tuple(float(v) for v in grids["rho"])
        ints = {k: int(v) for k, v in scalars.items() if k in _INT_KEYS}
    except ValueError as e:
        raise ValidationError(f"bad numeric value in config: {e}") from None
    kwargs = dict(ns=ns, ks=ks, rhos=rhos, **ints)
    if grids["estimator"]:
        kwargs["estimators"] = tuple(grids["estimator"])
    if grids["metric"]:
        kwargs["metrics"] = tuple(grids["metric"])
    for key in _STR_KEYS:
        if key in scalars:
            kwargs[key] = scalars[key]
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# theory envelopes


def rate_formula(regime: str, n: int, k: int, rho: float) -> float:
    """Shape-reference envelope for the given regime with unit constants.

    Natural logarithms throughout; every regime is capped by rho (the
    risk of estimating by zero).  Constants are unknown, so these are
    curves to plot against, not bounds.
    """
    if n < 2 or k < 1 or not (0.0 < rho <= 1.0):
        raise ValidationError(f"need n >= 2, k >= 1, rho in (0, 1], "
                              f"got n={n}, k={k}, rho={rho}")
    if k == 1:
        return min(math.sqrt(rho) / n, rho)
    logk = math.log(k)
    logn = math.log(n)
    if regime == "Cut":
        main = rho * min(math.sqrt(k / (n * logk)), 1.0 / math.sqrt(logn))
        return min(main + math.sqrt(rho / n), rho)
    if regime in ("Frobenius", "L1"):
        return min(math.sqrt(rho * logk / n) + math.sqrt(rho) * k / n, rho)
    if regime == "L2graphon":
        return min(math.sqrt(rho) * k / n + math.sqrt(rho * logk / n)
                   + rho * (k / n) ** 0.25, rho)
    if regime == "L1graphon":
        return min(rho * math.sqrt(k / n) + math.sqrt(rho) * k / n
                   + math.sqrt(rho * logk / n), rho)
    raise ValidationError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# the harness


@dataclass(frozen=True)
class RiskRow:
    n: int
    k: int
    rho: float
    estimator: str
    metric: str
    mean_risk: float
    stderr: float
    reps: int
    theory: float


@dataclass(frozen=True)
class RiskReport:
    rows: Tuple[RiskRow, ...]
    failures: Tuple[str, ...] = ()
    config: Optional[ExperimentConfig] = None


def default_model(k: int, rho: float = 1.0) -> ModelSpec:
    """Fixed banded two-value kernel; the harness model for every cell."""
    if k == 1:
        return ModelSpec(StepGraphon(np.array([[0.5]]), np.array([1.0])), rho)
    a = np.arange(k)
    band = np.abs(a[:, None] + a[None, :] - (k - 1)) <= k // 4
    Q = 0.1 + 0.8 * band.astype(float)
    return ModelSpec(StepGraphon(Q, np.full(k, 1.0 / k)), rho)


def _subseed(seed: int, n: int, k: int, rho: float, rep: int) -> int:
    rho_key = int(round(rho * (1 << 30)))
    ss = np.random.SeedSequence((seed, n, k, rho_key, rep))
    return int(ss.generate_state(1)[0])


def _lift(values: np.ndarray) -> StepGraphon:
    n = values.shape[0]
    return StepGraphon(values, np.full(n, 1.0 / n))


def _run_estimator(name: str, A, k: int, rho: float, seed: int):
    if name == "adjacency":
        return estimate_adjacency(A)
    if name == "mean":
        return estimate_mean(A)
    if name == "svt":
        return estimate_svt(A, SvtConfig()).prob
    if name == "rls":
        fit = estimate_restricted_ls(A, k, rho=rho, restarts=4, seed=seed)
        return fit_to_prob_matrix(fit)
    raise ValidationError(f"unknown estimator {name!r}")


def _risk(metric: str, phat, theta, truth: StepGraphon, cfg: ExperimentConfig,
          seed: int) -> float:
    n = theta.n
    if metric == "frobenius":
        return float(np.linalg.norm(phat.values - theta.values) / n)
    if metric == "l1":
        return float(np.abs(phat.values - theta.values).sum() / n**2)
    if cfg.level == "matrix":
        D = phat.values - theta.values
        if metric == "cut":
            return float(matrix_cut_norm_heuristic(
                D, restarts=max(cfg.restarts, 8), seed=seed).value)
        return float(np.linalg.norm(D) / n)           # l2 at matrix level
    est = delta_upper(_lift(phat.values), truth, metric, m=n,
                      restarts=cfg.restarts, seed=seed)
    return float(est.upper)


def run_risk_experiment(config: ExperimentConfig) -> RiskReport:
    """Sample, estimate and measure every grid cell; failures don't abort."""
    rows = []
    failures = []
    for n, k, rho in itertools.product(config.ns, config.ks, config.rhos):
        try:
            spec = default_model(k, rho)
            truth = StepGraphon(rho * spec.graphon.values, spec.graphon.weights)
        except Exception as e:  # noqa: BLE001 - cell isolation by contract
            failures.append(f"n={n},k={k},rho={rho}: model: {e}")
            continue
        values = {(est, met): [] for est in config.estimators for met in config.metrics}
        for rep in range(config.reps):
            s = _subseed(config.seed, n, k, rho, rep)
            try:
                _, theta, A = sample_graph(spec, n, s)
            except Exception as e:  # noqa: BLE001
                failures.append(f"n={n},k={k},rho={rho},rep={rep}: sample: {e}")
                continue
            for est in config.estimators:
                try:
                    phat = _run_estimator(est, A, k, rho, s)
                    for met in config.metrics:
                        values[(est, met)].append(
                            _risk(met, phat, theta, truth, config, s))
                except Exception as e:  # noqa: BLE001
                    failures.append(
                        f"n={n},k={k},rho={rho},rep={rep},estimator={est}: {e}")
        for est in config.estimators:
            for met in config.metrics:
                vals = values[(est, met)]
                if not vals:
                    continue
                arr = np.array(vals)
                stderr = float(arr.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
                rows.append(RiskRow(
                    n, k, rho, est, met,
                    float(arr.mean()), stderr, len(vals),
                    rate_formula(_theory_regime(met, config.level), n, k, rho)))
    return RiskReport(tuple(rows), tuple(failures), config)


# ---------------------------------------------------------------------------
# slope fits


def fit_rate_slope(report: RiskReport, varying: str,
                   transform: Optional[Callable[[float], float]] = None,
                   estimator: Optional[str] = None,
                   metric: Optional[str] = None) -> Tuple[float, float]:
    """Least-squares slope of log(mean_risk) against log(transform(axis)).

    Rows may be pre-filtered by estimator/metric; after filtering there
    must be a single row per value of the varying axis and at least 4 of
    them.  Returns (slope, r_squared).
    """
    if varying not in ("n", "k", "rho"):
        raise ValidationError(f"varying must be one of n, k, rho, got {varying!r}")
    rows = [r for r in report.rows
            if (estimator is None or r.estimator == estimator)
            and (metric is None or r.metric == metric)]
    seen = {}
    for r in rows:
        key = getattr(r, varying)
        if key in seen:
            raise ValidationError(
                f"grid is degenerate: multiple rows share {varying}={key}; "
                "filter by estimator/metric or fix the other axes")
        seen[key] = r
    if len(seen) < 4:
        raise ValidationError(f"need >= 4 points on the {varying} axis, got {len(seen)}")
    f = transform if transform is not None else (lambda v: v)
    xs, ys = [], []
    for key, r in sorted(seen.items()):
        tx = f(key)
        if tx <= 0 or r.mean_risk <= 0:
            raise ValidationError("transform(axis) and mean_risk must be positive for log fits")
        xs.append(math.log(tx))
        ys.append(math.log(r.mean_risk))
    x = np.array(xs)
    y = np.array(ys)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    return float(coef[0]), r2


# named transforms for the CLI
TRANSFORMS = {
    "identity": lambda v: v,
    "k-over-logk": lambda v: v / math.log(v),
    "inverse": lambda v: 1.0 / v,
}


# ---------------------------------------------------------------------------
# emission


def format_csv(report: RiskReport) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in report.rows:
        out.write(f"{r.n},{r.k},{r.rho!r},{r.estimator},{r.metric},"
                  f"{r.mean_risk!r},{r.stderr!r},{r.reps},{r.theory!r}\n")
    return out.getvalue()


def parse_csv(text: str) -> RiskReport:
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValidationError(f"expected header {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        toks = line.split(",")
        if len(toks) != 9:
            raise ValidationError(f"bad CSV row: {line!r}")
        try:
            rows.append(RiskRow(int(toks[0]), int(toks[1]), float(toks[2]),
                                toks[3], toks[4], float(toks[5]),
                                float(toks[6]), int(toks[7]), float(toks[8])))
        except ValueError as e:
            raise ValidationError(f"bad CSV value: {e}") from None
    return RiskReport(tuple(rows))


def _svg_series(report: RiskReport):
    """Group rows into (label, points) series along the widest grid axis."""
    axes = {"n": sorted({r.n for r in report.rows}),
            "k": sorted({r.k for r in report.rows}),
            "rho": sorted({r.rho for r in report.rows})}
    varying = max(axes, key=lambda a: len(axes[a]))
    series = {}
    for r in report.rows:
        key = (r.estimator, r.metric)
        series.setdefault(key, []).append((getattr(r, varying), r.mean_risk, r.theory))
    for pts in series.values():
        pts.sort()
    return varying, series


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
               "#ff7f0e", "#8c564b", "#e377c2", "#17becf")


def format_svg(report: RiskReport, width: int = 640, height: int = 440) -> str:
    """Log-log risk curves (solid) with theory envelopes (dashed)."""
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if not report.rows:
        parts.append('<text x="20" y="30" font-size="14">empty report</text></svg>')
        return "\n".join(parts)
    varying, series = _svg_series(report)
    xs = [x for pts in series.values() for x, _, _ in pts]
    ys = [v for pts in series.values() for _, y, t in pts for v in (y, t) if v > 0]
    lx0, lx1 = math.log(min(xs)), math.log(max(xs))
    ly0, ly1 = math.log(min(ys)), math.log(max(ys))
    lx1 += (lx1 - lx0 or 1.0) * 0.02
    ly1 += (ly1 - ly0 or 1.0) * 0.05
    ly0 -= (ly1 - ly0 or 1.0) * 0.05
    box = (70, 20, width - 30, height - 50)

    def to_xy(x, y):
        fx = (math.log(x) - lx0) / (lx1 - lx0 or 1.0)
        fy = (math.log(y) - ly0) / (ly1 - ly0 or 1.0)
        return (box[0] + fx * (box[2] - box[0]),
                box[3] - fy * (box[3] - box[1]))

    parts.append(f'<rect x="{box[0]}" y="{box[1]}" width="{box[2]-box[0]}" '
                 f'height="{box[3]-box[1]}" fill="none" stroke="#999"/>')
    for i, x in enumerate(sorted(set(xs))):
        px, _ = to_xy(x, math.exp(ly0))
        parts.append(f'<line x1="{px:.1f}" y1="{box[3]}" x2="{px:.1f}" '
                     f'y2="{box[3]+5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{box[3]+18}" font-size="11" '
                     f'text-anchor="middle">{x:g}</text>')
    for i, (key, pts) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        line = " ".join(f"{to_xy(x, y)[0]:.1f},{to_xy(x, y)[1]:.1f}"
                        for x, y, _ in pts if y > 0)
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        env = " ".join(f"{to_xy(x, t)[0]:.1f},{to_xy(x, t)[1]:.1f}"
                       for x, _, t in pts if t > 0)
        if env:
            parts.append(f'<polyline points="{env}" fill="none" stroke="{color}" '
                         f'stroke-width="1" stroke-dasharray="4,3" opacity="0.6"/>')
        parts.append(f'<text x="{box[0]+8}" y="{box[1]+16+14*i}" font-size="11" '
                     f'fill="{color}">{key[0]}/{key[1]}</text>')
    parts.append(f'<text x="{(box[0]+box[2])/2:.0f}" y="{height-12}" font-size="12" '
                 f'text-anchor="middle">{varying} (log scale)</text>')
    parts.append(f'<text x="16" y="{(box[1]+box[3])/2:.0f}" font-size="12" '
                 f'transform="rotate(-90 16 {(box[1]+box[3])/2:.0f})" '
                 f'text-anchor="middle">mean risk (log scale)</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def emit(report: RiskReport, fmt: str, path) -> None:
    if fmt == "csv":
        payload = format_csv(report)
    elif fmt == "svg":
        payload = format_svg(report)
    else:
        raise ValidationError(f"unknown emit format {fmt!r}; use csv or svg")
    parent = os.path.dirname(str(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(payload)
