"""Monte Carlo risk harness: grids, rate envelopes, CSV/SVG reporting.

Risks compare the estimate Phat against the truth at one of two levels,
chosen by the config's ``level``:

* ``matrix`` (default) — entrywise comparison to Theta:
  ``frobenius`` = ||Phat - Theta||_F / n, ``l1`` = ||Phat - Theta||_1 / n^2,
  ``cut`` = heuristic cut norm of (Phat - Theta) from CUT_RESTARTS
  restarts, ``l2`` an alias of ``frobenius``.
* ``graphon`` — Phat is lifted to an n-step equal-weight graphon (for the
  adjacency estimator this is exactly the empirical graphon) and compared
  to the scaled truth with a permutation-search distance upper bound at
  m = n; SEARCH_RESTARTS = 0 keeps only the deterministic alignment
  candidates.  The config rejects a grid where some k does not divide some
  n: that truth would be rounded to n steps.  ``frobenius`` and ``l1`` stay
  matrix quantities: the graphon-level ``l1`` row is |Phat - Theta| with
  the matrix ``L1`` envelope.  delta_1 through `delta_upper` at
  ``restarts=0`` mostly measures how weak those candidates are (0.459
  against 0.180 for |Phat - Theta| at n=32, k=4, seed 3), so wiring it and
  the ``L1graphon`` envelope waits on the latent-order coupling (ROADMAP
  item 4).

The model behind every grid cell is a fixed banded two-value kernel
(contrast 0.8, equal weights); k=1 degenerates to the constant 1/2.
The harness returns a report and writes nothing; `emit` writes it to the
path its caller chooses (``cutgraphon risk --out``).

With ``rls`` in the config, each replicate's rls fit runs on one worker
thread while the calling thread fits and measures the other estimators in
config order; rls's label sweeps hold the interpreter lock, while svt's
``eigh`` and the heuristic cut's products release it.  The rows and the
CSV bytes do not depend on it: the fit is the same call on the same
inputs, and every other call runs on the caller's thread in the order it
would take with the fit made inline.
"""

from __future__ import annotations

import io
import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import (StepGraphon, _as_int, _as_real, _as_tuple, _expect, _key_values,
                   empirical_graphon)
from .cutnorm import matrix_cut_norm_heuristic
from .distance import delta_upper
from .errors import ValidationError
from .estimate import (
    estimate_adjacency,
    estimate_mean,
    estimate_restricted_ls,
    estimate_svt,
    fit_to_prob_matrix,
)
from .sampling import ModelSpec, sample_graph

ESTIMATORS = ("adjacency", "mean", "svt", "rls")
METRICS = ("cut", "l1", "l2", "frobenius")
CUT_RESTARTS = 8     # heuristic cut-norm restarts for matrix-level cut risk
SEARCH_RESTARTS = 0  # random alignment restarts for graphon-level risk

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

    def __post_init__(self):
        if self.level not in ("matrix", "graphon"):
            raise ValidationError(f"level must be matrix or graphon, got {self.level!r}")
        grids = {name: _as_tuple(getattr(self, name), name)
                 for name in ("ns", "ks", "rhos", "estimators", "metrics")}
        if not all(grids.values()):
            raise ValidationError("grids over n, k, rho, estimator and metric must be non-empty")
        for axis, known in (("estimators", ESTIMATORS), ("metrics", METRICS)):
            bad = [x for x in grids[axis] if x not in known]
            if bad:
                raise ValidationError(f"unknown {axis} {bad}; choose from {known}")
        # stored as Python scalars, which the CSV prints and parses back
        checked = {**grids, "ns": tuple(_as_int(n, "every n", 2) for n in grids["ns"]),
                   "ks": tuple(_as_int(k, "every k", 1) for k in grids["ks"]),
                   "rhos": tuple(float(_as_real(r, "every rho", 0, 1, lo_open=True))
                                 for r in grids["rhos"]),
                   "reps": _as_int(self.reps, "reps", 1), "seed": _as_int(self.seed, "seed", 0)}
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        for axis, grid in (("n", self.ns), ("k", self.ks), ("rho", self.rhos),
                           ("estimator", self.estimators), ("metric", self.metrics)):
            if len(set(grid)) != len(grid):
                raise ValidationError(f"repeated {axis} in {grid}; each value "
                                      "makes its own rows, so list it once")
        # default_model(k) has weights 1/k, so its truth refines into n equal
        # steps, as delta_upper at m = n takes it, exactly when k divides n
        rounded = [(n, k) for n in self.ns for k in self.ks if n % k]
        if self.level == "graphon" and rounded:
            raise ValidationError(f"level=graphon needs every k to divide every n; "
                                  f"(n, k) = {rounded[0]} would measure against "
                                  "a rounded truth")


_INT_KEYS = {"reps", "seed"}
_STR_KEYS = {"level"}


def parse_config(text: str) -> ExperimentConfig:
    """Plain key=value lines (`core._key_values`); grid keys repeat, one value per line."""
    grids = ("n", "k", "rho", "estimator", "metric")
    lines = _key_values(text, "config", (*grids, *_INT_KEYS, *_STR_KEYS), grids)
    try:
        ns, ks = (tuple(int(v) for v in lines.get(key, [])) for key in ("n", "k"))
        rhos = tuple(float(v) for v in lines.get("rho", []))
        ints = {key: int(vals[0]) for key, vals in lines.items() if key in _INT_KEYS}
    except ValueError as e:
        raise ValidationError(f"bad numeric value in config: {e}") from None
    kwargs = dict(ns=ns, ks=ks, rhos=rhos, **ints)
    kwargs.update((key + "s", tuple(lines[key])) for key in ("estimator", "metric") if key in lines)
    kwargs.update((key, lines[key][0]) for key in _STR_KEYS if key in lines)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# theory envelopes


def rate_formula(regime: str, n: int, k: int, rho: float) -> float:
    """Shape-reference envelope for the given regime with unit constants.

    Natural logarithms throughout; every regime is capped by rho (the
    risk of estimating by zero).  Constants are unknown, so these are
    curves to plot against, not bounds.
    """
    if regime not in ("Cut", "Frobenius", "L1", "L2graphon", "L1graphon"):
        raise ValidationError(f"unknown regime {regime!r}")
    n, k = _as_int(n, "n", 2), _as_int(k, "k", 1)
    rho = _as_real(rho, "rho", 0, 1, lo_open=True)
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
    return min(rho * math.sqrt(k / n) + math.sqrt(rho) * k / n  # L1graphon
               + math.sqrt(rho * logk / n), rho)


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


def default_model(k: int, rho: float = 1.0) -> ModelSpec:
    """Fixed banded two-value kernel; the harness model for every cell."""
    if _as_int(k, "k", 1) == 1:
        return ModelSpec(StepGraphon(np.array([[0.5]]), np.array([1.0])), rho)
    a = np.arange(k)
    band = np.abs(a[:, None] + a[None, :] - (k - 1)) <= k // 4
    Q = 0.1 + 0.8 * band.astype(float)
    return ModelSpec(StepGraphon(Q, np.full(k, 1.0 / k)), rho)


def _subseed(seed: int, n: int, k: int, rho: float, rep: int) -> int:
    rho_key = int(round(rho * (1 << 30)))
    ss = np.random.SeedSequence((seed, n, k, rho_key, rep))
    return int(ss.generate_state(1)[0])


def _run_estimator(name: str, A, rls_fit):
    """Phat for estimator `name`; rls takes its fit from the `rls_fit` future
    submitted for this replicate."""
    if name == "adjacency":
        return estimate_adjacency(A)
    if name == "mean":
        return estimate_mean(A)
    if name == "svt":
        return estimate_svt(A).prob
    # rls: the config admits no other name
    return fit_to_prob_matrix(rls_fit.result())


def _reads_difference(metric: str, level: str) -> bool:
    """Whether `_risk` reads Phat - Theta: every matrix-level metric does,
    and at graphon level only the matrix quantities frobenius and l1."""
    return level == "matrix" or metric in ("frobenius", "l1")


def _risk(metric: str, phat, D: Optional[np.ndarray], truth: StepGraphon,
          cfg: ExperimentConfig, seed: int) -> float:
    """Risk of `phat` in `metric`; D = phat.values - theta.values, or None
    when no metric of the config reads it (`_reads_difference`)."""
    n = phat.n
    if metric == "frobenius":
        return float(np.linalg.norm(D) / n)
    if metric == "l1":
        return float(np.abs(D).sum() / n**2)
    if cfg.level == "matrix":
        if metric == "cut":
            return float(matrix_cut_norm_heuristic(
                D, restarts=CUT_RESTARTS, seed=seed).value)
        return float(np.linalg.norm(D) / n)           # l2 at matrix level
    est = delta_upper(empirical_graphon(phat), truth, metric, m=n,
                      restarts=SEARCH_RESTARTS, seed=seed)
    return float(est.upper)


def run_risk_experiment(config: ExperimentConfig) -> RiskReport:
    """Sample, estimate and measure every grid cell; failures don't abort.

    With rls in the config, each replicate's rls fit runs on one worker
    thread while this thread fits and measures the other estimators; the
    worker lives only for this call.
    """
    if "rls" in _expect(config, ExperimentConfig, "config").estimators:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(1) as pool:
            return _run_cells(config, pool)
    return _run_cells(config, None)


def _run_cells(config: ExperimentConfig, pool) -> RiskReport:
    rows = []
    failures = []
    reads_D = any(_reads_difference(met, config.level) for met in config.metrics)
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
            # rls's turn in the loop below reads this future, exception included;
            # the module-level name is read here, so a rebinding wrapper sees every fit
            rls_fit = (pool.submit(estimate_restricted_ls, A, k, rho=rho, restarts=4, seed=s)
                       if pool is not None else None)
            for est in config.estimators:
                try:
                    phat = _run_estimator(est, A, rls_fit)
                    D = phat.values - theta.values if reads_D else None
                    for met in config.metrics:
                        values[(est, met)].append(_risk(met, phat, D, truth, config, s))
                    del D   # not held through the next estimator's fit
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
    return RiskReport(tuple(rows), tuple(failures))


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
        try:
            tx = f(key)
        except (ArithmeticError, ValueError):
            raise ValidationError(f"transform is undefined at {varying}={key}") from None
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
SVG_WIDTH, SVG_HEIGHT = 640, 440


def format_svg(report: RiskReport) -> str:
    """Log-log risk curves (solid) with theory envelopes (dashed)."""
    width, height = SVG_WIDTH, SVG_HEIGHT
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
    for x in sorted(set(xs)):
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
    _expect(report, RiskReport, "report")
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
