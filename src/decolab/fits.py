"""Characteristic-time extraction from decay records.

Fits collapse envelopes to stretched exponentials, locates the onset of
stationarity inside a recurrence window, and tabulates how far apart the
dephasing and relaxation scales sit across scenarios.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .liouville import _axis, _finite

# envelope samples enter the fit while ln(env / max) stays above this
FIT_FLOOR_LOG = -2.0
# a channel must collapse at least this much before a decay fit is honest
MIN_DECAY_FACTOR = math.e
# below this amplitude a channel carries no signal worth fitting
SIGNAL_ATOL = 1e-9
# fraction of the in-window record used for the long-time mean
TAIL_FRACTION = 0.25


@dataclass(frozen=True)
class FitResult:
    """Outcome of a single envelope fit.

    value is the characteristic time (the e^-1 point of the fitted
    envelope A exp(-(t/value)^power)); status is "ok" when the fit is
    trustworthy and a reason string otherwise, in which case the numeric
    fields are None rather than fabricated.
    """

    value: float | None
    power: int | None
    amplitude: float | None
    r_squared: float | None
    status: str

    @property
    def ok(self):
        return self.status == "ok"

    def as_dict(self):
        return asdict(self)


_NOT_DECAYING = FitResult(None, None, None, None,
                          "no fit: envelope is not decaying")


@dataclass(frozen=True)
class WeakLimitResult:
    """Onset of stationarity for a set of monitored channels."""

    t_star: float | None
    equilibrium: dict
    epsilon: float
    flags: tuple

    @property
    def converged(self):
        return self.t_star is not None


def _check_series(times, values, what="values", dtype=None):
    """4 or more ``times`` as an axis, and finite ``values`` of their shape."""
    times = _axis(times, "times", 4)
    values = _finite(values, what, dtype)
    if values.shape != times.shape:
        raise ValueError(f"{what} must be 1-d, one per time")
    return times, values


def envelope(times, values):
    """Non-increasing upper envelope of |values| on the sample grid.

    Nodes are the samples that dominate every later sample (records seen
    from the right); the envelope interpolates linearly between them.
    A monotone collapse is reproduced exactly, an oscillatory decay is
    bridged across its arches.
    """
    return _envelope(*_check_series(times, values))


def _envelope(times, values):
    """:func:`envelope` of a series that has passed :func:`_check_series`."""
    v = np.abs(values).astype(float)
    suffix = np.maximum.accumulate(v[::-1])[::-1]
    nodes = np.nonzero(v >= suffix)[0]
    return np.interp(times, times[nodes], v[nodes])


def _fit(times, values, powers, no_signal, floor_log):
    """Both fits: A exp(-(t/tau)^p) to the envelope of |values|, p from
    ``powers`` by r squared; the ``no_signal`` status if it stays below
    SIGNAL_ATOL, and no fit if it does not collapse by MIN_DECAY_FACTOR or
    no decaying fit is found in its window."""
    times, values = _check_series(times, values)
    env = _envelope(times, values)
    amax = float(env.max())
    if amax <= SIGNAL_ATOL:
        return FitResult(None, None, None, None, no_signal)
    if not -math.inf < floor_log < 0:  # ln(env/max) <= 0, and not NaN
        raise ValueError(
            f"floor_log must be negative and finite, got {floor_log}")
    if env[-1] * MIN_DECAY_FACTOR > amax:
        return FitResult(None, None, None, None,
                         "no fit: channel does not decay by a factor of e")
    # contiguous prefix while the envelope stays above max * e^floor_log;
    # stopping there keeps late revivals and noise floors out of the fit
    below = np.nonzero(env < amax * math.exp(floor_log))[0]
    stop = int(below[0]) if below.size else env.size
    stop = min(max(stop, 4), env.size)
    t, y = times[:stop], env[:stop]
    keep = y > 0
    if int(keep.sum()) < 3:
        return _NOT_DECAYING
    t, y = t[keep], np.log(y[keep])
    best = None
    for p in powers:
        design = np.column_stack([t ** p, np.ones_like(t)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        if coef[0] >= 0:
            continue
        resid = y - design @ coef
        total = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid ** 2)) / total if total > 0 else 1.0
        r2 = min(max(r2, 0.0), 1.0)
        tau = (-1.0 / float(coef[0])) ** (1.0 / p)
        if best is None or r2 > best.r_squared:
            best = FitResult(float(tau), int(p), float(math.exp(coef[1])),
                             float(r2), "ok")
    return best if best is not None else _NOT_DECAYING


def fit_decoherence_time(times, values, floor_log=FIT_FLOOR_LOG):
    """Fit the collapse of an off-diagonal channel.

    The upper envelope of |values| is fit to A exp(-(t/t_D)^p) with
    p in {1, 2}, the power chosen by r squared on the log-linear form.
    The returned value is t_D, the time at which the fitted envelope has
    fallen to A/e.  A channel that never collapses by a factor of e
    yields a no-fit result instead of a number.
    """
    return _fit(times, values, (1, 2), "no signal: channel is zero", floor_log)


def fit_relaxation_time(times, values, floor_log=FIT_FLOOR_LOG):
    """Fit the exponential approach of a population channel to equilibrium.

    values is the distance-from-equilibrium record.  A channel that
    never leaves equilibrium reports that relaxation is not applicable
    rather than inventing a time scale.
    """
    return _fit(times, values, (1,), "not applicable (no dissipation)",
                floor_log)


def detect_weak_limit(times, channels, epsilon, recurrence_window=None):
    """Earliest time after which every channel stays near its long-time mean.

    ``channels`` maps each name to its values.  Only samples inside the
    recurrence window (> 0; None or inf for none) count: the long-time
    mean is taken over the final stretch of the in-window record, and
    t_star is the earliest sample such that every channel remains within
    epsilon (0 < epsilon < inf) of its mean at all later in-window
    samples.  Later samples are ignored and flagged, and failure to
    settle is reported as non-convergence rather than a guessed time.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not isinstance(channels, dict) or not channels:
        raise ValueError("channels must be a non-empty dict name -> values")
    times = _axis(times, "times", 4)
    window = math.inf if recurrence_window is None else recurrence_window
    if not window > 0:  # "not > 0" so that a NaN window is refused too
        raise ValueError(f"recurrence window must be positive, got {window}")
    flags = []
    mask = times <= window
    if times[-1] > window:
        flags.append("series extends beyond the recurrence window; "
                     "later samples ignored")
    if int(mask.sum()) < 4:
        raise ValueError("recurrence window leaves fewer than 4 samples")

    t_in = times[mask]
    tail_n = max(3, int(math.ceil(TAIL_FRACTION * t_in.size)))
    equilibrium = {}
    deviation = np.zeros(t_in.size)
    for name, vals in channels.items():
        vals = _check_series(times, vals, f"channel {name!r}", float)[1][mask]
        mean = float(np.mean(vals[-tail_n:]))
        equilibrium[name] = mean
        deviation = np.maximum(deviation, np.abs(vals - mean))

    suffix = np.maximum.accumulate(deviation[::-1])[::-1]
    settled = np.nonzero(suffix <= epsilon)[0]
    if settled.size:
        t_star = float(t_in[settled[0]])
    else:
        t_star = None
        flags.append("no convergence within the recurrence window")
    return WeakLimitResult(t_star, equilibrium, float(epsilon), tuple(flags))


@dataclass(frozen=True)
class OrderingRow:
    scenario: str
    kind: str
    t_D: float | None
    t_R: float | None
    ratio: float | None
    status: str


@dataclass(frozen=True)
class OrderingReport:
    """Cross-scenario table of dephasing versus relaxation scales."""

    rows: tuple
    ordering_satisfied: bool

    def as_dict(self):
        return {"rows": [asdict(r) for r in self.rows],
                "ordering_satisfied": self.ordering_satisfied}

    def text(self):
        header = (f"{'scenario':<24}{'kind':<18}{'t_D':>12}{'t_R':>12}"
                  f"{'t_R/t_D':>10}  ordering")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            td = f"{r.t_D:.6g}" if r.t_D is not None else "n/a"
            tr = f"{r.t_R:.6g}" if r.t_R is not None else "n/a"
            ratio = f"{r.ratio:.4g}" if r.ratio is not None else "n/a"
            lines.append(f"{r.scenario:<24}{r.kind:<18}{td:>12}{tr:>12}"
                         f"{ratio:>10}  {r.status}")
        verdict = "yes" if self.ordering_satisfied else "no"
        lines.append(f"ordering t_D < t_R satisfied where both defined: {verdict}")
        return "\n".join(lines)


def _summary_times(summary, where):
    """(t_D, t_R) of a summary, None where missing or not a number; one
    that is not positive and finite raises, naming ``where`` and the key."""
    times = []
    for key in ("t_D", "t_R"):
        value = summary.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            times.append(None)
        elif 0 < value < math.inf:
            times.append(float(value))
        else:
            raise ValueError(f"{where}: key '{key}' = {value!r} must be "
                             "positive and finite")
    return times


def ordering_report(summaries):
    """Tabulate t_D against t_R across scenario summaries.

    Each summary is a mapping with at least t_D and t_R entries, each a
    positive finite number, or None or a non-numeric placeholder when the
    scale does not exist for that scenario.  Rows with both times check
    t_D < t_R; a list in which no row carries any time is rejected.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("ordering report needs at least one fit summary")
    rows = []
    any_time = False
    satisfied = True
    for s in summaries:
        name = str(s.get("scenario") or s.get("name") or "?")
        kind = str(s.get("kind", "?"))
        td, tr = _summary_times(s, f"scenario {name!r}")
        if td is not None or tr is not None:
            any_time = True
        if td is not None and tr is not None:
            ratio = tr / td
            status = "ok" if td < tr else "violation"
            if status == "violation":
                satisfied = False
        else:
            ratio = None
            status = "n/a"
        rows.append(OrderingRow(name, kind, td, tr, ratio, status))
    if not any_time:
        raise ValueError("no summary carries a characteristic time")
    return OrderingReport(tuple(rows), satisfied)
