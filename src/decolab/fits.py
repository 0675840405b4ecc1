"""Characteristic-time extraction from decay records.

Reads t_D and t_R as the e^-1 crossings of collapse envelopes, locates
the onset of stationarity inside a recurrence window, and tabulates how
far apart the dephasing and relaxation scales sit across scenarios.
"""

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .liouville import _axis, _finite

# below this amplitude a channel carries no signal worth fitting
SIGNAL_ATOL = 1e-9
# fraction of the in-window record used for the long-time mean
TAIL_FRACTION = 0.25


@dataclass(frozen=True)
class FitResult:
    """Outcome of reading one characteristic time off a record.

    value is the time at which the envelope has fallen to e^-1 of its
    start; shape is its e^-2 crossing over its e^-1 crossing, both timed
    from the record's start (2 for an exponential, sqrt 2 for a
    gaussian), None where the e^-2 crossing lies past the record.  status
    is "ok" when value is a number and a reason string otherwise, in
    which case both fields are None rather than fabricated.
    """

    value: float | None
    shape: float | None
    status: str

    @property
    def ok(self):
        return self.status == "ok"

    def as_dict(self):
        return asdict(self)


_NO_DISSIPATION = FitResult(None, None, "not applicable (no dissipation)")


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
    """Running maximum of |values| from the right on the sample grid: the
    least non-increasing sequence above |values|.

    A monotone collapse is its own envelope; an oscillatory decay is held
    at its next arch top across each trough, and a collapse onto a lower
    revival at that revival's top.
    """
    v = np.abs(_check_series(times, values)[1])
    return np.maximum.accumulate(v[::-1])[::-1]


def _crossing(times, v, level):
    """Where the envelope of ``v`` falls below ``level`` (< max v), that is
    where v last does, or None if v ends at or above it: interpolated
    linearly in ln(v) between the two bracketing samples (in v where the
    later one is 0), so a lower revival after the bracket does not move it.
    """
    k = int(np.nonzero(v >= level)[0][-1]) + 1
    if k == v.size:
        return None
    e0, e1 = v[k - 1], v[k]
    frac = math.log(e0 / level) / math.log(e0 / e1) if e1 > 0 \
        else (e0 - level) / e0
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


def _fit(times, values, no_signal):
    """The e^-1 crossing of the envelope of |values| and its shape; the
    ``no_signal`` status if |values| stays below SIGNAL_ATOL, and no fit if
    the envelope never falls to e^-1 of its start."""
    times, values = _check_series(times, values)
    v = np.abs(values)
    start = float(v.max())
    if start <= SIGNAL_ATOL:
        return FitResult(None, None, no_signal)
    value = _crossing(times, v, start / math.e)
    if value is None:
        return FitResult(None, None,
                         "no fit: channel does not decay by a factor of e")
    e2 = _crossing(times, v, start / math.e ** 2)
    t0 = float(times[0])
    shape = None if e2 is None else (e2 - t0) / (value - t0)
    return FitResult(value, shape, "ok")


def fit_decoherence_time(times, values):
    """t_D of an off-diagonal channel: the e^-1 crossing of the envelope
    of |values|, exact for a pure exponential.  A channel that never
    collapses by a factor of e yields a no-fit result instead of a
    number."""
    return _fit(times, values, "no signal: channel is zero")


def fit_relaxation_time(times, values):
    """t_R of a population channel: the e^-1 crossing of its distance from
    equilibrium, ``values``.  A channel that never leaves equilibrium
    reports that relaxation is not applicable rather than inventing a time
    scale."""
    return _fit(times, values, _NO_DISSIPATION.status)


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
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
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
