"""Scenario harness: plain-text configs in, CSV records and JSON summaries out.

A config names one scenario kind, its physical parameters, and the
sampling window; running it produces a deterministic multi-channel CSV
plus a JSON summary holding the fitted characteristic times, the
detected weak limit, the recurrence window, and any honesty flags.
Identical config and seed reproduce the output files byte for byte.

A kind is one record in ``_KINDS``, read alike by the run, the oracle
and ``decolab fit``.  It holds ``system(config)``, the seeded system that
``route(system, times)`` and ``oracle(system, times)`` each map to named
channels; ``window(system)``, the recurrence window or None; and the
names of the ``decay`` channel that t_D is fitted to, the ``relax``
channel that t_R is fitted to (None: no dissipation, t_R not applicable)
and the ``watched`` channels of the weak limit, the first of which gives
the equilibrium value.
"""

import configparser
import json
import math
import re
from collections import namedtuple
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fits
# gaussian_scenario is unused here; perfbench's tracer binds it at this name
from .continuum import (EnergyGrid, _check_oracle_cap,  # noqa: F401
                        discretized_unitary_oracle, expectation_sid,
                        family_kernel, gaussian_scenario,
                        hamiltonian_observable, load_table_kernel, sid_limit,
                        sid_scenario)
from .master_eq import dissipative_toy, evolve_linear_generator
from .open_system import (SPIN_CAP, SpinBathParams, purity,
                          spin_bath_coherence, spin_bath_recurrence_window,
                          spin_bath_reduced_dynamics)
from .timeseries import TimeSeries

KINDS = ("eid-spin-bath", "sid-kernel", "master-eq-toy")
SID_FAMILIES = ("gaussian", "lorentzian", "table")
MIN_SAMPLES = 16

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_REQUIRED = object()


class ConfigError(ValueError):
    """Schema violation, reported with the offending section and key."""


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    name: str
    seed: int
    t_max: float
    samples: int
    params: dict
    tolerances: dict


@dataclass(frozen=True)
class ScenarioResult:
    series: TimeSeries
    summary: dict
    csv_path: Path
    json_path: Path


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_SCENARIO_KEYS = {"kind", "name", "seed", "t_max", "samples"}


def _angle(raw):
    text = raw.strip().lower()
    if text == "half-pi":
        return math.pi / 2
    if text == "random":
        return "random"
    return float(raw)


# written as a range so that inf and NaN are refused too
_POSITIVE = (lambda x: 0 < x < math.inf, "must be positive and finite")
_FINITE = (math.isfinite, "must be finite")
# each tolerance's (default, check, why)
_TOLERANCES = {
    "weak_limit_epsilon": (1e-3, *_POSITIVE),
    "fit_floor_log": (fits.FIT_FLOOR_LOG, lambda x: -math.inf < x < 0,
                      "must be negative and finite"),
}
# per kind, each key's (cast, default or _REQUIRED, check or None, why)
_PARAMS = {
    "eid-spin-bath": {
        "n_spins": (int, _REQUIRED, lambda n: 1 <= n <= SPIN_CAP,
                    f"need 1..{SPIN_CAP} bath spins"),
        "coupling_min": (float, 0.5, *_POSITIVE),
        "coupling_max": (float, 1.5, *_POSITIVE),
        "bath_angle": (_angle, math.pi / 2,
                       lambda a: a == "random" or math.isfinite(a),
                       "must be finite, 'random' or 'half-pi'"),
        "amp0": (float, 1 / math.sqrt(2), lambda a: 0 < a < 1,
                 "need 0 < amp0 < 1"),
    },
    "sid-kernel": {
        "family": (str, "gaussian", lambda f: f in SID_FAMILIES,
                   "known families: " + ", ".join(SID_FAMILIES)),
        "n": (int, 400, lambda n: MIN_SAMPLES <= n <= 2000,
              f"need {MIN_SAMPLES}..2000 grid points"),
        "omega_max": (float, 10.0, *_POSITIVE),
        "center": (float, 5.0, *_FINITE),
        "width": (float, 1.2, *_POSITIVE),
        "cross_width": (float, 0.5, *_POSITIVE),
        "amplitude": (float, 0.25, *_FINITE),
        "kernel_csv": (str, None, None, ""),
    },
    "master-eq-toy": {
        "gamma_decohere": (float, 1.0, *_POSITIVE),
        "gamma_relax": (float, 0.2, *_POSITIVE),
    },
}


def _get(cp, section, key, cast, default=_REQUIRED, check=None, why=""):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"[{section}] missing required key '{key}'")
        return default
    raw = cp.get(section, key)
    try:
        value = cast(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"[{section}] key '{key}': cannot parse {raw!r}"
        ) from None
    if check is not None and not check(value):
        raise ConfigError(f"[{section}] key '{key}': {raw!r} invalid ({why})")
    return value


def _check_sections(cp, kind):
    allowed = {"scenario", "tolerances", kind}
    for section in cp.sections():
        if section not in allowed:
            hint = f"params go in [{kind}]" if section in KINDS else \
                "known sections: [scenario], [tolerances], [" + kind + "]"
            raise ConfigError(f"unknown section [{section}]; {hint}")


def _check_keys(cp, section, known):
    if not cp.has_section(section):
        return
    for key in cp.options(section):
        if key not in known:
            raise ConfigError(
                f"[{section}] unknown key '{key}'; known keys: "
                f"{', '.join(sorted(known))}"
            )


def parse_tolerances(overrides=None, cp=None):
    """[tolerances] of config ``cp`` (default: none) with the ``overrides``
    mapping merged over it, each value read and checked as in the file."""
    overrides = overrides or {}
    for key in overrides:
        if key not in _TOLERANCES:
            raise ConfigError(
                f"unknown tolerance '{key}'; known tolerances: "
                f"{', '.join(sorted(_TOLERANCES))}"
            )
    cp = cp if cp is not None else configparser.ConfigParser(interpolation=None)
    cp.read_dict({"tolerances": overrides})
    return {key: _get(cp, "tolerances", key, float, *spec)
            for key, spec in _TOLERANCES.items()}


def parse_config(path, seed=None, tol_overrides=None):
    """Read and validate a scenario config file.

    ``seed`` overrides the configured seed; ``tol_overrides`` is a
    mapping merged over the [tolerances] section.  Violations raise
    :class:`ConfigError` naming the section and key at fault.  A relative
    ``kernel_csv`` is read beside the config file, not the working directory.
    """
    # no interpolation: a value means what it says, '%' included
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    if not cp.has_section("scenario"):
        raise ConfigError("missing [scenario] section")

    kind = _get(cp, "scenario", "kind", str,
                check=lambda k: k in KINDS,
                why="known kinds: " + ", ".join(KINDS))
    _check_sections(cp, kind)
    _check_keys(cp, "scenario", _SCENARIO_KEYS)
    _check_keys(cp, kind, _PARAMS[kind])
    _check_keys(cp, "tolerances", _TOLERANCES)

    name = _get(cp, "scenario", "name", str, kind,
                check=lambda s: bool(_NAME_RE.match(s)),
                why="letters, digits, dot, dash, underscore only")
    if seed is not None:
        cp.read_dict({"scenario": {"seed": str(seed)}})
    seed = _get(cp, "scenario", "seed", int, 0, lambda s: s >= 0, "need >= 0")
    t_max = _get(cp, "scenario", "t_max", float, _REQUIRED, *_POSITIVE)
    samples = _get(cp, "scenario", "samples", int,
                   check=lambda n: n >= MIN_SAMPLES,
                   why=f"need at least {MIN_SAMPLES} samples")
    params = {key: _get(cp, kind, key, *spec)
              for key, spec in _PARAMS[kind].items()}
    if kind == "eid-spin-bath" and params["coupling_max"] < params["coupling_min"]:
        raise ConfigError(
            "[eid-spin-bath] key 'coupling_max': must be >= coupling_min"
        )
    if kind == "sid-kernel" \
            and (params["family"] == "table") != bool(params["kernel_csv"]):
        raise ConfigError("[sid-kernel] key 'kernel_csv' is required when "
                          "family = table, and read only then")
    if params.get("kernel_csv"):
        params["kernel_csv"] = str(Path(path).parent / params["kernel_csv"])
    if kind == "master-eq-toy":
        try:
            dissipative_toy(**params)
        except ValueError as exc:
            raise ConfigError("[master-eq-toy] keys 'gamma_decohere' and "
                              f"'gamma_relax': {exc}") from None
    tolerances = parse_tolerances(tol_overrides, cp)
    return ScenarioConfig(kind=kind, name=name, seed=seed, t_max=t_max,
                          samples=samples, params=params,
                          tolerances=tolerances)


# ---------------------------------------------------------------------------
# kinds
# ---------------------------------------------------------------------------

def _spin_bath(config):
    """The seeded bath of an eid-spin-bath ``config``."""
    p = config.params
    rng = np.random.default_rng(config.seed)
    n = p["n_spins"]
    couplings = rng.uniform(p["coupling_min"], p["coupling_max"], n)
    if p["bath_angle"] == "random":
        angles = rng.uniform(0.0, math.pi, n)
    else:
        angles = np.full(n, float(p["bath_angle"]))
    amp0 = p["amp0"]
    return SpinBathParams(couplings=couplings, angles=angles,
                          amplitude_0=amp0,
                          amplitude_1=math.sqrt(1.0 - amp0 ** 2))


def _eid_route(bath, times):
    rhos = spin_bath_reduced_dynamics(bath, times)
    channels = {}
    for i in range(2):
        for j in range(2):
            channels[f"rho{i}{j}_re"] = rhos[:, i, j].real
            channels[f"rho{i}{j}_im"] = rhos[:, i, j].imag
    channels["purity"] = purity(rhos)
    channels["offdiag_modulus"] = np.abs(rhos[:, 0, 1])
    return channels


def _sid_pair(config):
    """The (state, observable) pair of a sid-kernel ``config``."""
    p = config.params
    grid = EnergyGrid.uniform(0.0, p["omega_max"], p["n"])
    if p["family"] == "table":
        kernel = load_table_kernel(p["kernel_csv"], grid)
    else:
        kernel = family_kernel(grid, p["family"], p["center"], p["width"],
                               p["cross_width"])
    return sid_scenario(grid, kernel, p["center"], p["width"], p["amplitude"])


def _sid_route(pair, times):
    state, obs = pair
    expect = expectation_sid(state, obs, times)
    # H has no regular kernel, so its pairing is sid_limit at every time
    e_h = sid_limit(state, hamiltonian_observable(state.grid))
    return {"expectation": expect,
            "offdiag_contrib": expect - sid_limit(state, obs),
            "energy": np.full(times.shape, e_h)}


def _toy_channels(toy, states):
    """Each state's populations, the Frobenius norm of its off-diagonal part
    and the distance of its populations from equilibrium."""
    p_star = np.asarray(toy.equilibrium, dtype=float)
    pops = states.diagonal(axis1=1, axis2=2).real
    # the norm summed the way np.linalg.norm sums one matrix: real and
    # imaginary dot products
    off = (states * (1 - np.eye(p_star.size))).reshape(len(states), 1, -1)
    channels = {f"p{i}": pops[:, i] for i in range(p_star.size)}
    channels["offdiag_modulus"] = np.sqrt(
        (off.real @ off.real.swapaxes(1, 2)
         + off.imag @ off.imag.swapaxes(1, 2))[:, 0, 0])
    channels["diag_distance"] = np.linalg.norm(pops - p_star, axis=1)
    return channels


def _toy_oracle(toy, times):
    # the route's channels at rho0, each decaying at its own rate
    at0 = _toy_channels(toy, toy.rho0[None])
    rates = {"offdiag_modulus": toy.gamma_decohere,
             "diag_distance": toy.gamma_relax}
    return {c: at0[c] * np.exp(-rate * times) for c, rate in rates.items()}


_Kind = namedtuple("_Kind", "system route oracle window decay relax watched")
# each function here looks up what it calls in this module at call time,
# so that a wrapper set on the module sees the call
_KINDS = {
    # pure dephasing: the populations are constants of motion
    "eid-spin-bath": _Kind(
        _spin_bath, _eid_route, lambda bath, times: {
            "offdiag_modulus": np.abs(spin_bath_coherence(bath, times))},
        lambda bath: spin_bath_recurrence_window(bath.couplings),
        "offdiag_modulus", None, ("offdiag_modulus",)),
    # closed: <H> and the populations are constants of motion
    "sid-kernel": _Kind(
        _sid_pair, _sid_route, lambda pair, times: {
            "expectation": discretized_unitary_oracle(*pair, times)},
        lambda pair: pair[0].grid.recurrence_window(),
        "offdiag_contrib", None, ("expectation",)),
    "master-eq-toy": _Kind(
        lambda config: dissipative_toy(**config.params),
        lambda toy, times: _toy_channels(toy, evolve_linear_generator(
            toy.generator, toy.rho0, times)),
        _toy_oracle, lambda toy: None, "offdiag_modulus", "diag_distance",
        ("diag_distance", "offdiag_modulus")),
}


def _time_axis(config):
    """The ``samples`` times from 0 to t_max that a run and its oracle share."""
    return np.linspace(0.0, config.t_max, config.samples)


def _summary(config, series, kind, recurrence_window):
    """Fit t_D and t_R to ``kind``'s decay and relax channels of ``series``
    and find the weak limit of its watched ones."""
    tol, times, ch = config.tolerances, series.times, series.channels
    floor = tol["fit_floor_log"]
    fit_d = fits.fit_decoherence_time(times, ch[kind.decay], floor)
    fit_r = fits._NO_DISSIPATION if kind.relax is None else \
        fits.fit_relaxation_time(times, ch[kind.relax], floor)
    weak = fits.detect_weak_limit(times, {c: ch[c] for c in kind.watched},
                                  epsilon=tol["weak_limit_epsilon"],
                                  recurrence_window=recurrence_window)
    flags = list(weak.flags)
    if not fit_d.ok:
        flags.append("t_D: " + fit_d.status)
    elif fit_d.value > times[-1]:
        flags.append("t_D: beyond the record, extrapolated")
    if not fit_r.ok:
        flags.append("t_R: " + fit_r.status)
    if recurrence_window is None:
        flags.append("no recurrence (aperiodic generator)")
    return {
        "scenario": config.name,
        "kind": config.kind,
        "seed": config.seed,
        "t_D": fit_d.value,
        "t_R": fit_r.value,
        "equilibrium_value": weak.equilibrium[kind.watched[0]],
        "fit_quality": {"t_D": fit_d.r_squared, "t_R": fit_r.r_squared},
        "recurrence_window": recurrence_window,
        "weak_limit_t_star": weak.t_star,
        "flags": flags,
    }


def oracle_series(config):
    """``config``'s reference record, of the system its run evolves, at its
    run's times and under its run's channel names; a sid-kernel grid over
    ORACLE_GRID_CAP raises before the system is built."""
    if config.kind == "sid-kernel":
        _check_oracle_cap(config.params["n"])
    kind, times = _KINDS[config.kind], _time_axis(config)
    return TimeSeries(times, kind.oracle(kind.system(config), times))


def run_scenario(config, out_dir):
    """Run one configured scenario and write its CSV record and JSON summary.

    Returns a :class:`ScenarioResult`; the files land in ``out_dir`` as
    ``<name>.csv`` and ``<name>.json``.  All randomness flows through the
    configured seed, so identical inputs reproduce identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kind, times = _KINDS[config.kind], _time_axis(config)
    system = kind.system(config)
    series = TimeSeries(times, kind.route(system, times))
    summary = _summary(config, series, kind, kind.window(system))
    csv_path = out / f"{config.name}.csv"
    json_path = out / f"{config.name}.json"
    series.to_csv(csv_path)
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ScenarioResult(series=series, summary=summary,
                          csv_path=csv_path, json_path=json_path)
