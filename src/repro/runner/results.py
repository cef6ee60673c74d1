"""Measurement results: the :class:`DelayMeasurement` record.

The scenario runner is its producer.  A measurement carries its
provenance — scheme, traffic law, discipline, scenario name, and the
per-replication delay estimates that the pooled confidence interval is built from — so
a cached result is a complete record of how it was obtained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.stats import ConfidenceInterval

__all__ = [
    "DelayMeasurement",
    "measurement_to_dict",
    "measurement_from_dict",
]


@dataclass(frozen=True)
class DelayMeasurement:
    """One steady-state delay estimate with its theoretical bracket.

    For schemes the paper gives no closed-form bracket for, the bounds
    are ``-inf``/``+inf`` ("no known constraint"), so
    :attr:`within_bounds` stays truthful.
    """

    network: str
    d: int
    rho: float
    p: float
    lam: float
    horizon: float
    num_packets: int
    mean_delay: float
    ci: Optional[ConfidenceInterval]
    lower_bound: float
    upper_bound: float
    scheme: str = "greedy"
    traffic: str = "uniform"
    discipline: str = "fifo"
    scenario: Optional[str] = None
    #: one steady-state estimate per independent replication; the
    #: pooled mean/CI are computed across these
    replication_delays: Optional[Tuple[float, ...]] = None
    #: scheme-specific side metrics (e.g. deflection counts, makespans),
    #: averaged across replications
    metrics: Tuple[Tuple[str, float], ...] = ()

    @property
    def within_bounds(self) -> bool:
        """Point-estimate check against the paper's bracket."""
        return self.lower_bound <= self.mean_delay <= self.upper_bound

    @property
    def normalised_delay(self) -> float:
        """``T / d`` — flat in d when the O(d) claim holds."""
        return self.mean_delay / self.d

    @property
    def num_replications(self) -> int:
        return len(self.replication_delays) if self.replication_delays else 1

    def metric(self, key: str, default: float = float("nan")) -> float:
        for k, v in self.metrics:
            if k == key:
                return v
        return default


def _encode_float(x: float) -> Any:
    # JSON has no inf/nan literals in strict mode; encode portably.
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _decode_float(x: Any) -> float:
    if isinstance(x, str):
        return float(x)
    return float(x)


def measurement_to_dict(m: DelayMeasurement) -> Dict[str, Any]:
    return {
        "network": m.network,
        "d": m.d,
        "rho": _encode_float(m.rho),
        "p": m.p,
        "lam": _encode_float(m.lam),
        "horizon": m.horizon,
        "num_packets": m.num_packets,
        "mean_delay": _encode_float(m.mean_delay),
        "ci": None
        if m.ci is None
        else {
            "mean": _encode_float(m.ci.mean),
            "halfwidth": _encode_float(m.ci.halfwidth),
            "confidence": m.ci.confidence,
            "num_samples": m.ci.num_samples,
        },
        "lower_bound": _encode_float(m.lower_bound),
        "upper_bound": _encode_float(m.upper_bound),
        "scheme": m.scheme,
        "traffic": m.traffic,
        "discipline": m.discipline,
        "scenario": m.scenario,
        "replication_delays": None
        if m.replication_delays is None
        else [_encode_float(x) for x in m.replication_delays],
        "metrics": [[k, _encode_float(v)] for k, v in m.metrics],
    }


def measurement_from_dict(data: Mapping[str, Any]) -> DelayMeasurement:
    ci = None
    if data.get("ci") is not None:
        c = data["ci"]
        ci = ConfidenceInterval(
            mean=_decode_float(c["mean"]),
            halfwidth=_decode_float(c["halfwidth"]),
            confidence=float(c["confidence"]),
            num_samples=int(c["num_samples"]),
        )
    reps = data.get("replication_delays")
    return DelayMeasurement(
        network=data["network"],
        d=int(data["d"]),
        rho=_decode_float(data["rho"]),
        p=float(data["p"]),
        lam=_decode_float(data["lam"]),
        horizon=float(data["horizon"]),
        num_packets=int(data["num_packets"]),
        mean_delay=_decode_float(data["mean_delay"]),
        ci=ci,
        lower_bound=_decode_float(data["lower_bound"]),
        upper_bound=_decode_float(data["upper_bound"]),
        scheme=data.get("scheme", "greedy"),
        traffic=data.get("traffic", "uniform"),
        discipline=data.get("discipline", "fifo"),
        scenario=data.get("scenario"),
        replication_delays=None
        if reps is None
        else tuple(_decode_float(x) for x in reps),
        metrics=tuple(
            (str(k), _decode_float(v)) for k, v in data.get("metrics", [])
        ),
    )
