"""QoS routing strategies: the (link cost, path cost, path selection) triple.

A strategy fixes how link attributes become edge weights, how a path's
cost grows when extended by one edge, and which candidate rule wins for a
(src, dst) pair.  Selection is a strict total order: the strategy's
primary key (min path cost, or max for widest-path routing), then fewer
hops, then the smallest next-hop id.  The engine selects by the key
tuple (signed cost, p_length, next), with the cost negated under
`maximize`, so plain tuple order is the selection order and the smaller
key wins; it stores the keys of a destination's rules as columns, the
cost's typed by `cost_typecode`.  The deterministic tail keeps results
identical whatever order the destinations are repaired in and the
events are listed in.

hop_count is the additive path cost over int weights of 1, so its costs
are ints; the engine treats it as it treats the other additive
strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import InvalidWeightError, UnknownStrategyError
from .graph_model import LinkProperties

# Weight assigned to a fully utilized link under inverse-free-bandwidth
# costing, where the formula itself diverges.
SATURATED_WEIGHT = 1e9


class WeightDomain(NamedTuple):
    lo: float
    hi: float
    lo_open: bool = False

    def contains(self, w):
        """Whether w lies in the domain; elementwise over a numpy array.
        A nan lies in none."""
        above = self.lo < w if self.lo_open else self.lo <= w
        return above & (w <= self.hi)


@dataclass(frozen=True)
class Strategy:
    """Immutable description of one QoS routing algorithm.

    `maximize` gives the direction of the selection primary key;
    `tautology_cost` is the path cost of the self rule seeding propagation.
    """

    name: str
    link_cost: Callable[[LinkProperties], float]
    path_cost: Callable[[float, float], float]
    tautology_cost: float
    maximize: bool
    weight_domain: WeightDomain

    def validate_weight(self, w: float) -> float:
        if not self.weight_domain.contains(w):
            raise InvalidWeightError(
                f"weight {w} outside domain of strategy {self.name!r}"
            )
        return w


def _hop_link_cost(props: LinkProperties) -> int:
    return 1

def _free_bw_link_cost(props: LinkProperties) -> float:
    free = props.free_bandwidth()
    return 1.0 / free if free > 0 else SATURATED_WEIGHT

def _utilization_link_cost(props: LinkProperties) -> float:
    return props.utilization

def _additive_path_cost(w, p_cost):
    return w + p_cost

def _width_link_cost(props: LinkProperties) -> float:
    return props.free_bandwidth()

def _width_path_cost(w, p_cost):
    return w if w < p_cost else p_cost


_FLOAT_LINK_COSTS = (_free_bw_link_cost, _width_link_cost)
_LINK_COSTS = (_hop_link_cost, _utilization_link_cost, *_FLOAT_LINK_COSTS)

_ADDITIVE_DOMAIN = WeightDomain(0.0, math.inf, lo_open=True)

_BUILTINS = {
    "hop_count": lambda: Strategy(
        "hop_count", _hop_link_cost, _additive_path_cost, 0, False, _ADDITIVE_DOMAIN
    ),
    "sd_free_bw": lambda: Strategy(
        "sd_free_bw", _free_bw_link_cost, _additive_path_cost, 0.0, False,
        _ADDITIVE_DOMAIN,
    ),
    "sd_utilization": lambda: Strategy(
        "sd_utilization", _utilization_link_cost, _additive_path_cost, 0.0, False,
        _ADDITIVE_DOMAIN,
    ),
    "shortest_widest": lambda: Strategy(
        "shortest_widest", _width_link_cost, _width_path_cost, math.inf, True,
        WeightDomain(0.0, math.inf),
    ),
}

# CLI spellings
_ALIASES = {
    "hopcount": "hop_count",
    "sd-freebw": "sd_free_bw",
    "sd-util": "sd_utilization",
    "widest": "shortest_widest",
}


def path_cost_kind(strategy: Strategy) -> str | None:
    """Identify a built-in path cost in the direction that makes it
    convergent, so hot loops can inline it: "sum" for the additive cost
    when minimizing, "min" for the bottleneck width when maximizing.
    None means the path cost must be called, and the engine checks after
    each repair that extending a path never improved it; that
    includes a built-in path cost selected in the other direction (a
    longest path, or a narrowest one), which does not converge."""
    if strategy.path_cost is _additive_path_cost and not strategy.maximize:
        return "sum"
    if strategy.path_cost is _width_path_cost and strategy.maximize:
        return "min"
    return None


def cost_typecode(strategy: Strategy) -> str | None:
    """The `array` typecode of a column that holds every path cost the
    strategy can form, or None where only a list does.  The additive cost
    from a float tautology over a built-in link cost is always a float,
    and so is the width of a float link cost from a float tautology: "d".
    hop_count's costs are its tautology's int plus one per hop, so an int
    tautology well inside int64 gives "q".  A custom path cost or link
    cost can form anything."""
    kind, taut = path_cost_kind(strategy), strategy.tautology_cost
    if kind == "sum" and strategy.link_cost in _LINK_COSTS and type(taut) is float:
        return "d"
    if kind == "min" and strategy.link_cost in _FLOAT_LINK_COSTS and type(taut) is float:
        return "d"
    if kind == "sum" and strategy.link_cost is _hop_link_cost and type(taut) is int:
        return "q" if abs(taut) < 2**62 else None
    return None


def builtin(name: str) -> Strategy:
    """One of the four built-in strategies: hop_count, sd_free_bw,
    sd_utilization, shortest_widest (CLI aliases accepted)."""
    canonical = _ALIASES.get(name, name)
    try:
        return _BUILTINS[canonical]()
    except KeyError:
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; expected one of {sorted(_BUILTINS)}"
        ) from None


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)
