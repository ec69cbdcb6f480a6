"""Run reports: utilities, contribution values, metered costs.

Serialization is deliberately deterministic (sorted keys, no
timestamps) so that identical seeds produce byte-identical files.
Wall-clock timing lives only on the in-memory object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .hebackend import CostMeter, CostWeights
from .shapley import subsets_ascending

__all__ = ["RoundReport", "ContributionReport", "report_to_json"]


@dataclass
class RoundReport:
    round_index: int
    players: tuple[int, ...]
    utilities: dict  # frozenset -> float
    ssv: dict  # client -> float
    skipped: int = 0
    evaluated: int = 0
    skipped_by_cardinality: dict = field(default_factory=dict)  # |S| -> skipped count
    evaluated_by_cardinality: dict = field(default_factory=dict)

    def aggregate_skip_fraction(self) -> float:
        """Skipped share of sample-evaluations over aggregated models (|S| >= 2)."""
        skipped = sum(v for k, v in self.skipped_by_cardinality.items() if k >= 2)
        evaluated = sum(v for k, v in self.evaluated_by_cardinality.items() if k >= 2)
        return skipped / (skipped + evaluated) if skipped + evaluated else 0.0

    def to_json_dict(self) -> dict:
        ordered = [
            {"subset": sorted(s), "v": self.utilities[s]}
            for s in subsets_ascending(self.players)
            if s in self.utilities
        ]
        out = {
            "round": self.round_index,
            "players": sorted(self.players),
            "utilities": ordered,
            "ssv": {str(i): self.ssv[i] for i in sorted(self.ssv)},
        }
        if self.skipped or self.evaluated:
            out["skip"] = {
                "skipped": self.skipped,
                "evaluated": self.evaluated,
                "aggregate_fraction": self.aggregate_skip_fraction(),
                "skipped_by_cardinality": {
                    str(k): self.skipped_by_cardinality[k]
                    for k in sorted(self.skipped_by_cardinality)
                },
                "evaluated_by_cardinality": {
                    str(k): self.evaluated_by_cardinality[k]
                    for k in sorted(self.evaluated_by_cardinality)
                },
            }
        return out


@dataclass
class ContributionReport:
    protocol: str
    clients: tuple[int, ...]
    total_samples: int
    rounds: list[RoundReport]
    fsv: dict
    meter: CostMeter
    cost_weights: CostWeights
    decrypt_actors: tuple[str, ...] = ()
    wall_seconds: float | None = None  # in-memory only, never serialized

    @property
    def weighted_cost(self) -> float:
        return self.cost_weights.weighted(self.meter)

    @property
    def arithmetic_cost(self) -> float:
        return self.cost_weights.arithmetic_only(self.meter)

    def shares_gen_bytes(self) -> int:
        return sum(
            nbytes for (sender, _), nbytes in self.meter.bytes_sent.items()
            if sender == "dealer"
        )

    def skip_totals(self) -> dict:
        skipped = sum(r.skipped for r in self.rounds)
        evaluated = sum(r.evaluated for r in self.rounds)
        return {
            "skipped": skipped,
            "evaluated": evaluated,
            "fraction": skipped / (skipped + evaluated) if skipped + evaluated else 0.0,
        }

    def to_json_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "clients": sorted(self.clients),
            "total_samples": self.total_samples,
            "rounds": [r.to_json_dict() for r in self.rounds],
            "fsv": {str(i): self.fsv[i] for i in sorted(self.fsv)},
            "costs": {
                "meter": self.meter.as_dict(),
                "weighted_total": self.weighted_cost,
                "arithmetic_weighted": self.arithmetic_cost,
                "comm_bytes": self.meter.total_bytes(),
                "shares_gen_bytes": self.shares_gen_bytes(),
            },
            "skip_totals": self.skip_totals(),
            "decrypt_actors": sorted(set(self.decrypt_actors)),
        }


def report_to_json(report: ContributionReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
