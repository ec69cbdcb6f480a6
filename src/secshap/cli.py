"""Experiment driver.

Subcommands:

- ``run``: generate (or load) data, train the federation, run the
  selected protocols, write one report per protocol plus a comparison
  summary.  Identical seeds produce byte-identical report files.
- ``bench-matmul``: per-shape operation counts for both multiplication
  kernels at maximal legal batches, in both encrypted-batch ("full")
  and plaintext-batch ("half") modes.
- ``gen-data``: emit per-client CSV test sets for inspection or reuse.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .federation import dirichlet_partition, fedavg_train, make_synthetic_dataset, save_dataset_csv
from .hebackend import CostWeights, HEContext, HEParams
from .kernels import (
    plan_reducing,
    plan_squaring,
    reducing_matmul,
    reducing_max_batch,
    reducing_prepare_batch,
    reducing_prepare_model,
    squaring_matmul,
    squaring_max_batch,
    squaring_prepare_batch,
    squaring_prepare_model,
    PlanError,
)
from .models import arch_cnn_like, arch_logistic, arch_mlp
from .protocols import (run_hesv, run_nssv, run_secretsv, run_secsv, secsv_headroom_error,
                        secsv_slot_error, workers_error)
from .report import ContributionReport, report_to_json
from .sharing import DEFAULT_PRIME, FieldParams, secretsv_headroom_error
from .shapley import fsv_error, permutation_sampling_ssv, fsv_aggregate

CONFIG_VERSION = 1
KNOWN_PROTOCOLS = ("nssv", "hesv", "secsv", "secretsv")
ARCHITECTURES = ("logistic", "mlp", "cnn_like")


@dataclass
class ExperimentConfig:
    """All the knobs of one experiment; round-trips losslessly through JSON."""

    version: int = CONFIG_VERSION
    seed: int = 0
    clients: int = 5
    rounds: int = 3
    alpha: float = 0.5
    architecture: str = "logistic"
    hidden: list = field(default_factory=lambda: [30])
    features: int = 48
    classes: int = 2
    test_samples: int = 500
    train_samples: int = 1000
    separation: float = 3.0
    local_epochs: int = 2
    learning_rate: float = 0.5
    grid_bits: int = 12
    slot_count: int = 2048
    noise_stddev: float = 1e-9
    prime: int = DEFAULT_PRIME
    frac_bits: int = 16
    protocols: list = field(default_factory=lambda: ["nssv", "hesv", "secsv", "secretsv"])
    sample_skip: bool = True
    batch_cap: int = 0  # caps secretsv's batches only; 0 means 512
    ps_budget: int = 0  # 0 means clients * ceil(log2(clients)) permutations
    workers: int = 1  # deprecated: rounds run in order, so it must be 1
    output_dir: str = "out"

    def validate(self) -> list[str]:
        # every rule below reads the int fields as integers, so a wrong type stops here
        errors = [f"{f.name}: must be an integer, got {value!r}" for f in fields(self)
                  if f.type in (int, "int") and type(value := getattr(self, f.name)) is not int]
        if errors:
            return errors
        if self.version != CONFIG_VERSION:
            errors.append(f"version: expected {CONFIG_VERSION}, got {self.version}")
        if self.seed < 0:
            errors.append(f"seed: must be non-negative, got {self.seed}")
        if self.clients < 4:
            errors.append("clients: secure protocols need at least 4 clients")
        if self.rounds < 1:
            errors.append("rounds: need at least one training round")
        if self.local_epochs < 0:
            errors.append(f"local_epochs: must be non-negative, got {self.local_epochs}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            errors.append("alpha: Dirichlet concentration must be finite and positive")
        if not math.isfinite(self.learning_rate):
            errors.append("learning_rate: must be finite")
        if not (math.isfinite(self.separation) and self.separation >= 0):
            errors.append("separation: must be finite and non-negative")
        if self.architecture == "mlp" and any(
            not isinstance(h, int) or h < 1 for h in self.hidden
        ):
            errors.append(f"hidden: layer sizes must be positive integers, got {self.hidden}")
        if self.architecture not in ARCHITECTURES:
            errors.append(f"architecture: unknown {self.architecture!r}, "
                          f"expected one of {ARCHITECTURES}")
        if self.architecture == "cnn_like" and (self.features, self.classes) != (256, 10):
            errors.append("architecture: cnn_like requires features=256 and classes=10")
        if self.features < 1 or self.classes < 2:
            errors.append("features/classes: need features >= 1 and classes >= 2")
        if self.test_samples < self.clients:
            errors.append("test_samples: need at least one sample per client")
        if self.train_samples < self.clients:
            errors.append("train_samples: need at least one sample per client")
        n = self.slot_count
        if n < 1 or n & (n - 1):
            errors.append("slot_count: must be a power of two")
        if not (math.isfinite(self.noise_stddev) and self.noise_stddev >= 0):
            errors.append("noise_stddev: must be finite and non-negative")
        # FieldParams states the rule of each field parameter; check them one at a time
        for name, value in (("prime", self.prime), ("frac_bits", self.frac_bits)):
            try:
                FieldParams(**{name: value})
            except ValueError as exc:
                errors.append(str(exc))
        if self.grid_bits < 1 or self.grid_bits > self.frac_bits:
            errors.append("grid_bits: must be in [1, frac_bits]")
        products = secretsv_headroom_error(self.frac_bits)
        if "secretsv" in self.protocols and products:
            errors.append(products)
        headroom = secsv_headroom_error(self.frac_bits)
        if "secsv" in self.protocols and headroom:
            errors.append(headroom)
        unbuildable = any(e.startswith(("architecture:", "hidden:", "features/")) for e in errors)
        if "secsv" in self.protocols and not unbuildable:
            slots = secsv_slot_error(self.slot_count, self.build_architecture())
            if slots:
                errors.append(slots)
        for proto in self.protocols:
            if proto not in KNOWN_PROTOCOLS:
                errors.append(f"protocols: unknown protocol {proto!r}")
        workers = workers_error(self.workers)
        if workers:
            errors.append(workers)
        if self.batch_cap < 0 or self.ps_budget < 0:
            errors.append("batch_cap/ps_budget: must be non-negative")
        return errors

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        raw = json.loads(text)
        known = {f for f in ExperimentConfig.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return ExperimentConfig(**raw)

    def build_architecture(self):
        if self.architecture == "logistic":
            return arch_logistic(self.features, self.classes)
        if self.architecture == "mlp":
            return arch_mlp(self.features, self.classes, list(self.hidden))
        return arch_cnn_like(self.features, self.classes)


def _prepare_experiment(config: ExperimentConfig):
    test_pool = make_synthetic_dataset(
        config.test_samples, config.features, config.classes,
        seed=config.seed + 1, separation=config.separation,
        grid_bits=config.grid_bits, centers_seed=config.seed,
    )
    test_sets = dirichlet_partition(test_pool, config.clients, config.alpha, seed=config.seed + 2)
    train_pool = make_synthetic_dataset(
        config.train_samples, config.features, config.classes,
        seed=config.seed + 3, separation=config.separation,
        grid_bits=config.grid_bits, centers_seed=config.seed,
    )
    train_sets = dirichlet_partition(train_pool, config.clients, config.alpha, seed=config.seed + 4)
    rounds = fedavg_train(
        train_sets, config.build_architecture(), config.rounds,
        local_epochs=config.local_epochs, lr=config.learning_rate,
        seed=config.seed + 5, grid_bits=config.grid_bits,
    )
    return test_sets, rounds


def _run_protocols(config: ExperimentConfig, rounds, test_sets) -> dict[str, ContributionReport]:
    he = HEParams(config.slot_count, config.noise_stddev, config.seed)
    fieldp = FieldParams(config.prime, config.frac_bits, config.seed)
    weights = CostWeights()
    reports: dict[str, ContributionReport] = {}
    for proto in config.protocols:
        if proto == "nssv":
            reports[proto] = run_nssv(rounds, test_sets, weights, seed=config.seed)
        elif proto == "hesv":
            reports[proto] = run_hesv(rounds, test_sets, he, weights, seed=config.seed)
        elif proto == "secsv":
            reports[proto] = run_secsv(
                rounds, test_sets, he, fieldp, skip=config.sample_skip,
                cost_weights=weights, seed=config.seed,
            )
        elif proto == "secretsv":
            reports[proto] = run_secretsv(
                rounds, test_sets, fieldp, weights, seed=config.seed,
                batch_capacity=config.batch_cap or 512,
            )
    return reports


def _summarize(config: ExperimentConfig, report_dicts: dict[str, dict]) -> dict:
    """Comparison summary; every number is derived from the report files."""
    summary: dict = {"config_seed": config.seed, "protocols": sorted(report_dicts)}
    costs = {name: d["costs"]["weighted_total"] for name, d in report_dicts.items()}
    summary["weighted_costs"] = {k: costs[k] for k in sorted(costs)}
    if "hesv" in costs:
        summary["cost_ratio_vs_hesv"] = {
            k: (costs["hesv"] / costs[k] if costs[k] else None) for k in sorted(costs)
        }
    if "nssv" in report_dicts:
        exact = {int(i): v for i, v in report_dicts["nssv"]["fsv"].items()}
        summary["fsv_error_vs_nssv"] = {}
        for name, d in sorted(report_dicts.items()):
            if name == "nssv":
                continue
            estimate = {int(i): v for i, v in d["fsv"].items()}
            summary["fsv_error_vs_nssv"][name] = fsv_error(estimate, exact)
        # permutation-sampling estimate from the recorded utility tables
        budget = config.ps_budget or config.clients * max(1, math.ceil(math.log2(config.clients)))
        per_round = []
        for round_dict in report_dicts["nssv"]["rounds"]:
            lookup = {
                frozenset(entry["subset"]): entry["v"]
                for entry in round_dict["utilities"]
            }
            per_round.append(permutation_sampling_ssv(
                lambda s: lookup[frozenset(s)], sorted(round_dict["players"]),
                budget, np.random.default_rng(config.seed),
            ))
        ps = fsv_aggregate(per_round)
        for i in exact:
            ps.setdefault(i, 0.0)
        summary["permutation_sampling"] = {
            "budget": budget,
            "fsv_error_vs_exact": fsv_error(ps, exact),
        }
    skips = {
        name: d["skip_totals"] for name, d in sorted(report_dicts.items())
        if d["skip_totals"]["skipped"]
    }
    if skips:
        summary["skip_totals"] = skips
    return summary


def cmd_run(args) -> int:
    config_text = Path(args.config).read_text() if args.config else None
    config = ExperimentConfig.from_json(config_text) if config_text else ExperimentConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    errors = config.validate()
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(config.to_json())
    test_sets, rounds = _prepare_experiment(config)
    reports = _run_protocols(config, rounds, test_sets)
    report_dicts = {}
    for name, report in reports.items():
        path = out_dir / f"report_{name}.json"
        path.write_text(report_to_json(report))
        report_dicts[name] = json.loads(path.read_text())
        wall = f"{report.wall_seconds:.2f}s" if report.wall_seconds is not None else "-"
        print(f"{name}: wrote {path} (wall {wall})", file=sys.stderr)
    summary = _summarize(config, report_dicts)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(f"summary: wrote {out_dir / 'summary.json'}", file=sys.stderr)
    return 0


def bench_shape(d_out: int, d_in: int, slot_count: int, weights: CostWeights) -> list[dict]:
    """Meter both kernels on one shape, full (encrypted batch) and half modes."""
    from .hebackend import generate_keypair

    rows = []
    keys = generate_keypair(f"bench-{d_out}x{d_in}")
    rng = np.random.default_rng(d_out * 10007 + d_in)
    a = rng.integers(-4, 5, size=(d_out, d_in)).astype(float)
    for mode, encrypt_batch in (("full", True), ("half", False)):
        per_sample = {}
        for method in ("squaring", "reducing"):
            ctx = HEContext(HEParams(slot_count=slot_count))
            if method == "squaring":
                m = squaring_max_batch(d_in, slot_count)
                plan = plan_squaring(d_out, d_in, m, slot_count)
                b = rng.integers(-4, 5, size=(d_in, m)).astype(float)
                model = squaring_prepare_model(a, plan, ctx, keys.public)
                before = ctx.meter.snapshot()
                batch = squaring_prepare_batch(b, plan, ctx, keys.public, encrypt=encrypt_batch)
                squaring_matmul(model, batch, plan, ctx)
            else:
                m = reducing_max_batch(d_out, slot_count)
                plan = plan_reducing(d_out, d_in, m, slot_count)
                b = rng.integers(-4, 5, size=(d_in, m)).astype(float)
                model = reducing_prepare_model(a, plan, ctx, keys.public)
                before = ctx.meter.snapshot()
                batch = reducing_prepare_batch(b, plan, ctx, keys.public, encrypt=encrypt_batch)
                reducing_matmul(model, batch, plan, ctx)
            delta = ctx.meter.delta(before)
            cost = weights.arithmetic_only(delta)
            per_sample[method] = cost / m
            rows.append({
                "shape": f"{d_out}x{d_in}",
                "d_out": d_out,
                "d_in": d_in,
                "mode": mode,
                "method": method,
                "batch": m,
                "hmult_c2c": delta.hmult_c2c,
                "hmult_c2p": delta.hmult_c2p,
                "hrot": delta.hrot,
                "hadd": delta.hadd,
                "weighted_per_sample": cost / m,
                "expected_hmult": plan.expected_hmult(),
                "expected_hrot": plan.expected_hrot(),
            })
        ratio = (per_sample["squaring"] / per_sample["reducing"]
                 if per_sample["reducing"] else None)
        for row in rows[-2:]:
            row["ratio_squaring_over_reducing"] = ratio
    return rows


BENCH_COLUMNS = [
    "shape", "d_out", "d_in", "mode", "method", "batch",
    "hmult_c2c", "hmult_c2p", "hrot", "hadd",
    "weighted_per_sample", "expected_hmult", "expected_hrot",
    "ratio_squaring_over_reducing",
]


def cmd_bench_matmul(args) -> int:
    import csv

    weights = CostWeights()
    rows = []
    for token in args.shapes:
        try:
            d_out, d_in = (int(part) for part in token.lower().split("x"))
        except ValueError:
            print(f"warning: cannot parse shape {token!r}, expected OUTxIN", file=sys.stderr)
            continue
        try:
            rows.extend(bench_shape(d_out, d_in, args.slots, weights))
        except PlanError as exc:
            print(f"warning: skipping shape {token}: {exc}", file=sys.stderr)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {out_path} ({len(rows)} rows)", file=sys.stderr)
    return 0 if rows else 1


def cmd_gen_data(args) -> int:
    pool = make_synthetic_dataset(
        args.samples, args.features, args.classes,
        seed=args.seed + 1, separation=args.separation, centers_seed=args.seed,
    )
    parts = dirichlet_partition(pool, args.clients, args.alpha, seed=args.seed + 2)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"clients": args.clients, "classes": args.classes, "files": []}
    for i, ds in enumerate(parts):
        path = out_dir / f"client_{i}.csv"
        save_dataset_csv(ds, path)
        manifest["files"].append({"client": i, "path": path.name, "samples": ds.size})
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    print(f"wrote {args.clients} client files under {out_dir}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secshap",
        description="Secure federated contribution-evaluation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the configured protocols and write reports")
    p_run.add_argument("--config", help="JSON config file (defaults used when omitted)")
    p_run.add_argument("--seed", type=int, help="override the config seed")
    p_run.add_argument("--out", help="output directory")
    p_run.set_defaults(fn=cmd_run)

    p_bench = sub.add_parser("bench-matmul", help="kernel operation-count benchmark")
    p_bench.add_argument("shapes", nargs="+", help="matrix shapes like 64x256")
    p_bench.add_argument("--slots", type=int, default=2048)
    p_bench.add_argument("--out", default="bench_matmul.csv")
    p_bench.set_defaults(fn=cmd_bench_matmul)

    p_gen = sub.add_parser("gen-data", help="emit per-client CSV test sets")
    p_gen.add_argument("--clients", type=int, default=5)
    p_gen.add_argument("--samples", type=int, default=500)
    p_gen.add_argument("--features", type=int, default=16)
    p_gen.add_argument("--classes", type=int, default=4)
    p_gen.add_argument("--alpha", type=float, default=0.5)
    p_gen.add_argument("--separation", type=float, default=3.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="data")
    p_gen.set_defaults(fn=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
