"""secshap benchmark: per-protocol wall time, metered cost and a layer trace.

Drives the public API the way ``secshap run`` does (synthetic data,
Dirichlet partition, FedAvg, then nssv, hesv, secsv and secretsv, each
followed by ``report_to_json``), checks every output, and prints one
JSON result as the last line of standard output.

    python3 perfbench/run.py --workload stock --seed 1 --seconds 42 --trace 0

``--trace 0`` times untraced protocol runs, scales each time to a
reference machine speed (see ``speed.py``) and reports the end-to-end
metrics.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (see ``spans.py``).  The workload fixes the world (the
``ExperimentConfig``, data seed included); ``--seed`` seeds the
protocols' own randomness: HE noise, share masks, Beaver triples and the
key-distributing leader.  Workloads and metrics are described in
``NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = ("nssv", "hesv", "secsv", "secretsv")
TIMED = ("hesv", "secsv", "secretsv")  # nssv counts only inside eval_s
SETUPS_PER_RUN = 2
# Frozen here so that a later change to CostWeights does not redefine the metric.
HE_COST_WEIGHTS = {"hmult_c2c": 4, "hmult_c2p": 1, "hrot": 2}
FSV_NOISY_BOUND = 1e-3  # acceptance criterion 4, default-noise bound

STOCK = {
    "version": 1, "seed": 0, "clients": 5, "rounds": 3, "alpha": 0.5,
    "architecture": "logistic", "hidden": [30], "features": 48, "classes": 2,
    "test_samples": 500, "train_samples": 1000, "separation": 3.0,
    "local_epochs": 2, "learning_rate": 0.5, "grid_bits": 12,
    "slot_count": 2048, "noise_stddev": 1e-9, "prime": (1 << 61) - 1,
    "frac_bits": 16, "protocols": list(PROTOCOLS), "sample_skip": True,
    "batch_cap": 0, "ps_budget": 0, "workers": 1, "output_dir": "out",
}
WORKLOADS = {
    "stock": STOCK,
    "deep": {**STOCK, "architecture": "mlp", "hidden": [32, 16], "classes": 4,
             "rounds": 1, "test_samples": 100},
    "wide": {**STOCK, "clients": 8, "rounds": 1, "test_samples": 200,
             "train_samples": 800, "noise_stddev": 0.0},
}

END_TO_END_UNITS = {
    "setup_s": "s", "eval_s": "s", "hesv_s": "s", "secsv_s": "s",
    "secretsv_s": "s", "peak_rss_mb": "MiB", "hesv_he_cost": "ops",
    "secsv_he_cost": "ops", "hesv_traffic_mb": "MB", "secsv_traffic_mb": "MB",
    "secretsv_traffic_mb": "MB", "pass_ratio": "ratio",
}


def _per_layer_names() -> list[str]:
    layers = {
        "nssv": ("protocols", "federation", "models", "matrix", "parties", "shapley", "report"),
        "hesv": ("protocols", "federation", "models", "matrix", "hebackend", "kernels",
                 "parties", "shapley", "report"),
        "secsv": ("protocols", "federation", "models", "matrix", "hebackend", "kernels",
                  "sharing", "parties", "shapley", "report"),
        "secretsv": ("protocols", "federation", "models", "matrix", "sharing", "parties",
                     "shapley", "report"),
    }
    names = [f"{proto}.{layer}.{measure}" for proto in PROTOCOLS
             for layer in layers[proto] for measure in ("self_s", "calls")]
    names += [f"{proto}.hebackend.{op}" for proto in ("hesv", "secsv")
              for op in ("hmult_c2c", "hmult_c2p", "hrot", "hadd", "enc", "dec")]
    names += [f"{proto}.parties.bytes" for proto in PROTOCOLS]
    names += ["secretsv.sharing.triple_mults", "secretsv.sharing.dealer_bytes",
              "secsv.shapley.skip_fraction", "secsv.shapley.evaluated_samples",
              "setup.federation.self_s", "setup.models.self_s", "setup.matrix.self_s",
              "trace.overhead_s"]
    return names


PER_LAYER_UNITS = {
    name: ("s" if name.endswith("_s") else
           "B" if name.endswith("bytes") else
           "ratio" if name.endswith("fraction") else
           "ops" if name.split(".")[-1] in ("hmult_c2c", "hmult_c2p", "hrot", "hadd",
                                            "enc", "dec", "triple_mults") else "count")
    for name in _per_layer_names()
}


class SetupError(RuntimeError):
    """The checkout does not hold the package under test."""


def import_package():
    """Import ``secshap`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "secshap" / "__init__.py").is_file():
        raise SetupError(f"no secshap package under {src}")
    sys.path.insert(0, str(src))
    import secshap
    import secshap.cli

    if Path(secshap.__file__).resolve().parent != (src / "secshap").resolve():
        raise SetupError(f"imported secshap from {secshap.__file__}, not from {src}")
    return secshap


def blas_threads() -> str:
    """Thread count OpenBLAS reports, or the requested count if it cannot be asked."""
    import ctypes
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{BLAS_THREADS} (requested)"


def machine_line() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


# -- the pipeline -------------------------------------------------------------


@dataclass
class Outcome:
    start: float
    end: float
    report: object = None
    text: str | None = None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest() if self.text else ""


def public_api(secshap) -> dict:
    return {
        "make_synthetic_dataset": secshap.make_synthetic_dataset,
        "dirichlet_partition": secshap.dirichlet_partition,
        "fedavg_train": secshap.fedavg_train,
        "run_nssv": secshap.run_nssv,
        "run_hesv": secshap.run_hesv,
        "run_secsv": secshap.run_secsv,
        "run_secretsv": secshap.run_secretsv,
        "report_to_json": secshap.report_to_json,
    }


def prepare_world(api, config):
    """Data and FedAvg history, exactly as ``secshap run`` builds them."""
    test_pool = api["make_synthetic_dataset"](
        config.test_samples, config.features, config.classes,
        seed=config.seed + 1, separation=config.separation,
        grid_bits=config.grid_bits, centers_seed=config.seed,
    )
    test_sets = api["dirichlet_partition"](test_pool, config.clients, config.alpha,
                                           seed=config.seed + 2)
    train_pool = api["make_synthetic_dataset"](
        config.train_samples, config.features, config.classes,
        seed=config.seed + 3, separation=config.separation,
        grid_bits=config.grid_bits, centers_seed=config.seed,
    )
    train_sets = api["dirichlet_partition"](train_pool, config.clients, config.alpha,
                                            seed=config.seed + 4)
    rounds = api["fedavg_train"](
        train_sets, config.build_architecture(), config.rounds,
        local_epochs=config.local_epochs, lr=config.learning_rate,
        seed=config.seed + 5, grid_bits=config.grid_bits,
    )
    return test_sets, rounds


def protocol_calls(secshap, api, config, world, seed) -> dict:
    """One thunk per protocol, called as ``secshap run`` calls it."""
    test_sets, rounds = world
    he = secshap.HEParams(config.slot_count, config.noise_stddev, seed)
    fieldp = secshap.FieldParams(config.prime, config.frac_bits, seed)
    weights = secshap.CostWeights()
    return {
        "nssv": lambda: api["run_nssv"](rounds, test_sets, weights, seed=seed,
                                        workers=config.workers),
        "hesv": lambda: api["run_hesv"](rounds, test_sets, he, weights, seed=seed,
                                        workers=config.workers),
        "secsv": lambda: api["run_secsv"](
            rounds, test_sets, he, fieldp, skip=config.sample_skip,
            cost_weights=weights, seed=seed, workers=config.workers,
        ),
        "secretsv": lambda: api["run_secretsv"](
            rounds, test_sets, fieldp, weights, seed=seed,
            batch_capacity=config.batch_cap or 512, workers=config.workers,
        ),
    }


def run_protocol(api, call) -> Outcome:
    """One protocol run, timed up to its JSON report."""
    started = time.perf_counter()
    try:
        report = call()
        text = api["report_to_json"](report)
    except Exception as exc:  # a failed protocol run is counted, not fatal
        return Outcome(started, time.perf_counter(), error=f"{type(exc).__name__}: {exc}")
    return Outcome(started, time.perf_counter(), report, text)


def run_pass(secshap, api, config, world, seed, tracer=None) -> dict[str, Outcome]:
    """All four protocols, one at a time."""
    calls = protocol_calls(secshap, api, config, world, seed)
    outcomes = {}
    for proto in PROTOCOLS:
        if tracer is not None:
            tracer.protocol = proto
        outcomes[proto] = run_protocol(api, calls[proto])
    return outcomes


# -- output checks --------------------------------------------------------------


def secretsv_fsv_bound(config) -> float:
    """FSV error allowed for secretsv: one flipped prediction per utility.

    secretsv differs from nssv only by fixed-point truncation (at most one
    unit in the last place per product), which can flip a prediction only
    where two class scores nearly tie.  Allowing one flip per subset
    utility moves each utility by at most 1/M, each single-round value by
    at most 2/M (its weights sum to 1), each final value by at most 2T/M,
    and the Euclidean norm over n clients by at most 2T*sqrt(n)/M.
    """
    return 2 * config.rounds * math.sqrt(config.clients) / config.test_samples


def check_outcome(secshap, proto, outcome, nssv, config) -> list[str]:
    """Problems with one protocol run; empty when it passed."""
    if outcome.error is not None:
        return [f"{proto} raised {outcome.error}"]
    report = outcome.report
    problems = []
    for rnd in report.rounds:
        if len(rnd.utilities) != 2 ** len(rnd.players):
            problems.append(f"{proto}: round {rnd.round_index} utility table incomplete")
            continue
        if not all(0.0 <= v <= 1.0 for v in rnd.utilities.values()):
            problems.append(f"{proto}: round {rnd.round_index} utility outside [0, 1]")
        # efficiency axiom: the single-round values share v(N) - v(empty)
        gain = rnd.utilities[frozenset(rnd.players)] - rnd.utilities[frozenset()]
        if abs(sum(rnd.ssv.values()) - gain) > 1e-9:
            problems.append(f"{proto}: round {rnd.round_index} values break efficiency")
    if any(not actor.startswith("client_") for actor in report.decrypt_actors):
        problems.append(f"{proto}: a server decrypted")
    if proto == "nssv" or nssv.report is None:
        return problems
    error = secshap.fsv_error(report.fsv, nssv.report.fsv)
    if proto == "secretsv":
        bound = secretsv_fsv_bound(config)
        if error > bound:
            problems.append(f"secretsv: FSV error {error:.3g} > one-flip bound {bound:.3g}")
    elif config.noise_stddev == 0.0:
        for mine, truth in zip(report.rounds, nssv.report.rounds):
            if mine.utilities != truth.utilities:
                problems.append(f"{proto}: round {mine.round_index} utilities differ "
                                f"from nssv with noise off")
    elif error > FSV_NOISY_BOUND:
        problems.append(f"{proto}: FSV error {error:.3g} > {FSV_NOISY_BOUND}")
    if proto == "secsv" and report.meter.hmult_c2c:
        problems.append("secsv: ciphertext-ciphertext multiplications metered")
    return problems


def meter_counts(outcome) -> dict | None:
    return outcome.report.meter.as_dict() if outcome.report is not None else None


def check_run(secshap, proto, outcome, nssv, config, reference=None) -> list[str]:
    """Checks of one run; with ``reference``, also byte-identity to that run."""
    try:
        found = check_outcome(secshap, proto, outcome, nssv, config)
    except (KeyError, ValueError) as exc:
        found = [f"{proto}: check could not read the report: {exc!r}"]
    if reference is not None and outcome.report is not None:
        if outcome.digest != reference.digest:
            found.append(f"{proto}: report digest differs from the same-seed reference")
        if meter_counts(outcome) != meter_counts(reference):
            found.append(f"{proto}: meter counts differ from the same-seed reference")
    return found


# -- metrics --------------------------------------------------------------------


def he_cost(outcome) -> int:
    if outcome.report is None:
        return 0
    meter = outcome.report.meter
    return sum(w * getattr(meter, op) for op, w in HE_COST_WEIGHTS.items())


def traffic_mb(outcome) -> float:
    return outcome.report.meter.total_bytes() / 1e6 if outcome.report is not None else 0.0


def end_to_end(setup_times, times, runs, attempted, failed) -> dict:
    """The end-to-end metrics; ``times`` holds each protocol's scaled run times."""
    median = {proto: statistics.median(times[proto]) for proto in PROTOCOLS}
    return {
        "setup_s": statistics.median(setup_times),
        "eval_s": sum(median.values()),
        "hesv_s": median["hesv"],
        "secsv_s": median["secsv"],
        "secretsv_s": median["secretsv"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hesv_he_cost": he_cost(runs["hesv"][0]),
        "secsv_he_cost": he_cost(runs["secsv"][0]),
        "hesv_traffic_mb": traffic_mb(runs["hesv"][0]),
        "secsv_traffic_mb": traffic_mb(runs["secsv"][0]),
        "secretsv_traffic_mb": traffic_mb(runs["secretsv"][0]),
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(summary, traced, overhead) -> dict:
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for (proto, layer, measure), value in summary.items():
        name = f"{proto}.{layer}.{measure}"
        if name in values:
            values[name] = value
    secretsv, secsv = traced["secretsv"].report, traced["secsv"].report
    if secretsv is not None:
        values["secretsv.sharing.dealer_bytes"] = secretsv.shares_gen_bytes()
    if secsv is not None:
        skip = secsv.skip_totals()
        values["secsv.shapley.skip_fraction"] = skip["fraction"]
        values["secsv.shapley.evaluated_samples"] = skip["evaluated"]
    values["trace.overhead_s"] = overhead
    return values


# -- modes --------------------------------------------------------------------


def timed_setup(api, config, spans: list):
    started = time.perf_counter()
    world = prepare_world(api, config)
    spans.append((started, time.perf_counter()))
    return world


def measure(secshap, config, seed, seconds, log):
    """Untraced protocol runs for ``seconds``, spread over the whole window.

    The first pass runs all four protocols in order.  After it, the next run
    goes to the timed protocol (``TIMED``) with the least run
    time so far among those whose last slot still fits in the time left, so
    short protocols collect many samples between the long ones; the run
    ends when none fits.  A slot is ``SETUPS_PER_RUN`` set-ups plus the
    protocol run, so ``setup_s`` is a median over the whole window too.
    Every set-up and run is timed under the speed meter and reported at the
    reference speed (see ``speed.py``).
    """
    from speed import SpeedMeter

    api = public_api(secshap)
    setup_spans: list[tuple[float, float]] = []
    runs: dict[str, list[Outcome]] = {proto: [] for proto in PROTOCOLS}
    slot: dict[str, float] = {}
    problems = []
    with SpeedMeter() as meter:
        world = timed_setup(api, config, setup_spans)
        calls = protocol_calls(secshap, api, config, world, seed)
        window = time.perf_counter()
        while True:
            pending = [p for p in PROTOCOLS if not runs[p]]
            left = seconds - (time.perf_counter() - window)
            fits = [p for p in TIMED if not pending and slot[p] <= left]
            if not pending and not fits:
                break
            proto = pending[0] if pending else min(
                fits, key=lambda p: sum(o.seconds for o in runs[p]))
            started = time.perf_counter()
            for _ in range(SETUPS_PER_RUN):
                timed_setup(api, config, setup_spans)
            outcome = run_protocol(api, calls[proto])
            slot[proto] = time.perf_counter() - started
            nssv = runs["nssv"][0] if runs["nssv"] else outcome
            reference = runs[proto][0] if runs[proto] else None
            problems.append(check_run(secshap, proto, outcome, nssv, config, reference))
            runs[proto].append(outcome)
        log(f"runs in {time.perf_counter() - window:.2f} s; set-ups: {len(setup_spans)}")
    setup_times = [meter.scaled(*span) for span in setup_spans]
    times = {proto: [meter.scaled(o.start, o.end) for o in runs[proto]] for proto in PROTOCOLS}
    log(f"speed meter: {len(meter.durations)} probes, median {meter.median_probe_s() * 1e6:.1f} us")
    for proto in PROTOCOLS:
        log(f"{proto} wall times (s): " + " ".join(f"{o.seconds:.4f}" for o in runs[proto]))
        log(f"{proto} scaled times (s): " + " ".join(f"{t:.4f}" for t in times[proto]))
    attempted, failed = tally(problems, log)
    return end_to_end(setup_times, times, runs, attempted, failed), attempted, failed


def measure_traced(secshap, config, seed, log):
    """One untraced and one traced pass; the trace must not change the results."""
    from spans import Tracer, layer_of

    api = public_api(secshap)
    started = time.perf_counter()
    world = prepare_world(api, config)
    untraced = run_pass(secshap, api, config, world, seed)
    untraced_wall = time.perf_counter() - started
    problems = [check_run(secshap, p, untraced[p], untraced["nssv"], config)
                for p in PROTOCOLS]

    tracer = Tracer()
    tracer.install(secshap)
    try:
        traced_api = {key: tracer.wrap(fn, f"{layer_of(fn.__module__)}.{key}")
                      for key, fn in api.items()}
        started = time.perf_counter()
        traced_world = prepare_world(traced_api, config)
        traced = run_pass(secshap, traced_api, config, traced_world, seed, tracer)
        traced_wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    traced_problems = {p: check_run(secshap, p, traced[p], traced["nssv"], config, untraced[p])
                       for p in PROTOCOLS}

    summary = tracer.summary()
    for proto in PROTOCOLS:
        layer_total = sum(v for (p, _, m), v in summary.items() if p == proto and m == "self_s")
        root = tracer.root_seconds(proto)
        log(f"{proto}: untraced {untraced[proto].seconds:.3f} s, traced {traced[proto].seconds:.3f} s, "
            f"sum of layer self times {layer_total:.3f} s")
        if abs(layer_total - root) > 1e-6 * max(1.0, root):
            traced_problems[proto].append(f"{proto}: layer self times do not add up to the span")
    attempted, failed = tally(problems + list(traced_problems.values()), log)
    return per_layer(summary, traced, traced_wall - untraced_wall), attempted, failed


def tally(problems, log) -> tuple[int, int]:
    """(attempted, failed) from one list of problems per protocol run."""
    for found in problems:
        for line in found:
            log(f"CHECK FAILED {line}")
    return len(problems), sum(bool(found) for found in problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        secshap = import_package()
    except (SetupError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    config = secshap.cli.ExperimentConfig(**WORKLOADS[args.workload])
    errors = config.validate()
    if errors:
        print(f"workload {args.workload} is not a valid config: {errors}", file=sys.stderr)
        return 2

    def log(line):
        print(line, flush=True)

    log("machine: " + json.dumps(machine_line(), sort_keys=True))
    log(f"workload: {args.workload} seed={args.seed} config="
        + json.dumps(json.loads(config.to_json()), sort_keys=True))
    if args.trace:
        metrics, attempted, failed = measure_traced(secshap, config, args.seed, log)
        units = PER_LAYER_UNITS
    else:
        metrics, attempted, failed = measure(secshap, config, args.seed, args.seconds, log)
        units = END_TO_END_UNITS
        log(f"{'fail_ratio':36s} {failed / attempted!r} (protocol runs failed / attempted)")
    for name, value in metrics.items():
        log(f"{name:36s} {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
