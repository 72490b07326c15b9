"""fanocalc benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from any directory; the program is imported from `src` of the
checkout that holds this file.  Workloads (see BENCHMARK.json):

  cli-session     one fresh interpreter per README command
  classify-sweep  threshold decisions and enumerator calls, in process
  ring-eval       ring expressions, reduce and basis changes, in process

Each workload is a closed loop with one client.  Its inputs come from
--seed.  Ops are run in whole decks until they have been on the clock for
about --seconds in reference-host units; each op's output is checked off
the clock, and a seeded sample is checked against sympy or mpmath after
the loop.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number
of decks, each once untraced and once with spans around the program's
public functions, and prints the per-layer metrics: calls and self time
per function, the tracing overhead, and the fixed probes in probes.py.
Spans are written to bench/out/.  All times are in reference-host units
(common.HostSpeed).  The last line of standard output is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import random
import statistics
import sys
import time

import common

WORKLOADS = {
    "cli-session": "cli_session",
    "classify-sweep": "classify_sweep",
    "ring-eval": "ring_eval",
}
SETUP_SAMPLES = 7
# Decks in the traced run, per 10 s of --seconds: fixed, so that the
# counts repeat exactly for a given seed and run length.
TRACED_DECKS_PER_10S = {"cli-session": 1, "classify-sweep": 10,
                        "ring-eval": 20}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(name: str, seed: int) -> float:
    """Seconds to import the workload (and with it fanocalc) and run its
    set-up."""
    t0 = time.perf_counter()
    importlib.import_module(WORKLOADS[name]).setup(seed)
    return time.perf_counter() - t0


def setup_seconds(name: str, seed: int) -> float:
    """Median of SETUP_SAMPLES set-ups, each in a fresh interpreter and
    each scaled by an interpreter start right after it (common.HostSpeed).
    On cli-session a set-up is interpreter start plus `import
    fanocalc.cli`; on the others it is the import of the workload and
    its set-up, timed inside the child."""
    cli = name == "cli-session"
    argv = [sys.executable, "-c", "import fanocalc.cli"] if cli else \
        [sys.executable, str(common.BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-child"]
    host = common.HostSpeed.for_interpreters()
    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, code, out, err = common.spawn(argv)
        if code != 0:
            raise RuntimeError(f"set-up child failed: {err.decode()[-800:]}")
        samples.append((wall if cli else float(out)) / host.measure())
    return statistics.median(samples)


def untraced(name: str, seed: int, seconds: float) -> int:
    setup_s = setup_seconds(name, seed)
    module = importlib.import_module(WORKLOADS[name])
    state = module.setup(seed)
    module.prepare_checks(state)
    rng = random.Random(seed)
    host = common.HostSpeed.for_interpreters() if name == "cli-session" \
        else common.HostSpeed.for_python()
    tally = common.run_closed_loop(
        lambda: module.make_deck(state, rng),
        lambda op: module.run_op(state, op),
        lambda op, out: module.check_op(state, op, out), seconds, host)
    rss = module.peak_rss_mb(state) if hasattr(module, "peak_rss_mb") \
        else common.self_peak_rss_mb()
    module.final_checks(state, tally)
    # Times in reference-host units: see common.HostSpeed.
    values = {
        "ops_per_s": tally.binned / tally.scaled_seconds,
        "op_ms.p50": tally.percentile(50) * 1000,
        "op_ms.p90": tally.percentile(90) * 1000,
        "op_ms.p99": tally.percentile(99) * 1000,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "ok_rate": max(0.0, 1 - tally.failed / tally.attempted),
    }
    report_failures(tally)
    common.note(f"host speed factor {host.factor():.4f} from "
                f"{len(host.samples)} samples; raw ops/s "
                f"{tally.attempted / tally.busy_seconds:.6g}")
    common.emit(tally.failed == 0, tally.attempted, tally.failed, values,
                "end_to_end")
    return 0


def report_failures(tally: common.Tally) -> None:
    for what in tally.failures:
        common.note(f"FAILED: {what}")


def count_admissible(counters, result) -> None:
    """Admissible rows in what an enumerator returned."""
    rows = result[0] if isinstance(result, tuple) \
        else getattr(result, "tuples", result)
    counters["classify.admissible_rows"] += sum(
        1 for t in rows if getattr(t, "status", None) == "admissible")


def trace_targets(tracer) -> None:
    """The public functions and methods that get spans; each function is
    patched in every fanocalc module that binds it."""
    from fanocalc import (chow, classify, cli, dataset, exact, expr, slope,
                          verify)
    tracer.method(exact.QuadNum, "__mul__", "exact.QuadNum.mul")
    tracer.function(exact.quad_pow, "exact.quad_pow")
    tracer.function(exact.arg_less_than, "exact.arg_less_than")
    tracer.function(slope.check_rho_tau, "slope.check_rho_tau")
    tracer.function(slope.solve_nu_prime, "slope.solve_nu_prime")
    tracer.method(slope.InvariantTuple, "__post_init__", "slope.InvariantTuple")
    tracer.method(slope.InvariantTuple, "with_status",
                  "slope.InvariantTuple.with_status")
    for fn in ("enumerate_type_C", "enumerate_type_P", "enumerate_type_D",
               "enumerate_congruences"):
        tracer.function(getattr(classify, fn), f"classify.{fn}",
                        count_admissible)
    tracer.function(classify.exclude_1_4, "classify.exclude_1_4")
    tracer.function(classify.exclude_2_1, "classify.exclude_2_1")
    tracer.function(dataset.load_dataset, "dataset.load_dataset")
    tracer.function(dataset.load_c2_pushforward, "dataset.load_c2_pushforward")
    tracer.function(chow.reduce, "chow.reduce")
    tracer.method(chow.RingElem, "__mul__", "chow.RingElem.mul")
    tracer.method(chow.RingElem, "__pow__", "chow.RingElem.pow")
    tracer.function(chow.intersection_degree, "chow.intersection_degree")
    tracer.function(chow.loads_context, "chow.loads_context")
    tracer.function(chow.derived_context, "chow.derived_context")
    tracer.function(expr.tokenize, "expr.tokenize")
    tracer.function(expr.parse, "expr.parse")
    tracer.function(expr.evaluate, "expr.evaluate")
    tracer.function(verify.run_all, "verify.run_all")
    tracer.function(cli.run, "cli.run")


def layer_values(tracer, state) -> dict:
    agg = tracer.aggregate()
    values = {}
    for name in tracer.names:
        if name.startswith("op."):
            continue
        calls, _, self_s = agg.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = self_s * 1000
    validations = values.get("slope.InvariantTuple.calls", 0)
    values["slope.InvariantTuple.validations"] = validations
    # check_rho_tau runs once per validation; a tuple built directly is
    # validated once, and once more for every with_status copy.
    checks = tracer.count_within("slope.check_rho_tau", ("slope.InvariantTuple",))
    rebuilt = tracer.count_within("slope.InvariantTuple",
                                  ("slope.InvariantTuple.with_status",))
    built = validations - rebuilt
    values["slope.check_rho_tau.per_tuple"] = checks / built if built else 0.0
    in_enum = tracer.count_within("slope.InvariantTuple", ("classify.enumerate_",))
    admitted = tracer.counters["classify.admissible_rows"]
    values["classify.admitted_per_candidate"] = admitted / in_enum if in_enum else 0.0
    outputs = getattr(state, "outputs", 0)
    values["cli.stdout_bytes"] = state.stdout_bytes / outputs if outputs else 0.0
    return values


def to_reference(values: dict, factor: float) -> dict:
    """Divide every time among `values`, by its unit in BENCHMARK.json,
    by the host speed factor."""
    units = {m["name"]: m["unit"] for m in common.load_spec()["per_layer"]}
    return {k: v / factor if units.get(k) in ("s", "ms", "us") else v
            for k, v in values.items()}


def traced(name: str, seed: int, seconds: float) -> int:
    import cli_session
    import probes
    import spans

    tracer = spans.Tracer()
    module = importlib.import_module(WORKLOADS[name])
    trace_targets(tracer)
    tracer.install()
    state = tracer.op("op.setup", module.setup)(seed)
    tracer.uninstall()
    module.prepare_checks(state)
    run_op = cli_session.run_op_in_process if module is cli_session \
        else module.run_op
    rng = random.Random(seed)
    decks = [module.make_deck(state, rng) for _ in range(
        max(1, round(TRACED_DECKS_PER_10S[name] * seconds / 10)))]

    def run(op):
        return run_op(state, op)

    def check(op, out):
        return module.check_op(state, op, out)

    # Each deck runs untraced and then traced, back to back, so that the
    # host's drift cancels out of the tracing overhead.  Times are in
    # reference-host units (common.HostSpeed).
    host = common.HostSpeed.for_python()
    common.run_deck(decks[0], run, check, common.Tally())  # warm-up
    reference, tally = common.Tally(), common.Tally()
    plain_s = traced_s = 0.0
    host.sample()
    for deck in decks:
        plain_s += common.run_deck(deck, run, check, reference, host)
        tracer.install()
        traced_s += common.run_deck(deck, tracer.op("op." + name, run), check,
                                    tally, host)
        tracer.uninstall()
    module.final_checks(state, tally)
    values = to_reference(layer_values(tracer, state), host.factor())
    values["trace.overhead"] = traced_s / plain_s
    values["cli.contract_violations"] = cli_session.contract_violations()
    for probe in (probes.verify_checks, probes.scaling, probes.interpreter,
                  probes.baseline):
        values.update(probe(host))
    common.OUT.mkdir(exist_ok=True)
    tracer.write(common.OUT / f"spans-{name}-{seed}.tsv")
    report_failures(tally)
    failed = tally.failed + reference.failed
    common.emit(failed == 0, tally.attempted + reference.attempted, failed,
                values, "per_layer")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "fanocalc" / "__init__.py").is_file():
        common.note(f"no fanocalc sources under {common.SRC}")
        return 2
    sys.path.insert(0, str(common.SRC))
    if args.setup_child:
        print(timed_setup(args.workload, args.seed))
        return 0
    if args.trace:
        return traced(args.workload, args.seed, args.seconds)
    return untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
