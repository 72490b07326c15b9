"""Shared pieces of the fanocalc benchmark: paths, the closed-loop deck
runner, percentiles, child processes and the result line."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
CONTEXTS = SRC / "fanocalc" / "data" / "contexts"
SHIPPED_CONTEXTS = ("p2", "q3", "v43", "v45", "w36")
WORK = BENCH / ".work"
OUT = BENCH / "out"


def child_env() -> dict:
    """Environment for every child: fanocalc from this checkout's src and
    the shipped dataset, whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FANOCALC_DATA", None)
    return env


def spawn(argv):
    """Run one child to completion: (wall_s, exit_code, stdout, stderr).

    stderr goes to a file, so that stdout can be drained before the
    child is reaped.
    """
    WORK.mkdir(exist_ok=True)
    with open(WORK / "child.stderr", "w+b") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_fh,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                env=child_env())
        with proc.stdout:
            out = proc.stdout.read()
        code = proc.wait()
        wall = time.perf_counter() - t0
        err_fh.seek(0)
        err = err_fh.read()
    return wall, code, out, err


def median_child_seconds(argv, reps: int) -> float:
    walls = []
    for _ in range(reps):
        wall, code, _, err = spawn(argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {err.decode()[-500:]}")
        walls.append(wall)
    return statistics.median(walls)


def self_peak_rss_mb() -> float:
    """Peak RSS of this process from VmHWM: ru_maxrss would also count
    the peak of whatever process started this one, kept across exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass(frozen=True)
class _Pair:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def __mul__(self, other):
        return _Pair(self.a * other.a - 3 * self.b * other.b,
                     self.a * other.b + self.b * other.a)


def calibration_unit():
    """Fixed pure-Python work of the kinds fanocalc does (Fraction
    arithmetic, frozen dataclasses, tuple-keyed dicts) that shares no
    code with fanocalc."""
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k + 3) * Fraction(2 * k - 1, 7)
    table = {}
    for k in range(400):
        key = (k % 13, k % 7)
        table[key] = table.get(key, 0) + k
    w = _Pair(1, 0)
    for z in (_Pair(Fraction(3, 2), Fraction(1, 3)), _Pair(1, Fraction(-1, 3))):
        for _ in range(12):
            w = w * z
    return acc, sorted(str(v) for v in table.values()), w


def interpreter_start():
    """Start and end one bare interpreter: the fixed part of every
    cli-session op, with no fanocalc in it."""
    spawn([sys.executable, "-c", "pass"])


class HostSpeed:
    """Speed of the host, relative to the reference host, op by op.

    On a shared host speed drifts by 10-20 % within a minute, for wall
    and CPU time alike.  So the run times a fixed probe that shares no
    code with fanocalc between ops, about every `every_s` of op time.
    Each op is scaled by the mean of the probe samples just before and
    just after it, over a fixed reference time for the probe (its mean
    on a 2-core x86-64 host with CPython 3.11.7).  Reported times are
    thus in reference-host units, and runs made at different host speeds
    can be compared.
    """

    def __init__(self, probe, reference_s: float, every_s: float):
        self.probe = probe
        self.reference_s = reference_s
        self.every_s = every_s
        self.samples = []
        self._since = 0.0

    @classmethod
    def for_python(cls) -> "HostSpeed":
        """For in-process work: calibration_unit every 50 ms."""
        return cls(calibration_unit, 1.6e-3, 0.05)

    @classmethod
    def for_interpreters(cls) -> "HostSpeed":
        """For ops that start interpreters: interpreter_start after every
        op; it tracks their cost twice as well as calibration_unit."""
        return cls(interpreter_start, 0.060, 0.0)

    def sample(self) -> float:
        """Run the probe once and return the factor of the ops since the
        previous sample: the mean of the two samples over the
        reference."""
        t0 = time.perf_counter()
        self.probe()
        now = time.perf_counter() - t0
        before = self.samples[-1] if self.samples else now
        self.samples.append(now)
        self._since = 0.0
        return (before + now) / (2 * self.reference_s)

    def tick(self, busy: float):
        """Count `busy` seconds of op time; sample when every_s is due and
        return the factor, else None."""
        self._since += busy
        return self.sample() if self._since >= self.every_s else None

    def measure(self, runs: int = 1) -> float:
        """Factor from `runs` probe runs, not recorded."""
        t0 = time.perf_counter()
        for _ in range(runs):
            self.probe()
        return (time.perf_counter() - t0) / (runs * self.reference_s)

    def scaled(self, timing, *args) -> float:
        """timing(*args), a time, divided by the factor measured just
        before and just after it."""
        before = self.measure(5)
        value = timing(*args)
        return value / ((before + self.measure(5)) / 2)

    def factor(self) -> float:
        """Mean factor over the whole run."""
        return statistics.fmean(self.samples) / self.reference_s


# Latency bins: 0.1 % wide, from 0.1 us to 10^4 s.
_BIN_LOG = math.log(1.001)
_BIN_FLOOR = 1e-7
_BINS = int(math.log(1e4 / _BIN_FLOOR) / _BIN_LOG) + 1


class Tally:
    """Outcomes of the ops of one run, and their latencies divided by the
    host speed factor.

    Latencies wait in `pending` until the host sample after them gives
    their factor, and then go into bins 0.1 % wide that also sum their
    values.  The harness thus holds the same memory however many ops
    run, so a faster program does not read as a larger peak RSS.
    """

    def __init__(self):
        self.counts = array("q", bytes(8 * _BINS))
        self.sums = array("d", bytes(8 * _BINS))
        self.pending = []
        self.binned = 0
        self.scaled_seconds = 0.0
        self.busy_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, seconds: float, ok: bool, what) -> None:
        """One op; `what` is called for a description if it failed."""
        self.pending.append(seconds)
        self.busy_seconds += seconds
        self.attempted += 1
        if not ok:
            self.fail(what())

    def flush(self, factor: float) -> None:
        for seconds in self.pending:
            value = seconds / factor
            k = int(math.log(max(value, _BIN_FLOOR) / _BIN_FLOOR) / _BIN_LOG)
            k = min(k, _BINS - 1)
            self.counts[k] += 1
            self.sums[k] += value
            self.scaled_seconds += value
        self.binned += len(self.pending)
        self.pending.clear()

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the binned latencies: the mean of
        the bin that holds that rank."""
        rank = max(1, math.ceil(p * self.binned / 100))
        seen = 0
        for k, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.sums[k] / count
        raise ValueError("no latencies binned")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def run_deck(deck, run_op, check_op, tally: Tally, host=None) -> float:
    """Run the ops of one deck back to back, one at a time.

    Only the op itself is on the clock; its output check, and the host
    speed sample if `host` is given, run after the clock stops.  An
    exception counts as a failed op.  Without `host` latencies are
    binned unscaled.  Returns the time the deck's ops took.
    """
    busy = 0.0
    for op in deck:
        t0 = time.perf_counter()
        try:
            out = run_op(op)
            err = None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, exc
        dt = time.perf_counter() - t0
        busy += dt
        if err is None:
            try:
                ok = check_op(op, out)
            except Exception as exc:  # a check that cannot read the output
                ok, err = False, exc
            tally.record(dt, ok, lambda: f"{op!r} wrong output {err or ''}")
        else:
            tally.record(dt, False, lambda: f"{op!r} raised {err!r}")
        factor = 1.0 if host is None else host.tick(dt)
        if factor is not None:
            tally.flush(factor)
    return busy


def run_closed_loop(make_deck, run_op, check_op, seconds: float,
                    host: HostSpeed) -> Tally:
    """Run whole decks until the ops have been on the clock for about
    `seconds` in reference-host units: a deck starts only while at least
    half a mean deck's time is left.  So every run holds whole decks, and
    as many of them whatever the host's speed, which keeps each
    percentile at the same rank within the deck's latency clusters."""
    tally = Tally()
    decks = 0
    host.sample()
    while True:
        run_deck(make_deck(), run_op, check_op, tally, host)
        decks += 1
        busy = tally.scaled_seconds + sum(tally.pending)
        if busy + 0.5 * busy / decks >= seconds:
            if tally.pending:
                tally.flush(host.sample())
            return tally


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def emit(correct: bool, attempted: int, failed: int, values: dict,
         section: str) -> None:
    """Print the result line with every metric of `section` of
    BENCHMARK.json, each with its unit; a missing metric is an error."""
    spec = load_spec()
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def note(text: str) -> None:
    print(text, file=sys.stderr, flush=True)
