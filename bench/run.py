#!/usr/bin/env python3
"""confn benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload {corpus,program,towers} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root; it imports confn from ``src`` and starts
fresh interpreters with ``src`` on PYTHONPATH.  With ``--trace 0`` it
reports the end-to-end metrics:

* varieties_per_s: certified, re-verified rows per second of a warm
  in-process pass (parse, evaluate, both emitters), median over passes;
* cold_s and peak_rss_mb: wall time and peak RSS of a fresh process
  running the workload through confn's command line, median over runs;
* setup_s: time from starting a fresh process until confn is imported
  and the program is read and parsed, median of SETUP_RUNS;
* exact_share: exact rows over rows with an interval;
* ok_share: rows that pass every check, over rows attempted.

With ``--trace 1`` it alternates untraced and traced passes and reports
per-layer counts and self times (medians over traced passes), the import
time of ``confn.cli`` in a fresh process and the tracing overhead; the
spans go to ``bench/out``.

Every time is corrected for the host's speed while it was taken (see
hostspeed.py).  Every report, warm or cold, is checked against the
workload's independent expectations.  The last line of standard output
is the JSON result; the exit code is 1 on an unexpected mismatch and 2
when the checkout holds no confn sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path
from statistics import median

import hostspeed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh CLI processes per run: as many as fit in COLD_SECONDS of corrected
# warm-pass time, within these limits, so that slow workloads keep the run
# short while the count stays the same from run to run.
COLD_SECONDS = 7.0
COLD_RUNS = (4, 7)
SETUP_RUNS = 11
IMPORT_RUNS = 7


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "program", "towers"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "confn" / "__init__.py").is_file():
        print(f"no confn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a stopped run still stops the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    OUT.mkdir(exist_ok=True)
    workload = workloads.build(args.workload, args.seed, ROOT)
    bench = Bench(workload, f"{args.workload}-{args.seed}")
    if args.trace:
        metrics = bench.traced(args.seconds)
    else:
        metrics = bench.end_to_end(args.seconds)
    result = {
        "correct": not bench.unexpected,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    for line in bench.unexpected[:20]:
        print(f"unexpected: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


class Bench:
    def __init__(self, workload, tag: str) -> None:
        from confn import runner

        self.workload = workload
        self.text = workload.text if workload.text is not None else runner.CORPUS_PROGRAM
        self.program_path = OUT / f"program-{tag}.fuj"
        self.program_path.write_text(self.text, encoding="utf-8")
        self.out_path = OUT / f"child-{tag}.out"
        self.stats_path = OUT / f"child-{tag}.json"
        self.tag = tag
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.tally = None

    def check(self, as_json: str, where: str) -> None:
        tally = workloads.check_report(self.workload, json.loads(as_json))
        self.attempted += tally.attempted
        self.failed += tally.failed
        self.unexpected += [f"{where}: {u}" for u in tally.unexpected]
        self.tally = tally

    # -- samples ------------------------------------------------------------

    def one_pass(self) -> tuple[float, float]:
        """One parse-evaluate-emit pass; returns its wall and corrected seconds."""
        from confn import dsl, runner

        with hostspeed.Sampler() as sampler:
            start = time.perf_counter()
            report = runner.evaluate(
                dsl.parse(self.text), radius=self.workload.radius, max_m=self.workload.max_m
            )
            as_json = runner.emit_json(report)
            as_markdown = runner.emit_markdown(report)
            wall = time.perf_counter() - start
        self.check(as_json, "warm pass")
        if (
            self.workload.golden_markdown is not None
            and as_markdown != self.workload.golden_markdown
        ):
            self.unexpected.append("warm pass: markdown differs from the golden report")
        self.warm_json = as_json
        self.report_bytes = len(as_json.encode()) + len(as_markdown.encode())
        return wall, hostspeed.corrected(wall, sampler.stats())

    def spawn(self, argv: list[str]) -> tuple[int, float, float, str]:
        """Run bench/probe.py in a fresh interpreter to completion.

        Returns the exit code, the time.monotonic() at which it was
        started (a clock the child can read too), its wall time and its
        standard output.  ``self.child_rss_kb`` gets its peak RSS.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(self.out_path) + ".err", flags, 0o644),
        ]
        argv = [sys.executable, str(BENCH / "probe.py"), *argv]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        wall = time.monotonic() - start
        self.child_rss_kb = usage.ru_maxrss
        code = os.waitstatus_to_exitcode(status)
        return code, start, wall, self.out_path.read_text(encoding="utf-8")

    def cold(self) -> tuple[float, float]:
        """A fresh CLI process; returns its corrected wall time and peak RSS in MB."""
        args = self.workload.cli_args(str(self.program_path))
        code, _, wall, out = self.spawn(["cli", str(self.stats_path), *args])
        stats = json.loads(self.stats_path.read_text(encoding="utf-8"))
        self.check(out, "cold run")
        if out != self.warm_json:
            self.unexpected.append("cold run: JSON differs from the in-process report")
        want = 0 if self.tally.failed == 0 else 1
        if code != want:
            self.unexpected.append(f"cold run: exit code {code}, expected {want}")
        return hostspeed.corrected(wall, stats), self.child_rss_kb / 1024

    def _probe(self, *args: str) -> tuple[float, dict]:
        code, start, _, out = self.spawn(list(args))
        if code != 0:
            raise RuntimeError(f"probe {args[0]} exited with {code}")
        return start, json.loads(out)

    def setup(self) -> float:
        target = "corpus" if self.workload.text is None else str(self.program_path)
        start, found = self._probe("setup", target)
        return hostspeed.corrected(found["done"] - start, found)

    def import_time(self) -> float:
        _, found = self._probe("import")
        return hostspeed.corrected(found["import_s"], found)

    # -- the two kinds of run -------------------------------------------------

    def _window(self, seconds: float, samples: dict, step) -> dict:
        """Call ``step`` until its passes add up to ``seconds``, and spread
        the fresh-process samples evenly across that window.

        ``samples`` maps a sample function to how many times to call it;
        their time does not count against the window.
        """
        due = sorted(
            ((i + 0.5) / count * seconds, id(fn), fn)
            for fn, count in samples.items()
            for i in range(count)
        )
        results: dict = {fn: [] for fn in samples}
        spent = 0.0
        while True:
            while due and due[0][0] <= spent:
                _, _, fn = due.pop(0)
                results[fn].append(fn())
            if spent >= seconds:
                return results
            spent += step()

    def end_to_end(self, seconds: float) -> dict:
        _, warm_up = self.one_pass()  # lazy imports and first-use caches
        low, high = COLD_RUNS
        cold_runs = min(high, max(low, round(COLD_SECONDS / warm_up)))
        rates = []

        def step() -> float:
            wall, pass_s = self.one_pass()
            rates.append(self.tally.certified / pass_s)
            return wall

        samples = self._window(seconds, {self.cold: cold_runs, self.setup: SETUP_RUNS}, step)
        cold = samples[self.cold]
        return {
            "varieties_per_s": _metric(median(rates), "1/s"),
            "cold_s": _metric(median(w for w, _ in cold), "s"),
            "setup_s": _metric(median(samples[self.setup]), "s"),
            "peak_rss_mb": _metric(median(r for _, r in cold), "MB"),
            "exact_share": _metric(self.tally.exact / self.tally.computed, "ratio"),
            "ok_share": _metric(1 - self.failed / self.attempted, "ratio"),
        }

    def traced(self, seconds: float) -> dict:
        tracer = tracing.Tracer()
        self.one_pass()
        plain: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []
        passes: list[dict] = []

        def step() -> float:
            if len(plain) <= len(traced):
                wall, pass_s = self.one_pass()
                plain.append(pass_s)
                return wall
            tracer.install()
            try:
                escapes = tracer.escapes()
                wall, pass_s = self.one_pass()
            finally:
                tracer.uninstall()
            self.unexpected += [f"trace escape: {e}" for e in escapes]
            spans, points = tracer.take()
            problem = tracing.accounting_problem(spans, wall)
            if problem is not None:
                self.unexpected.append(problem)
            per = tracing.pass_layers(spans, points, self.tally.computed)
            for name, unit in tracing.UNITS.items():
                if unit == "s" and name in per:
                    per[name] *= pass_s / wall
            per["runner.report_bytes"] = self.report_bytes
            traced.append(pass_s)
            layers.append(per)
            passes.append({"wall_s": wall, "points": points, "spans": spans})
            return wall

        samples = self._window(seconds, {self.import_time: IMPORT_RUNS}, step)
        if not traced:
            step()
        out = tracing.median_metrics(layers)
        out["cli.import_s"] = median(samples[self.import_time])
        out["trace.overhead_share"] = median(traced) / median(plain) - 1
        with open(OUT / f"trace-{self.tag}.json", "w", encoding="utf-8") as handle:
            json.dump({"layer_of": tracing.LAYER_OF, "passes": passes}, handle)
        return {name: _metric(value, tracing.UNITS[name]) for name, value in out.items()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


if __name__ == "__main__":
    sys.exit(main())
