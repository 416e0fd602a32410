#!/usr/bin/env python3
"""Benchmark for the keep/drop + scrub engine and its exchanges.

    python3 perfbench/run.py --workload files_dup --seed 1 --seconds 12 --trace 0

``--workload all`` runs the three workloads in turn, each in its own
process. Run from the root of a checkout. One Ray session is set up per run; the
workload's operations then run in a closed loop (the next pass starts when
the previous one completed) for ``--seconds``, each under a timeout, and
every output is checked. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer ledger with ``--trace 1``. The line before
it is a JSON report with every pass, the inputs and the host conditions.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import gc
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RAY_CPUS = 2  # logical CPUs of the benchmark's Ray session
SETUP_REPEATS = 3  # input generations and warm ops per run; setup_s takes their medians
MIN_PASSES = 3
PASS_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0  # the whole run, set-up included


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Runner:
    def __init__(self, args, sampler):
        from perfbench import workloads
        from hyperpolyglot_ray.pipelines.quality_filter import swept_pool_size

        self.args = args
        self.sampler = sampler
        self.t_start = time.monotonic()
        self.pool = swept_pool_size(RAY_CPUS)
        self.wl = workloads.make(args.workload, self.pool)
        # a short directory name leaves room for Ray's socket paths (below)
        self.work = ROOT / ".pbw" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.ledger_dir = self.work / "ledger"
        self.ray_tmp = self.work.parent / str(os.getpid())
        self.executor = concurrent.futures.ThreadPoolExecutor(max_workers=1)
        self.hung = False
        self.idle_waits: list[float] = []
        self.setup: dict = {}

    # -- set-up ---------------------------------------------------------
    def set_up(self) -> None:
        gen = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.wl.generate(self.args.seed)
            self.wl.write_inputs(self.work / "inputs")
            gen.append(time.perf_counter() - t0)
        self.ledger_dir.mkdir(parents=True, exist_ok=True)

        # one Ray session per run: a second one would cost a start, a cold
        # warm op and a shutdown (about 11 s on a loaded 4-vCPU host). Each
        # warm op builds a fresh actor pool, so each repeats the actors' imports
        # and artifact loads; the first also starts Ray's task workers.
        t0 = time.perf_counter()
        self._start_ray()
        ray_init = time.perf_counter() - t0
        warm = []
        for _ in range(SETUP_REPEATS):
            self._wait_idle()
            t0 = time.perf_counter()
            self._call(self.wl.warm)
            warm.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        self.wl.reference()
        self.setup = {
            "gen_s": gen,
            "ray_init_s": ray_init,
            "warm_s": warm,
            "reference_s": time.perf_counter() - t0,
            "ray_temp_dir": self.ray_temp_dir,
        }
        self.setup_s = _median(gen) + ray_init + _median(warm)

    def _start_ray(self) -> None:
        import ray

        from perfbench.ledger import LEDGER_ENV

        # the Ray processes inherit this environment: workers import the
        # engine and the traced stages from the checkout. (A runtime_env
        # would do the same, but its workers are set up through Ray's
        # runtime-env agent, which made a cold warm op twice as slow.)
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = str(ROOT) + (os.pathsep + path if path else "")
        os.environ[LEDGER_ENV] = str(self.ledger_dir)

        init_kwargs = dict(
            address="local",
            num_cpus=RAY_CPUS,
            include_dashboard=False,
            log_to_driver=False,
            logging_level=logging.WARNING,
            object_store_memory=1_000_000_000,
        )
        # Ray's socket paths must fit in 107 bytes: keep its session files in
        # the checkout when the checkout path is short enough
        if len(str(self.ray_tmp)) <= 44:
            init_kwargs["_temp_dir"] = str(self.ray_tmp)
        ray.init(**init_kwargs)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.ray_temp_dir = init_kwargs.get("_temp_dir", "ray default")

    def stop_ray(self) -> None:
        """Shut Ray down and wait until every process it started has ended;
        after a hung op, kill them instead."""
        import ray

        from perfbench import hostmon

        children = hostmon.descendants()
        if not self.hung:
            ray.shutdown()
        hostmon.kill(hostmon.wait_gone(children, 0 if self.hung else 20))
        hostmon.wait_gone(children, 10)

    def _remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.t_start)

    def _call(self, fn):
        """Run ``fn`` under the pass timeout; a timeout marks the run hung."""
        fut = self.executor.submit(fn)
        try:
            return fut.result(timeout=max(1.0, min(PASS_TIMEOUT_S, self._remaining())))
        except concurrent.futures.TimeoutError:
            self.hung = True
            raise

    def _wait_idle(self, timeout_s: float = 15.0) -> None:
        """Wait until the previous op's actors have released their CPUs, so
        each op starts on an idle cluster."""
        import ray

        # the finished executor's actor handles sit in reference cycles;
        # until they are collected the actors keep their CPUs
        gc.collect()
        t0 = time.monotonic()
        while (ray.available_resources().get("CPU", 0) < RAY_CPUS
               and time.monotonic() - t0 < timeout_s):
            time.sleep(0.05)
        self.idle_waits.append(time.monotonic() - t0)

    # -- passes -----------------------------------------------------------
    def run_pass(self, traced: bool) -> dict:
        from perfbench import hostmon, ledger

        rec = {"traced": traced, "ops": []}
        for name, fn in self.wl.ops():
            execs: list = []
            if traced:
                shutil.rmtree(self.ledger_dir, ignore_errors=True)
                self.ledger_dir.mkdir(parents=True)
            self._wait_idle()
            tk0, load0 = hostmon.cpu_ticks(), hostmon.loadavg()
            cpu0 = self.sampler.cpu_s()
            seen0 = self.sampler.n_seen()
            self.sampler.reset_peak()
            t0 = time.perf_counter()
            op = {"op": name}
            try:
                if traced:
                    with ledger.traced_stages(), ledger.capture_executions(execs):
                        result = self._call(fn)
                else:
                    result = self._call(fn)
                op["wall_s"] = time.perf_counter() - t0
                op["cpu_s"] = self.sampler.cpu_s() - cpu0
                op["failures"] = self.wl.check(name, result)
                op["check_s"] = time.perf_counter() - t0 - op["wall_s"]
            except Exception as exc:  # a failed op is counted, the run goes on
                op["wall_s"] = time.perf_counter() - t0
                op["cpu_s"] = self.sampler.cpu_s() - cpu0
                op["failures"] = [f"{type(exc).__name__}: {exc}"[:300]]
                traceback.print_exc(file=sys.stderr)
                result = None
            op["peak_rss_mb"] = self.sampler.peak_mb
            op["procs_started"] = self.sampler.n_seen() - seen0
            op["steal_pct"] = hostmon.steal_pct(tk0, hostmon.cpu_ticks())
            op["loadavg"] = [load0, hostmon.loadavg()]
            if traced:
                op["executions"] = execs
                op["actors"] = ledger.read_actor_ledgers(self.ledger_dir)
                op["out_mb"] = (
                    sum(p.stat().st_size for p in result.glob("*.parquet")) / 1e6
                    if isinstance(result, Path) else 0.0
                )
            rec["ops"].append(op)
            if self.hung:
                break
        rec["wall_s"] = sum(o["wall_s"] for o in rec["ops"])
        rec["cpu_s"] = sum(o["cpu_s"] for o in rec["ops"])
        return rec

    def measure(self) -> list[dict]:
        passes: list[dict] = []
        t0 = time.monotonic()
        while not self.hung:
            traced = self.args.trace == 1 and len(passes) % 2 == 1
            passes.append(self.run_pass(traced))
            longest = max(p["wall_s"] for p in passes)
            if self._remaining() < 2 * longest + 10:
                break
            # a traced run alternates plain and traced passes
            if time.monotonic() - t0 >= self.args.seconds and len(passes) >= MIN_PASSES:
                break
        return passes


def end_to_end(runner: Runner, passes: list[dict]) -> dict:
    rows = runner.wl.pass_rows
    # per op, the median over passes; a pass is the sum of its ops
    names = [o["op"] for o in passes[0]["ops"]]
    wall = sum(
        _median([o["wall_s"] for p in passes for o in p["ops"] if o["op"] == n])
        for n in names
    )
    cpu = _median([p["cpu_s"] for p in passes])
    rss = _median([max(o["peak_rss_mb"] for o in p["ops"]) for p in passes])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "rows_per_s": {"value": rows / wall if wall else 0.0, "unit": "1/s"},
        "cpu_s_per_krow": {"value": 1000.0 * cpu / rows, "unit": "s"},
        "setup_s": {"value": runner.setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="files_dup, files_unique, exchange_mix, or all (each in turn)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "hyperpolyglot_ray" / "__init__.py").is_file():
        print(f"perfbench: no hyperpolyglot_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))

    from perfbench import hostmon, layers, workloads

    if args.workload == "all":
        # one fresh process (and Ray session) per workload
        return max(
            subprocess.run([sys.executable, __file__, "--workload", w,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for w in workloads.WORKLOADS
        )
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with hostmon.TreeSampler() as sampler:
        runner = Runner(args, sampler)
        passes = None
        try:
            runner.set_up()
            passes = runner.measure()
        except Exception:  # a failed or hung set-up leaves nothing to measure
            traceback.print_exc(file=sys.stderr)
        finally:
            runner.stop_ray()
            runner.executor.shutdown(wait=False, cancel_futures=True)
            shutil.rmtree(runner.work, ignore_errors=True)
            shutil.rmtree(runner.ray_tmp, ignore_errors=True)

    if passes is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}),
              flush=True)
        # a hung set-up still holds the executor thread: do not wait for it
        os._exit(1)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for o in p["ops"] if o["failures"])
    e2e = end_to_end(runner, [p for p in passes if not p["traced"]])
    # printed and reported, but not a bounded metric: a correct engine fails
    # nothing, and a bounded metric may not read 0
    failed_frac = {"ops_failed_frac": {"value": failed / attempted, "unit": "frac"}}
    metrics = layers.per_layer(passes) if args.trace else e2e
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ray_logical_cpus": RAY_CPUS,
        "pool_actors": runner.pool,
        "steal_pct": [o["steal_pct"] for p in passes for o in p["ops"]],
        "loadavg": [o["loadavg"] for p in passes for o in p["ops"]],
        "idle_wait_s": runner.idle_waits,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "end_to_end": e2e | failed_frac,
        "inputs": runner.wl.inputs,
        "setup": runner.setup,
        "host": host,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "cpu_s": p["cpu_s"],
             "ops": {o["op"]: {k: o[k] for k in (
                 "wall_s", "cpu_s", "check_s", "peak_rss_mb", "procs_started", "failures")
                 if k in o}
                 | ({"operators": layers.operator_table(o)} if p["traced"] else {})
                 for o in p["ops"]}}
            for p in passes
        ],
    }
    summary = " ".join(
        f"{k}={v['value']:.4g} {v['unit']}" for k, v in (e2e | failed_frac).items())
    print(f"{args.workload} seed={args.seed}: {summary} ({failed}/{attempted} ops failed)")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and not runner.hung,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    if runner.hung:
        # the hung pass still holds the executor thread; nothing is left to wait for
        os._exit(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
