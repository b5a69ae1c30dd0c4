"""The repository's benchmark: one command, two workloads, layered.

    python3 perfbench/run.py --workload sweep|serve-miss \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark drives the shipped CLI
(``repro``, through ``perfbench/launch.py``) in processes of its own,
checks every output, and prints a table of its measurements followed,
as the last line of standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``perfbench/tracer.py`` installed, and reports the
per-layer table plus the tracing overhead of each end-to-end metric.
A full record (samples, quartiles, input digest, machine stamp) is
written under ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import http.client
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import measure
import spans as spanlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCHER = os.path.join(HERE, "launch.py")
DIGESTS = os.path.join(HERE, "digests.json")
STATE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("sweep", "serve-miss")

#: End-to-end metrics: name -> unit.  Every workload reports each.
E2E_UNITS = {
    "setup_s": "s",
    "qps": "1/s",
    "replay_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Hard limit on one run; the benchmark fails rather than overrun it.
RUN_DEADLINE_S = 170.0

# -- sweep ---------------------------------------------------------------
SWEEP_EXPERIMENTS = "E1,E2,E3"
#: Experiment seeds are 1..SWEEP_SEED_CLASSES (1 is the registry
#: default); digests.json pins each.  Every untraced run covers all of
#: them, in an order the workload seed picks.
SWEEP_SEED_CLASSES = 4
SWEEP_MIN_PASSES = SWEEP_SEED_CLASSES
SWEEP_MAX_PASSES = 4 * SWEEP_SEED_CLASSES
#: Set-ups (``repro list``) before each cold pass, so that the set-up
#: samples spread over the whole run like the passes do.
SWEEP_SETUPS_PER_PASS = 1

# -- serving -------------------------------------------------------------
#: The served catalog is fixed (two Mori graphs, the CLI's default seed
#: and the next); the workload seed picks the queries.  Graph shape sets
#: the cost of every walk, so a seeded catalog would swamp the run-to-run
#: spread with between-graph differences.
CATALOG_MODEL = "mori"
CATALOG_SIZE = 1000
CATALOG_SEEDS = (0, 1)
#: The portfolio ``repro serve`` serves by default.
PORTFOLIO = "adamic"
SERVE_SETUPS = 5
SERVE_MIN_WINDOWS = 2
SERVE_MAX_WINDOWS = 16
#: Queries per timed window (fixed count, closed loop).
#: At least 1000, so each window's p99 has ten samples beyond it.
WINDOW_QUERIES = 1000
#: Distinct cells sent, untimed, before the first window: the fresh
#: daemon's first batches (worker start-up, lazy imports) are not timed.
WARMUP_QUERIES = 200
#: Replays: after each timed window its last REPLAY_QUERIES queries are
#: sent again WINDOW_REPLAYS times (all answered from the answer cache,
#: the serving workload's cache-hot path); the sweep re-runs each cold
#: pass SWEEP_REPLAYS times on its warm store.
REPLAY_QUERIES = 600
WINDOW_REPLAYS = 2
SWEEP_REPLAYS = 2
#: Served answers re-computed through batched_search_trial per run.
CHECK_SAMPLE = 200
#: Largest run index a query may carry (the service's 16-bit field).
MAX_RUN_INDEX = (1 << 16) - 1
QUERY_TIMEOUT_S = 30.0

#: Trace-mode plan: fixed work, so per-layer counts repeat exactly.
TRACE_PLAN = {
    "setups": 2, "sweep_setups_per_pass": 2, "sweep_passes": 1,
    "serve_windows": 2,
}


class BenchmarkError(Exception):
    """The benchmark could not run (as opposed to a wrong answer)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


class Context:
    """Per-run paths, deadline and the processes still alive."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.nproc = measure.cpu_count()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = os.path.join(
            STATE_DIR, "work", f"{workload}-{seed}-{os.getpid()}"
        )
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.live: List[subprocess.Popen] = []
        self.groups: List[int] = []
        self.notes: List[str] = []
        self.peak_rss_kb = 0
        self._counter = 0

    def path(self, name: str) -> str:
        self._counter += 1
        return os.path.join(self.work, f"{self._counter:03d}-{name}")

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchmarkError(
                f"run exceeded its {RUN_DEADLINE_S:.0f}s limit"
            )
        return left

    def env(self, trace_dir: Optional[str]) -> Dict[str, str]:
        env = dict(os.environ)
        source = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = source + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["TMPDIR"] = self.work
        env.pop("REPRO_CORPUS_DIR", None)
        env.pop("REPRO_STORE_BACKEND", None)
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            env["PERFBENCH_TRACE_DIR"] = trace_dir
        return env

    def spawn(self, argv: Sequence[str], trace_dir: Optional[str], log: str):
        out = open(log + ".out", "wb")
        err = open(log + ".err", "wb")
        try:
            process = subprocess.Popen(
                [sys.executable, LAUNCHER, *argv],
                cwd=self.work, env=self.env(trace_dir),
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        finally:
            out.close()
            err.close()
        self.live.append(process)
        return process

    def reap(self, process: subprocess.Popen, timeout: float) -> int:
        """Wait for ``process``; fold its peak RSS (and its reaped
        children's) into the run's; return its exit code.

        Its session is drained in :meth:`close`: a daemon's
        multiprocessing resource tracker outlives it by a second or two.
        """
        timer = threading.Timer(timeout, _kill, (process.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(process)
        self.groups.append(process.pid)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return process.returncode

    def run(
        self, argv: Sequence[str], trace_dir: Optional[str] = None
    ) -> Tuple[float, str]:
        """Run one CLI command to completion: (wall seconds, stdout)."""
        log = self.path(argv[0])
        begin = time.perf_counter()
        process = self.spawn(argv, trace_dir, log)
        code = self.reap(process, self.remaining())
        wall = time.perf_counter() - begin
        with open(log + ".out", encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        if code != 0:
            with open(log + ".err", encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise BenchmarkError(
                f"repro {' '.join(argv)} exited {code}: {tail}"
            )
        return wall, stdout

    @staticmethod
    def exited(process: subprocess.Popen) -> bool:
        """Has ``process`` ended?  (Leaves it for :meth:`reap`.)"""
        info = os.waitid(
            os.P_PID, process.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT
        )
        return info is not None

    def stop(self, process: subprocess.Popen) -> int:
        """Stop a daemon and reap it (SIGKILL to its session after 20 s).

        SIGINT, not SIGTERM: ``repro serve`` installs its SIGTERM
        handler only after /healthz already answers, and a SIGTERM in
        that window kills it without cleanup (orphaned pool workers,
        leaked shared-memory segments).  SIGINT raises
        KeyboardInterrupt there, which runs the daemon's own teardown.
        """
        os.kill(process.pid, signal.SIGINT)
        return self.reap(process, 20.0)

    def close(self, keep: bool) -> None:
        """Kill what still runs, then wait for every session to end."""
        for process in list(self.live):
            _kill(process.pid)
            try:
                os.waitpid(process.pid, 0)
            except ChildProcessError:
                pass
            self.live.remove(process)
            self.groups.append(process.pid)
        deadline = time.monotonic() + 10.0
        for group in self.groups:
            while _group_alive(group) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _group_alive(group):
                self.notes.append(
                    f"processes of session {group} outlived its leader; "
                    "killed"
                )
                _kill(group)
                settle = time.monotonic() + 5.0
                while _group_alive(group) and time.monotonic() < settle:
                    time.sleep(0.01)
        self.groups = []
        if not keep:
            shutil.rmtree(self.work, ignore_errors=True)


def _kill(group: int) -> None:
    """SIGKILL a child's whole session (pool workers included), without
    Popen's poll(), which would reap the child."""
    try:
        os.killpg(group, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(group: int) -> bool:
    try:
        os.killpg(group, 0)
    except ProcessLookupError:
        return False
    return True


def merged_spans(directories: Sequence[str]):
    files = []
    for directory in directories:
        files.extend(glob.glob(os.path.join(directory, "spans-*.jsonl")))
    return spanlib.merge_span_files(files)


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------


def sweep_seeds(seed: int, passes: int) -> List[int]:
    """Experiment seed of each cold pass: the pinned seeds in turn.

    A pass's wall time depends on its experiment seed (the critical
    path is a few large trials), so a run covers every pinned seed and
    its median does not hang on which one the workload seed picked.
    """
    return [1 + (seed + index) % SWEEP_SEED_CLASSES for index in range(passes)]


def _trial_records(cache_dir: str) -> List[str]:
    return glob.glob(os.path.join(cache_dir, "*", "*", "*.json"))


def _store_tally(stdout: str) -> Tuple[int, int]:
    for line in stdout.splitlines():
        if line.startswith("store:"):
            words = line.replace(",", "").split()
            return int(words[1]), int(words[3])
    raise BenchmarkError("repro run printed no 'store:' tally")


def _derived(json_dir: str) -> Dict[str, Any]:
    derived = {}
    for experiment in SWEEP_EXPERIMENTS.split(","):
        path = os.path.join(json_dir, f"{experiment.lower()}.json")
        with open(path, encoding="utf-8") as handle:
            derived[experiment] = json.load(handle)["derived"]
    return derived


def _same_files(first: str, second: str) -> bool:
    names = sorted(os.listdir(first))
    if names != sorted(os.listdir(second)):
        return False
    for name in names:
        with open(os.path.join(first, name), "rb") as a, open(
            os.path.join(second, name), "rb"
        ) as b:
            if a.read() != b.read():
                return False
    return True


def measure_sweep(ctx: Context, plan: Dict[str, Any], traced: bool):
    """One phase of the sweep workload; returns a phase record."""
    seeds = sweep_seeds(ctx.seed, plan["max_passes"])
    with open(DIGESTS, encoding="utf-8") as handle:
        pins = json.load(handle)["seeds"]
    trace_dirs: List[str] = []

    def trace_dir() -> Optional[str]:
        if not traced:
            return None
        directory = ctx.path("trace")
        trace_dirs.append(directory)
        return directory

    # Untimed: the first CLI call of a checkout compiles the sources.
    ctx.run(["list"])
    setups, rates, replays, p50s, p99s = [], [], [], [], []
    attempted = failed = 0
    problems: List[str] = []
    begin = time.monotonic()
    passes = 0
    # A pass starts only if one more of average length still ends
    # within the run's time.
    while passes < plan["max_passes"] and (
        passes < plan["min_passes"]
        or (time.monotonic() - begin) * (passes + 1) / passes
        <= plan["seconds"]
    ):
        seed = seeds[passes]
        passes += 1
        setups.extend(
            ctx.run(["list"], trace_dir())[0]
            for _ in range(plan["setups_per_pass"])
        )
        run_args = [
            "run", SWEEP_EXPERIMENTS, "--seed", str(seed),
            "--jobs", str(ctx.nproc),
        ]
        cache = ctx.path("store")
        cold = ctx.path("cold")
        started_ns = time.time_ns()
        cold_s, cold_out = ctx.run(
            run_args + ["--cache-dir", cache, "--json-dir", cold],
            trace_dir(),
        )
        hits, misses = _store_tally(cold_out)
        replay_outs = []
        for _ in range(SWEEP_REPLAYS):
            warm = ctx.path("replay")
            replay_s, warm_out = ctx.run(
                run_args + ["--cache-dir", cache, "--json-dir", warm],
                trace_dir(),
            )
            replays.append(replay_s)
            replay_outs.append((warm, warm_out))
        trials = hits + misses
        records = _trial_records(cache)
        if len(records) != trials:
            raise BenchmarkError(
                f"expected {trials} trial records in the store, found "
                f"{len(records)} (per-trial results are read from the "
                "json-files store layout)"
            )
        # Time to each trial's result: when its record landed in the
        # store, counted from the start of the command.
        landed = [
            (os.stat(path).st_mtime_ns - started_ns) * 1e-6
            for path in records
        ]
        p50s.append(measure.percentile(landed, 50))
        p99s.append(measure.percentile(landed, 99))
        attempted += trials
        rates.append(trials / cold_s)
        wrong = []
        if hits != 0:
            wrong.append(f"cold pass replayed {hits} trials")
        for warm, warm_out in replay_outs:
            if _store_tally(warm_out) != (trials, 0):
                wrong.append(f"replay tally {_store_tally(warm_out)}")
            if not _same_files(cold, warm):
                wrong.append("replay records differ from the cold pass")
        derived_digest = measure.digest(_derived(cold))
        if derived_digest != pins[str(seed)]["derived_sha256"]:
            wrong.append(
                f"seed {seed}: derived digest {derived_digest} != pinned "
                f"{pins[str(seed)]['derived_sha256']}"
            )
        if wrong:
            failed += trials
            problems.extend(f"pass {passes}: {text}" for text in wrong)

    pass_seeds = seeds[:passes]
    return {
        "setup": setups,
        "rates": rates,
        "replays": replays,
        "p50s": p50s,
        "p99s": p99s,
        "groups": {
            "qps": pass_seeds,
            "latency_p50_ms": pass_seeds,
            "latency_p99_ms": pass_seeds,
            "replay_s": [s for s in pass_seeds for _ in range(SWEEP_REPLAYS)],
        },
        "samples_per_repeat": trials,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repeats": passes,
        "trace_dirs": trace_dirs,
        "client": [],
        "windows": None,
        "replayed": [],
        "pinned": pins[str(seeds[0])] if passes == 1 else None,
        "inputs": {
            "experiments": SWEEP_EXPERIMENTS,
            "experiment_seeds": pass_seeds,
            "jobs": ctx.nproc,
        },
    }


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------


def _import_repro():
    source = os.path.join(ROOT, "src")
    if source not in sys.path:
        sys.path.insert(0, source)


def _cell(index: int, graphs: Sequence[str], algorithms: Sequence[str]):
    """Decode a cell number into a query over the catalog."""
    run_index = index % (MAX_RUN_INDEX + 1)
    rest = index // (MAX_RUN_INDEX + 1)
    return {
        "graph": graphs[rest % len(graphs)],
        "algorithm": algorithms[(rest // len(graphs)) % len(algorithms)],
        "run_index": run_index,
    }


def query_stream(
    seed: int, graphs: Sequence[str], algorithms: Sequence[str]
) -> Tuple[List[Dict[str, Any]], List[List[Dict[str, Any]]]]:
    """(warm-up queries, windows of queries) for ``serve-miss``.

    Every query of the stream is a distinct cell.  Only these generated
    queries reach the program.
    """
    universe = len(graphs) * len(algorithms) * (MAX_RUN_INDEX + 1)
    rng = random.Random(f"serve-miss:{seed}")
    total = WINDOW_QUERIES * SERVE_MAX_WINDOWS
    stream = [
        _cell(n, graphs, algorithms)
        for n in rng.sample(range(universe), WARMUP_QUERIES + total)
    ]
    return stream[:WARMUP_QUERIES], [
        stream[start:start + WINDOW_QUERIES]
        for start in range(WARMUP_QUERIES, WARMUP_QUERIES + total, WINDOW_QUERIES)
    ]


def _key(query: Dict[str, Any]) -> str:
    return f"{query['graph']}|{query['algorithm']}|{query['run_index']}"


class Connection:
    """One keep-alive HTTP connection of the load generator."""

    def __init__(self, port: int):
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=QUERY_TIMEOUT_S
            )
            self.conn.connect()
            self.conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def closed_loop(
    port: int, queries: Sequence[Dict[str, Any]], clients: int
) -> Tuple[float, List[Tuple[int, int, int, Any]]]:
    """Send ``queries`` over ``clients`` connections, closed loop.

    Each client sends its next query only after the previous answer
    arrived.  Returns ``(wall seconds, samples)`` with one ``(start_ns,
    end_ns, status, answer-or-None)`` per query, in query order; a
    transport error or timeout is status 0.
    """
    samples: List[Any] = [None] * len(queries)
    bodies = [json.dumps(query).encode("utf-8") for query in queries]
    cursor = iter(range(len(queries)))
    lock = threading.Lock()

    def client() -> None:
        connection = Connection(port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                start = time.perf_counter_ns()
                try:
                    status, body = connection.request(
                        "POST", "/search", bodies[index]
                    )
                except (OSError, http.client.HTTPException):
                    status, body = 0, b""
                end = time.perf_counter_ns()
                answer = json.loads(body) if status == 200 else None
                samples[index] = (start, end, status, answer)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, daemon=True)
        for _ in range(min(clients, len(queries)))
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(QUERY_TIMEOUT_S * len(queries))
    wall = time.perf_counter() - begin
    if any(thread.is_alive() for thread in threads):
        raise BenchmarkError("load generator clients did not finish")
    return wall, samples


def _wait_ready(ctx: Context, process, port_file: str) -> Tuple[int, Dict]:
    """Poll the port file, then /healthz until it answers 200."""
    while True:
        ctx.remaining()
        if ctx.exited(process):
            raise BenchmarkError(
                f"repro serve exited {ctx.reap(process, 1.0)} while starting"
            )
        try:
            with open(port_file, encoding="utf-8") as handle:
                text = handle.read().strip()
        except FileNotFoundError:
            text = ""
        if text.isdigit():
            break
        time.sleep(0.002)
    port = int(text)
    connection = Connection(port)
    try:
        while True:
            ctx.remaining()
            try:
                status, body = connection.request("GET", "/healthz")
            except OSError:
                time.sleep(0.002)
                continue
            if status == 200:
                return port, json.loads(body)
            time.sleep(0.002)
    finally:
        connection.close()


def start_daemon(ctx: Context, seeds: Sequence[int], trace_dir: Optional[str]):
    """corpus build + repro serve; returns (setup seconds, process, port)."""
    corpus = ctx.path("corpus")
    port_file = ctx.path("port")
    begin = time.perf_counter()
    ctx.run(
        [
            "corpus", "build", corpus, "--model", CATALOG_MODEL,
            "--sizes", str(CATALOG_SIZE),
            "--seeds", ",".join(str(seed) for seed in seeds),
        ],
        trace_dir,
    )
    process = ctx.spawn(
        ["serve", "--corpus", corpus, "--port", "0", "--port-file", port_file],
        trace_dir, ctx.path("serve"),
    )
    port, health = _wait_ready(ctx, process, port_file)
    setup = time.perf_counter() - begin
    if health.get("graphs") != len(seeds):
        raise BenchmarkError(f"daemon reports {health} for {len(seeds)} graphs")
    return setup, process, port


def _get_json(port: int, path: str) -> Any:
    connection = Connection(port)
    try:
        status, body = connection.request("GET", path)
    finally:
        connection.close()
    if status != 200:
        raise BenchmarkError(f"GET {path} answered {status}")
    return json.loads(body)


def recompute(catalog: Dict[str, Dict[str, Any]], cells: Sequence[Dict[str, Any]]):
    """Reference answers through the batch path, one call per graph."""
    _import_repro()
    from repro.core.trials import batched_search_trial

    by_graph: Dict[str, List[Dict[str, Any]]] = {}
    for cell in cells:
        by_graph.setdefault(cell["graph"], []).append(cell)
    expected = {}
    for graph_id, group in sorted(by_graph.items()):
        entry = catalog[graph_id]
        answers = batched_search_trial(
            family=entry["family"],
            size=entry["n"],
            portfolio=PORTFOLIO,
            cells=[
                {"algorithm": c["algorithm"], "run_index": c["run_index"]}
                for c in group
            ],
            seed=entry["seed"],
        )
        for cell, answer in zip(group, answers):
            expected[_key(cell)] = answer
    return expected


def measure_serve(ctx: Context, plan: Dict[str, Any], traced: bool):
    """One phase of a serving workload; returns a phase record."""
    _import_repro()
    from repro.service.core import portfolio_algorithms

    seeds = CATALOG_SEEDS
    trace_dirs: List[str] = []
    setups: List[float] = []
    daemon = port = None
    try:
        for _ in range(plan["setups"]):
            if daemon is not None:
                ctx.stop(daemon)
                daemon = None
            directory = ctx.path("trace") if traced else None
            setup, daemon, port = start_daemon(ctx, seeds, directory)
            setups.append(setup)
            # Per-layer set-up figures describe the daemon that serves.
            trace_dirs = [directory] if directory else []

        catalog = {g["id"]: g for g in _get_json(port, "/graphs")}
        graphs = sorted(catalog)
        algorithms = list(portfolio_algorithms(PORTFOLIO))
        warmup, windows = query_stream(ctx.seed, graphs, algorithms)
        inputs = {
            "catalog": {"model": CATALOG_MODEL, "n": CATALOG_SIZE, "seeds": list(seeds)},
            "warmup_queries": WARMUP_QUERIES,
            "window_queries": WINDOW_QUERIES,
            "stream_sha256": measure.digest([warmup, windows]),
            "clients": ctx.nproc,
        }
        _, samples = closed_loop(port, warmup, ctx.nproc)
        refused = [q for q, s in zip(warmup, samples) if s[2] != 200]
        if refused:
            raise BenchmarkError(
                f"{len(refused)} of {len(warmup)} warm-up queries failed, "
                f"first {_key(refused[0])}"
            )

        rates, replays, p50s, p99s, client = [], [], [], [], []
        intervals: List[Tuple[int, int]] = []
        replayed: List[Tuple[int, int]] = []
        answered: Dict[str, Any] = {}
        attempted = failed = 0
        problems: List[str] = []
        begin = time.monotonic()
        used = 0
        while used < min(plan["max_windows"], len(windows)) and (
            used < plan["min_windows"]
            or time.monotonic() - begin < plan["seconds"]
        ):
            ctx.remaining()
            queries = windows[used]
            used += 1
            opened = time.perf_counter_ns()
            wall, samples = closed_loop(port, queries, ctx.nproc)
            intervals.append((opened, time.perf_counter_ns()))
            rates.append(len(queries) / wall)
            latencies = [(end - start) * 1e-6 for start, end, _, _ in samples]
            p50s.append(measure.percentile(latencies, 50))
            p99s.append(measure.percentile(latencies, 99))
            for query, (start, end, status, answer) in zip(queries, samples):
                attempted += 1
                client.append((_key(query), start, end))
                if status != 200:
                    failed += 1
                    problems.append(f"{_key(query)}: status {status}")
                    continue
                known = answered.setdefault(_key(query), answer)
                if known != answer:
                    failed += 1
                    problems.append(f"{_key(query)}: answer changed")
            # Replay the window's tail: every answer is now cached and
            # must come back unchanged.
            tail = queries[-REPLAY_QUERIES:]
            for _ in range(WINDOW_REPLAYS):
                opened = time.perf_counter_ns()
                wall, samples = closed_loop(port, tail, ctx.nproc)
                replayed.append((opened, time.perf_counter_ns()))
                replays.append(wall)
                for query, (_, _, status, answer) in zip(tail, samples):
                    attempted += 1
                    if status != 200 or answer != answered.get(_key(query)):
                        failed += 1
                        problems.append(
                            f"{_key(query)}: replay status {status}"
                        )
        ctx.stop(daemon)
        daemon = None
    finally:
        if daemon is not None:
            ctx.stop(daemon)

    timed = [
        query for window in windows[:used] for query in window
    ]
    distinct = sorted({_key(q): q for q in timed}.values(), key=_key)
    sample = random.Random(f"check:{ctx.seed}").sample(
        distinct, min(CHECK_SAMPLE, len(distinct))
    )
    expected = recompute(catalog, sample)
    for cell in sample:
        served = answered.get(_key(cell))
        if served is not None and served != expected[_key(cell)]:
            occurrences = sum(1 for q in timed if _key(q) == _key(cell))
            failed += occurrences
            problems.append(f"{_key(cell)}: differs from batched_search_trial")

    inputs["windows_used"] = used
    inputs["checked_cells"] = len(sample)
    return {
        "setup": setups,
        "rates": rates,
        "replays": replays,
        "p50s": p50s,
        "p99s": p99s,
        "samples_per_repeat": WINDOW_QUERIES,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repeats": used,
        "trace_dirs": trace_dirs,
        "client": client,
        "windows": intervals,
        "replayed": replayed,
        "inputs": inputs,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def end_to_end(phase: Dict[str, Any], peak_rss_kb: int) -> Dict[str, Any]:
    """The end-to-end metrics of a phase, with their sample summaries.

    Latency percentiles are exact, from the raw samples of each cold
    pass or timed window; the metric is their median over repeats.  On
    the sweep, whose passes differ in cost by experiment seed, it is the
    mean over experiment seeds of each seed's median.
    """
    groups = phase.get("groups", {})
    samples = {
        "setup_s": phase["setup"],
        "qps": phase["rates"],
        "replay_s": phase["replays"],
        "latency_p50_ms": phase["p50s"],
        "latency_p99_ms": phase["p99s"],
        "peak_rss_mb": [peak_rss_kb / 1024.0],
    }
    phase["samples"] = samples
    result = {
        name: measure.summary(values, groups.get(name))
        for name, values in samples.items()
    }
    for name, q in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
        result[name]["samples_per_repeat"] = phase["samples_per_repeat"]
        result[name]["beyond"] = measure.beyond(phase["samples_per_repeat"], q)
    return result


def run_phase(ctx: Context, plan: Dict[str, Any], traced: bool):
    ctx.peak_rss_kb = 0
    if ctx.workload == "sweep":
        phase = measure_sweep(ctx, plan, traced)
    else:
        phase = measure_serve(ctx, plan, traced)
    phase["e2e"] = end_to_end(phase, ctx.peak_rss_kb)
    return phase


def plan_for(workload: str, seconds: float, trace: bool) -> Dict[str, Any]:
    if workload == "sweep":
        passes = (TRACE_PLAN["sweep_passes"],) * 2 if trace else (
            SWEEP_MIN_PASSES, SWEEP_MAX_PASSES
        )
        return {
            "setups_per_pass": (
                TRACE_PLAN["sweep_setups_per_pass"] if trace
                else SWEEP_SETUPS_PER_PASS
            ),
            "min_passes": passes[0], "max_passes": passes[1],
            "seconds": seconds,
        }
    windows = (TRACE_PLAN["serve_windows"],) * 2 if trace else (
        SERVE_MIN_WINDOWS, SERVE_MAX_WINDOWS
    )
    return {
        "setups": TRACE_PLAN["setups"] if trace else SERVE_SETUPS,
        "min_windows": windows[0], "max_windows": windows[1],
        "seconds": seconds,
    }


def layer_table(phase: Dict[str, Any]):
    spans, missing, problems = merged_spans(phase["trace_dirs"])
    metrics, unseen = spanlib.layer_metrics(
        spans, windows=phase["windows"], replayed=phase["replayed"],
        client=phase["client"],
    )
    return metrics, unseen, missing, problems, len(spans)


def benchmark(args) -> Dict[str, Any]:
    ctx = Context(args.workload, args.seed)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": measure.machine_stamp(ROOT),
    }
    ticks = measure.cpu_ticks()
    failed_run = True
    try:
        plan = plan_for(args.workload, args.seconds, bool(args.trace))
        plain = run_phase(ctx, plan, traced=False)
        record["untraced"] = _phase_record(plain)
        phases = [plain]
        if args.trace:
            traced = run_phase(ctx, plan, traced=True)
            record["traced"] = _phase_record(traced)
            phases.append(traced)
            layers, unseen, missing, problems, count = layer_table(traced)
            record["layers"] = layers
            record["layers_not_seen"] = unseen
            record["trace_targets_missing"] = missing
            record["trace_problems"] = problems
            record["spans"] = count
            pinned = plain.get("pinned")
            if (
                pinned is not None
                and "search" not in unseen
                and layers["search.requests"] != pinned["search_requests"]
            ):
                traced["problems"].append(
                    f"search.requests {layers['search.requests']} != "
                    f"pinned {pinned['search_requests']}"
                )
                traced["failed"] += 1
        failed_run = False
    finally:
        # A run that broke keeps its logs for inspection.
        ctx.close(keep=failed_run)
        if failed_run:
            print(f"work directory kept: {ctx.work}", file=sys.stderr)
    record["machine"]["cpu_steal_share"] = measure.steal_share(
        ticks, measure.cpu_ticks()
    )
    record["cleanup"] = ctx.notes
    record["attempted"] = sum(phase["attempted"] for phase in phases)
    record["failed"] = sum(phase["failed"] for phase in phases)
    record["problems"] = [p for phase in phases for p in phase["problems"]]
    record["inputs"] = plain["inputs"]
    return record


def _phase_record(phase: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "e2e": phase["e2e"],
        "samples": phase["samples"],
        "repeats": phase["repeats"],
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "inputs_sha256": measure.digest(phase["inputs"]),
    }


def metrics_of(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    if not record["trace"]:
        return {
            name: {"value": record["untraced"]["e2e"][name]["value"], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    metrics = {
        name: {"value": record["layers"][name], "unit": unit}
        for name, (unit, _) in spanlib.LAYER_METRICS.items()
    }
    for name, unit in E2E_UNITS.items():
        metrics[f"overhead.{name}"] = {
            "value": record["traced"]["e2e"][name]["value"]
            - record["untraced"]["e2e"][name]["value"],
            "unit": unit,
        }
    return metrics


def print_table(record: Dict[str, Any]) -> None:
    stamp = record["machine"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={int(record['trace'])} on {stamp['nproc']} CPUs "
        f"({stamp['cpu_model']}), python {stamp['python']}, "
        f"numpy {stamp['numpy']}, commit {stamp['git_commit']}, "
        f"CPU steal {stamp['cpu_steal_share']}"
    )
    print(f"inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    for label in ("untraced", "traced"):
        phase = record.get(label)
        if phase is None:
            continue
        print(f"{label}: {phase['repeats']} repeats, "
              f"{phase['attempted']} attempted, {phase['failed']} failed")
        for name, unit in E2E_UNITS.items():
            stats = phase["e2e"][name]
            quartiles = (
                f" q1={stats['q1']:.6g} q3={stats['q3']:.6g}"
                if "q1" in stats else ""
            )
            print(f"  {name:>16} = {stats['value']:.6g} {unit} "
                  f"(n={stats['n']}{quartiles})")
    if record["trace"]:
        print("per-layer (traced run):")
        for name, (unit, layer) in spanlib.LAYER_METRICS.items():
            print(f"  {name:>28} = {record['layers'][name]:.6g} {unit}")
        print(f"layers not seen on this workload: "
              f"{', '.join(record['layers_not_seen']) or 'none'}")
        if record["trace_targets_missing"]:
            print("wrap targets missing from the program: "
                  + ", ".join(record["trace_targets_missing"]))
        for problem in record["trace_problems"]:
            print(f"trace problem: {problem}")
    for note in record["cleanup"]:
        print(f"cleanup: {note}")
    for problem in record["problems"][:20]:
        print(f"FAILED: {problem}")


def save(record: Dict[str, Any]) -> str:
    directory = os.path.join(STATE_DIR, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory,
        f"{record['workload']}-s{record['seed']}-t{int(record['trace'])}-"
        f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json",
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


def parse_args(argv: Optional[Sequence[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through the finally blocks, which stop every child.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(
            f"error: no program to measure: {ROOT}/src/repro is missing "
            "(run from the root of a full checkout)",
            file=sys.stderr,
        )
        return 2
    try:
        record = benchmark(args)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    record["saved_to"] = save(record)
    print_table(record)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics_of(record),
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
