"""The four benchmark workloads.

A workload is a list of *passes*; a pass is a list of *units*; running a
unit yields one or more timed requests.  Every pass of ``p2p`` and
``apps`` is the same set of experiment targets, and every pass of
``fuzz-faulted`` and ``serve-cold`` draws one request per coverage cell,
so a run's medians do not depend on how many passes fitted in it.

Each workload verifies its outputs as it goes: a request whose output
is wrong counts as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from refclock import RefClock, pinned

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Registered microbenchmark targets (Tables II/III, Figs 6-10, the
#: four-way comparisons and the two-sided crossover studies).
P2P_TARGETS = (
    "table2", "table3",
    "fig6a", "fig6b", "fig6c", "fig6d", "fig7a", "fig7b", "fig7c", "fig7d",
    "fig8a", "fig8b", "fig8c", "fig8d", "fig9a", "fig9b", "fig9c", "fig9d",
    "fig10", "fig6a4", "fig8a4", "fig8b4", "xover1", "xover2",
)
#: Application targets; each is several ``run_stencil2d``/``run_lbm`` runs.
APPS_TARGETS = ("fig11", "fig12")
#: Trivial pinned target: checked once per run, never timed.
WARMUP_TARGET = "table1"

#: Cold starts per run for ``setup_s`` (after one discarded warm-up).
COLD_STARTS = 3
#: Service boots per ``serve-cold`` run spent on ``setup_s`` alone (the
#: boot before every measured pass is timed as well).
SERVE_SETUP_BOOTS = 2


@dataclass
class Request:
    label: str
    t0: float
    t1: float
    ok: bool
    #: Layer timings a traced run attaches (serve: queue/exec/worker s).
    extra: Optional[dict] = None


class Pins:
    """Expected ``output_sha256`` per target, and which targets matched."""

    def __init__(self) -> None:
        self.expected = load_pins()
        #: target -> every output seen this run matched its pin.
        self.matched: Dict[str, bool] = {}

    def check(self, target: str, digest: Optional[str]) -> bool:
        ok = digest == self.expected[target]
        self.matched[target] = self.matched.get(target, True) and ok
        return ok

    def summary(self) -> str:
        good = sum(self.matched.values())
        return f"{good} of {len(self.matched)} pinned targets match"


def load_pins() -> Dict[str, str]:
    """Expected ``output_sha256`` per target: the 22 paper targets from
    ``BENCH_PR1.json`` plus the later targets pinned in ``pins.json``."""
    doc = json.loads((ROOT / "BENCH_PR1.json").read_text())
    pins = {t["exp_id"]: t["output_sha256"] for t in doc["targets"]}
    pins.update(json.loads((HERE / "pins.json").read_text()))
    return pins


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cells() -> List[Tuple[str, int, int]]:
    """Every (design, nodes, pes_per_node) cell the check fuzzer draws."""
    from repro.check.workload import DESIGNS, TOPOLOGIES

    return [(d, n, p) for d in DESIGNS for n, p in TOPOLOGIES]


def _seeded_order(items, seed: int, pass_idx: int) -> list:
    out = list(items)
    random.Random(seed * 1_000_003 + pass_idx).shuffle(out)
    return out


def _cell_seeds(seed: int, pass_idx: int) -> List[Tuple[int, Tuple[str, int, int]]]:
    """One fresh check seed per coverage cell, in a seeded order."""
    rng = random.Random(seed * 1_000_003 + pass_idx)
    picked = [(rng.randrange(1 << 30), cell) for cell in cells()]
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------- in-process
class InProcess:
    """Base of the workloads that run the simulator in this process."""

    name = ""
    #: Normalised seconds one pass takes on the reference host; sets how
    #: many passes ``--seconds`` buys.
    pass_seconds = 1.0
    #: Fewest passes a run makes: the tail percentile needs more than 10
    #: requests (one ``apps`` pass has 14).
    min_passes = 2
    #: Python run by each cold start: import plus first-job construction.
    cold_start = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pins = Pins()
        self.setup_s: List[float] = []

    def passes(self) -> Iterator[list]:
        return map(self.pass_units, itertools.count())

    def pass_units(self, i: int) -> list:
        raise NotImplementedError

    def run_unit(self, unit, clock: RefClock, out: List[Request]) -> str:
        """Run one unit, append its timed requests to ``out`` and return
        a digest of everything it produced (outputs and engine counters)."""
        raise NotImplementedError

    def warm_up(self) -> bool:
        from repro.reporting.experiments import run_experiment

        return self.pins.check(WARMUP_TARGET, sha(run_experiment(WARMUP_TARGET)))

    def close(self) -> None:
        pass

    def measure_setup(self, clock: RefClock) -> None:
        """Normalised seconds of ``COLD_STARTS`` fresh-interpreter starts,
        into ``setup_s``."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for i in range(COLD_STARTS + 1):
            with pinned(i):
                local = RefClock()
                local.sample(3)
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", self.cold_start], env=env, cwd=ROOT,
                               check=True, timeout=60)
                t1 = time.perf_counter()
                local.sample(3)
            clock.samples.extend(local.samples)
            if i:
                self.setup_s.append(local.normalise(t0, t1) / 1e3)


def _engine_totals() -> dict:
    from repro.simulator.core import GLOBAL_STATS

    return GLOBAL_STATS.as_dict()


class P2P(InProcess):
    name = "p2p"
    pass_seconds = 1.15
    cold_start = (
        "import repro.reporting.experiments\n"
        "from repro.shmem import ShmemJob\n"
        "ShmemJob(nodes=2, design='enhanced-gdr')\n"
    )

    def pass_units(self, i):
        return _seeded_order(P2P_TARGETS, self.seed, i)

    def run_unit(self, target, clock, out):
        from repro.reporting.experiments import run_experiment
        from repro.simulator.core import reset_global_stats

        reset_global_stats()
        t0 = time.perf_counter()
        digest = sha(run_experiment(target))
        t1 = time.perf_counter()
        out.append(Request(target, t0, t1, self.pins.check(target, digest)))
        clock.top_up(t1 - t0)
        return digest + json.dumps(_engine_totals(), sort_keys=True)


class Apps(InProcess):
    name = "apps"
    pass_seconds = 9.2
    cold_start = (
        "import repro.reporting.experiments\n"
        "from repro.shmem import ShmemJob\n"
        "ShmemJob(nodes=8, design='host-pipeline')\n"
    )
    _RUNNERS = ("run_stencil2d", "run_lbm")

    def pass_units(self, i):
        return _seeded_order(APPS_TARGETS, self.seed, i)

    def run_unit(self, target, clock, out):
        import repro.reporting.experiments as exp
        from repro.simulator.core import reset_global_stats

        spans: List[Tuple[str, float, float]] = []
        saved = {name: getattr(exp, name) for name in self._RUNNERS}

        def timed(name, fn):
            def call(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                spans.append((f"{target}:{name}:{kwargs.get('nodes', args[0] if args else '')}", t0, t1))
                clock.top_up(t1 - t0)
                return result
            return call

        reset_global_stats()
        for name, fn in saved.items():
            setattr(exp, name, timed(name, fn))
        try:
            digest = sha(exp.run_experiment(target))
        finally:
            for name, fn in saved.items():
                setattr(exp, name, fn)
        ok = self.pins.check(target, digest)
        out.extend(Request(label, t0, t1, ok) for label, t0, t1 in spans)
        return digest + json.dumps(_engine_totals(), sort_keys=True)


class FuzzFaulted(InProcess):
    name = "fuzz-faulted"
    pass_seconds = 6.8
    # Seed-to-seed cost varies widely inside a cell; two passes left the
    # tail spread over 20% between runs.
    min_passes = 3
    cold_start = (
        "from repro.check import generate_workload, check_workload\n"
        "from repro.shmem import ShmemJob\n"
        "w = generate_workload(0, faults=True, msg=True)\n"
        "ShmemJob(nodes=w.nodes, design=w.design, pes_per_node=w.pes_per_node)\n"
    )

    def pass_units(self, i):
        return _cell_seeds(self.seed, i)

    def run_unit(self, unit, clock, out):
        from repro.check import check_workload, generate_workload
        from repro.simulator.core import reset_global_stats

        check_seed, (design, nodes, ppn) = unit
        reset_global_stats()
        t0 = time.perf_counter()
        w = generate_workload(check_seed, faults=True, msg=True, design=design,
                              nodes=nodes, pes_per_node=ppn)
        report = check_workload(w)
        t1 = time.perf_counter()
        out.append(Request(f"check:{check_seed}", t0, t1, report.passed))
        self.unit_counts = {"check.oracles_run": report.oracles_run,
                            "check.violations": len(report.violations)}
        clock.top_up(t1 - t0)
        h = hashlib.sha256(repr((report.summary(), report.oracles_run, _engine_totals())).encode())
        for mode, obs in sorted(report.runs.items()):
            h.update(repr((mode, obs.elapsed, obs.stats, obs.snapshot)).encode())
            for key, data in sorted(obs.heaps.items()):
                h.update(repr(key).encode())
                h.update(data)
        return h.hexdigest()


# -------------------------------------------------------------------- serve
#: Small check jobs: 8 ops, payloads up to 64 KiB.
SERVE_CHECK_SPEC = {"kind": "check", "ops": 8, "max_bytes": 64 * 1024}


class Service:
    """One ``repro serve`` subprocess with a journal and a fresh cache."""

    def __init__(self, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--journal-dir", str(workdir / "journal"),
            "--cache-dir", str(workdir / "cache"),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        self.url: Optional[str] = None
        announced = threading.Event()

        def drain() -> None:
            # Keep reading so the child never blocks on a full pipe.
            for line in self.proc.stdout:
                if self.url is None and "listening on" in line:
                    self.url = line.split("listening on", 1)[1].split()[0]
                    announced.set()
            announced.set()

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        try:
            if not announced.wait(60) or self.url is None:
                raise RuntimeError("repro serve did not announce its URL")
            self._wait_ready(deadline=time.monotonic() + 60)
        except BaseException:
            self.stop()
            raise
        self.t_ready = time.perf_counter()

    def _wait_ready(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                with urllib.request.urlopen(self.url + "/readyz", timeout=5) as resp:
                    if resp.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError):
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never became ready")

    def stop(self) -> None:
        """SIGINT, then kill the whole process group (pool workers too)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._reader.join(timeout=5)


class ServeCold:
    """Every request executes: fresh cache, each key once per service."""

    name = "serve-cold"
    pass_seconds = 3.8
    # With two passes the tail (the 11th slowest of 96) sat between the
    # costs of two cells and spread over 20% between runs.
    min_passes = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pins = Pins()
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(prefix="serve-", dir=out)
        self._boots = 0
        #: Normalised boot-to-ready seconds of every service started.
        self.setup_s: List[float] = []
        self.pass_stats: List[dict] = []

    def close(self) -> None:
        self._tmp.cleanup()

    def _boot(self, clock: RefClock) -> Service:
        local = RefClock()
        local.sample(3)
        svc = Service(Path(self._tmp.name) / f"svc{self._boots}")
        local.sample(3)
        clock.samples.extend(local.samples)
        self._boots += 1
        self.setup_s.append(local.normalise(svc.t0, svc.t_ready) / 1e3)
        return svc

    def measure_setup(self, clock: RefClock) -> None:
        for i in range(SERVE_SETUP_BOOTS):
            with pinned(i):
                self._boot(clock).stop()

    def warm_up(self) -> bool:
        return True  # each pass warms its own service (see run_pass)

    def passes(self) -> Iterator[list]:
        return map(self.pass_units, itertools.count())

    def pass_units(self, i: int) -> list:
        units = [{"kind": "sweep", "experiment": t} for t in P2P_TARGETS]
        units += [
            dict(SERVE_CHECK_SPEC, seed=s, design=d, nodes=n, pes_per_node=p)
            for s, (d, n, p) in _cell_seeds(self.seed, i)
        ]
        return _seeded_order(units, self.seed, i)

    def run_pass(self, units, clock: RefClock, out: List[Request]) -> None:
        from repro.serve.client import JobFailed, ServeClient

        svc = self._boot(clock)
        try:
            with ServeClient(svc.url, timeout=120.0, retries=0) as client:
                # Fork the pool and import the experiment registry in
                # it before timing; table1's pin is checked here.
                warm = client.wait(client.submit(
                    {"kind": "sweep", "experiment": WARMUP_TARGET})["job"]["id"])
                warm_ok = self.pins.check(WARMUP_TARGET, warm["result"]["output_sha256"])
                # Outside the range _cell_seeds draws from, so never a duplicate.
                client.wait(client.submit(dict(SERVE_CHECK_SPEC, seed=1 << 30))["job"]["id"])
                before = client.stats()
                for spec in units:
                    label = spec.get("experiment") or f"check:{spec['seed']}"
                    t0 = time.perf_counter()
                    ack = client.submit(spec)
                    try:
                        detail = client.wait(ack["job"]["id"], timeout=120)
                    except JobFailed as exc:
                        detail = exc.detail
                    t1 = time.perf_counter()
                    out.append(Request(label, t0, t1, warm_ok and self._ok(spec, ack, detail),
                                       extra=self._timings(detail)))
                    clock.top_up(t1 - t0)
                stats = client.stats()
        finally:
            svc.stop()
        after = stats["counters"]
        delta = {k: after.get(k, 0) - before["counters"].get(k, 0) for k in after}
        appended = stats["journal"]["appended"] - before["journal"]["appended"]
        self.pass_stats.append({"counters": delta, "journal_appends": appended})
        if delta.get("cached_memo") or delta.get("cached_disk") or delta.get("coalesced"):
            for req in out[-len(units):]:
                req.ok = False

    def _ok(self, spec, ack, detail) -> bool:
        if detail.get("state") != "done" or detail.get("cached") or ack.get("dedup") != "new":
            return False
        result = detail.get("result") or {}
        if spec["kind"] == "sweep":
            return self.pins.check(spec["experiment"], result.get("output_sha256")) and not result.get("error")
        return result.get("passed") is True

    @staticmethod
    def _timings(detail) -> dict:
        started, finished = detail.get("started_at"), detail.get("finished_at")
        result = detail.get("result") or {}
        if started is None or finished is None:
            return {}
        return {
            "queue_wait_s": started - detail["submitted_at"],
            "exec_s": finished - started,
            "worker_s": result.get("wall_seconds", 0.0),
            "sim_stats": result.get("sim_stats", {}),
        }


WORKLOADS: Dict[str, Callable] = {
    "p2p": P2P,
    "apps": Apps,
    "fuzz-faulted": FuzzFaulted,
    "serve-cold": ServeCold,
}
