#!/usr/bin/env python3
"""End-to-end benchmark of the confmask CLI and its serve daemon.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Each run builds the program (dune), makes its inputs from --seed, sets
up, runs one untimed warm-up, then measures the workload for --seconds
seconds and checks every output. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured through the
real entry points (the `confmask` binary and a live `confmask serve`);
with --trace 1 they are the per-layer ones, from an in-process replay of
the same steps (e2ebench/probe.ml). The line before it is a JSON object
of host and run metadata. Progress goes to stderr.

Workloads (README.md in this directory explains the choice):
    anonymize-w1000  `confmask anonymize` dir to dir on Waxman1000
    cell-ft10        one `confmask batch` cell on a 10-pod fat tree
    serve-mixed      a warm `confmask serve`, 2 closed-loop connections

--selftest drives all three workload drivers on nets A and B for a
couple of seconds each, traced and untraced, and checks the output.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.basename(HERE)
WORK = os.path.join(ROOT, ".e2ebench-work")
CLI = os.path.join(ROOT, "_build", "default", "bin", "confmask_cli.exe")
PROBE = os.path.join(ROOT, "_build", "default", BENCH, "probe.exe")

DEFAULT_SEED = 1
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A failure that leaves nothing to report: exit 1, no result line."""


def log(msg):
    print(f"[{BENCH}] {msg}", file=sys.stderr, flush=True)


def load_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in b[key]}
    return units("end_to_end"), units("per_layer"), [w["name"] for w in b["workloads"]]


def load_expected():
    with open(os.path.join(HERE, "expected.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------- build


def build():
    needed = ["dune-project", "bin/confmask_cli.ml", "lib", f"{BENCH}/dune", f"{BENCH}/probe.ml"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a confmask source checkout (missing %s)" % ", ".join(missing))
    r = subprocess.run(
        ["dune", "build", "--root", ".", "bin/confmask_cli.exe", f"{BENCH}/probe.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        raise BenchError("build failed")


# ------------------------------------------------------------ processes


def run_child(argv, stderr_path=None):
    """Run a child to completion. Returns (exit code, stdout, wall seconds,
    peak RSS in MB from the child's own rusage)."""
    err = open(stderr_path, "ab") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.monotonic()
        p = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        try:
            out = p.stdout.read()
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    finally:
        if stderr_path:
            err.close()
    return p.returncode, out.decode(errors="replace"), wall, ru.ru_maxrss / 1024.0


def probe(ctx, *args):
    rc, out, wall, _ = run_child([PROBE, *args], stderr_path=ctx.path("probe.log"))
    if rc != 0:
        raise BenchError(f"probe {args[0]} failed (exit {rc}); see {ctx.path('probe.log')}")
    return out, wall


def probe_json(ctx, *args):
    return json.loads(probe(ctx, *args)[0].splitlines()[-1])


def pid_alive(pid):
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def clear_stale():
    """Remove work dirs of runs whose benchmark process died, and any daemon
    they left."""
    if not os.path.isdir(WORK):
        return
    for name in os.listdir(WORK):
        d = os.path.join(WORK, name)
        try:
            owner = int(name.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            owner = None
        if owner is not None and owner != os.getpid() and pid_alive(owner):
            continue
        pidfiles = [os.path.join(base, "daemon.pid")
                    for base, _, files in os.walk(d) if "daemon.pid" in files]
        for pidfile in pidfiles:
            try:
                with open(pidfile) as f:
                    pid = int(f.read().strip())
                if "confmask" in open(f"/proc/{pid}/cmdline").read():
                    os.kill(pid, signal.SIGKILL)
            except (OSError, ValueError):
                pass
        shutil.rmtree(d, ignore_errors=True)


class Ctx:
    """One run's private work directory and its daemons."""

    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.dir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.daemons = []

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def close(self):
        for d in self.daemons:
            d.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


def mark_stale(d):
    """Zero the mtime of every file under d, so that check_fresh can tell
    the files an op rewrote from the ones it left behind."""
    for base, _, files in os.walk(d):
        for f in files:
            os.utime(os.path.join(base, f), (0, 0))


def check_fresh(d):
    stale = [os.path.join(base, f) for base, _, files in os.walk(d) for f in files
             if os.stat(os.path.join(base, f)).st_mtime == 0]
    return f"{len(stale)} stale files, e.g. {stale[0]}" if stale else None


def digest_dir(d):
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(d, name), "rb") as f:
            h.update(f.read() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------- stats


class Tally:
    """Attempted/failed ops and the samples of the successful ones."""

    def __init__(self):
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.samples = []  # (kind, seconds)
        self.problems = []

    def record(self, kind, seconds, ok, problem=None):
        with self.lock:
            self.attempted += 1
            if ok:
                self.samples.append((kind, seconds))
            else:
                self.failed += 1
                self.problems.append(problem or kind)
                log(f"FAILED {kind}: {problem}")

    def times(self, kinds=None):
        return [s for k, s in self.samples if kinds is None or k in kinds]


def end_to_end(tally, elapsed, setup, rss_mb):
    times = tally.times()
    if not times:
        raise BenchError("no operation succeeded: " + "; ".join(tally.problems[:3]))
    return {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / elapsed,
        "peak_rss_mb": rss_mb,
    }


def timed_loop(seconds, op, pass_len=1):
    """Run op(0), op(1), ... until `seconds` have passed and the ops done
    make whole passes of pass_len; returns the elapsed time."""
    t0 = time.monotonic()
    i = 0
    while time.monotonic() - t0 < seconds or i % pass_len:
        op(i)
        i += 1
    return time.monotonic() - t0


def setup_inputs(ctx, *nets):
    """Generate the input networks SETUP_REPEATS times into one directory.
    Every repetition after the first writes over the same files: on some
    hosts creating an inode costs far more, and varies far more, than
    the generation itself."""
    times = [probe(ctx, "gen", ctx.path("in"), *nets)[1] for _ in range(SETUP_REPEATS)]
    return ctx.path("in"), times


# ------------------------------------------------------- anonymize-w1000


def anonymize_once(ctx, inp, out, seed):
    mark_stale(out)
    rc, stdout, wall, rss = run_child(
        [CLI, "anonymize", "--in", inp, "--out", out, "--seed", str(seed)],
        stderr_path=ctx.path("cli.log"),
    )
    problem = None
    if rc != 0:
        problem = f"exit {rc}"
    elif "functional equivalence: true" not in stdout:
        problem = "functional equivalence not true"
    else:
        problem = check_fresh(out)
    digest = digest_dir(out) if os.path.isdir(out) else None
    return problem, digest, wall, rss


def anonymize_replay(ctx, inp, out, seed):
    mark_stale(out)
    res = probe_json(ctx, "anonymize", inp, out, str(seed))
    problem = None if res["ok"] else "replay not equivalent"
    return res["metrics"], digest_dir(out), problem or check_fresh(out)


# ------------------------------------------------------------- cell-ft10


def cell_once(ctx, inp, out, seed):
    mark_stale(out)
    rc, _, wall, rss = run_child(
        [CLI, "batch", "--in-dirs", inp, "--kr", "6", "--kh", "2", "--seed", str(seed),
         "--no-cache", "--out", out],
        stderr_path=ctx.path("cli.log"),
    )
    result = os.path.join(out, f"{os.path.basename(inp)}-kr6-kh2", "result.json")
    problem, rec = None, {}
    if rc != 0:
        problem = f"exit {rc}"
    else:
        try:
            with open(result) as f:
                rec = json.load(f)
        except (OSError, ValueError) as e:
            problem = f"unreadable result.json: {e}"
    if not problem:
        if rec.get("status") != "ok":
            problem = f"status {rec.get('status')}: {rec.get('error')}"
        elif rec.get("functional_equivalence") is not True:
            problem = "functional equivalence not true"
        elif rec.get("verification", {}).get("lost") != 0:
            problem = f"verify lost {rec.get('verification', {}).get('lost')} policies"
        else:
            problem = check_fresh(out)
    return problem, rec.get("digest"), wall, rss


def cell_replay(ctx, inp, out, seed):
    res = probe_json(ctx, "cell", inp, out, str(seed))
    return res["metrics"], res["digest"], None if res["ok"] else "replay check failed"


# Anonymization seeds of the anonymize and cell workloads. Realization
# effort depends on the seed (graphanon.rounds on W1000 ranges from about
# 150 to 800 over seeds 11..18), so every run covers the same panel and
# the workload seed only shuffles its order.
PANEL = [1, 2, 3, 4]


def panel_order(seed):
    order = list(PANEL)
    random.Random(seed).shuffle(order)
    return order


class DigestCheck:
    """Each anonymization seed must give the digest of its earlier runs in
    this run, and the committed one (expected.json) where there is one."""

    def __init__(self, committed):
        self.committed, self.seen = committed or {}, {}

    def __call__(self, seed, digest):
        want = self.seen.setdefault(seed, digest)
        if digest != want:
            return f"seed {seed}: digest {digest} != earlier run of the same inputs {want}"
        want = self.committed.get(str(seed))
        if want and digest != want:
            return f"seed {seed}: digest {digest} != committed {want}"
        return None


def wl_panel(ctx, trace, kind, once, replay):
    """One CLI run per op, cycling through the seed panel in whole passes;
    the warm-up runs the first seed of the order."""
    w = ctx.workload
    nets, setup = setup_inputs(ctx, w.net)
    inp = os.path.join(nets, w.net.replace(":", ""))
    out = ctx.path("out")
    order = panel_order(ctx.seed)
    check = DigestCheck(w.expected)
    tally = Tally()
    problem, digest, wall, _ = once(ctx, inp, out, order[0])
    if problem:
        raise BenchError(f"warm-up {kind} failed: {problem}")
    problem = check(order[0], digest)
    if problem:
        tally.record(kind, wall, False, problem)
    meta = {"panel_order": order, "digests": check.seen}
    if trace:
        # An untraced CLI run and the traced replay of the same op, both
        # writing over the warm-up's outputs.
        problem, digest, wall, _ = once(ctx, inp, out, order[0])
        problem = problem or check(order[0], digest)
        tally.record(kind, wall, problem is None, problem)
        m, digest, problem = replay(ctx, inp, out, order[0])
        problem = problem or check(order[0], digest)
        tally.record(kind, m[f"{kind}.replay_s"], problem is None, problem)
        m["trace_overhead_frac"] = (m[f"{kind}.replay_s"] - wall) / wall
        return tally, m, meta
    rss_all = []

    def op(i):
        s = order[(i + 1) % len(order)]
        problem, digest, wall, rss = once(ctx, inp, out, s)
        problem = problem or check(s, digest)
        tally.record(kind, wall, problem is None, problem)
        rss_all.append(rss)

    elapsed = timed_loop(ctx.seconds, op, len(order))
    return tally, end_to_end(tally, elapsed, setup, statistics.median(rss_all)), meta


def wl_anonymize(ctx, trace):
    return wl_panel(ctx, trace, "anonymize", anonymize_once, anonymize_replay)


def wl_cell(ctx, trace):
    return wl_panel(ctx, trace, "cell", cell_once, cell_replay)


# ----------------------------------------------------------- serve-mixed


class Daemon:
    """A `confmask serve` child with a private socket and disk cache."""

    def __init__(self, ctx, tag):
        self.dir = ctx.path(tag)
        os.makedirs(self.dir)
        self.sock = os.path.relpath(os.path.join(self.dir, "s.sock"), ROOT)
        self.log = os.path.join(self.dir, "serve.log")
        with open(self.log, "wb") as logf:
            self.proc = subprocess.Popen(
                [CLI, "serve", "--listen", "unix:s.sock", "--cache", "cache"],
                cwd=self.dir, stdout=logf, stderr=subprocess.STDOUT,
            )
        with open(os.path.join(self.dir, "daemon.pid"), "w") as f:
            f.write(str(self.proc.pid))
        ctx.daemons.append(self)

    def wait_ready(self, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited early (code {self.proc.returncode})")
            try:
                c = Client(self.sock)
            except OSError:
                time.sleep(0.005)
                continue
            try:
                if c.call({"op": "ping"}).get("ok"):
                    return
            finally:
                c.close()
        raise BenchError("daemon did not answer ping")

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def shutdown(self):
        """Drain with the shutdown op; check the exit and the drain log."""
        c = Client(self.sock)
        try:
            resp = c.call({"op": "shutdown"})
        finally:
            c.close()
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("daemon did not exit after shutdown")
        with open(self.log) as f:
            drained = "drained, exiting" in f.read()
        if not (resp.get("ok") and code == 0 and drained):
            raise BenchError(f"unclean daemon shutdown (exit {code}, drained {drained})")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Client:
    def __init__(self, path):
        self.s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.s.connect(path)
        except OSError:
            self.s.close()
            raise
        self.f = self.s.makefile("rb")

    def call(self, req):
        self.s.sendall(json.dumps(req).encode() + b"\n")
        line = self.f.readline()
        if not line:
            raise BenchError("daemon hung up")
        return json.loads(line)

    def close(self):
        self.f.close()
        self.s.close()


# The warm-up jobs of serve-mixed run at this seed, one per net.
WARM_SEED = 1


def serve_sequence(seed, small, mid, length):
    """The request mix, in blocks of ten: six jobs, two verify, one redteam
    and one ping. Five jobs cover the small nets once each and the sixth
    takes them in turn. Three jobs of a block are fresh, with a seed no
    earlier job used. The other three repeat an earlier (net, kr, kh, seed),
    so the disk cache hits. Reads take the small nets in turn, except that
    one read in every fourth block targets a mid-size net (taking turns).
    Reads target the pairs the warm-up jobs wrote. A mid-size request also
    stalls the other connection's next one behind the single worker, so
    mid-size requests stay rare and the 90th latency percentile falls
    among the small-net requests. Every run gets the same requests: the
    workload seed only shuffles the order within each block."""
    rng = random.Random(seed)
    earlier = {net: [(net, 6, 2, WARM_SEED)] for net in small + mid}
    seq = []
    b = 0
    while len(seq) < length:
        turn = lambda k: small[(b + k) % len(small)]
        before = {net: list(specs) for net, specs in earlier.items()}
        items = []
        for i, net in enumerate(small + [turn(0)]):
            if (i + b) % 2 == 0:
                spec = (net, 6, 2, WARM_SEED + 1 + len(seq) + i)
                earlier[net].append(spec)
                items.append(("job", spec, False))
            else:
                items.append(("job", before[net][b % len(before[net])], True))
        ops = ["verify", "verify", "redteam"]
        ops = ops[b % 3:] + ops[: b % 3]
        targets = [turn(1), turn(2), mid[(b // 4) % len(mid)] if b % 4 == 0 else turn(3)]
        items += [(op, net, False) for op, net in zip(ops, targets)]
        items.append(("ping", None, False))
        rng.shuffle(items)
        seq += items
        b += 1
    return seq[:length]


def job_id(spec):
    net, kr, kh, seed = spec
    return f"{net}-kr{kr}-kh{kh}-s{seed}"


class ServeRun:
    """Builds and checks the requests of one serve run. A job writes its
    outputs under out/<net>-<slot>: slot "w" for the warm-up jobs, whose
    outputs the reads target, and "c<k>" for the jobs of connection k,
    which write over their previous outputs (see setup_inputs)."""

    def __init__(self, ctx, nets_dir, tally, out="out"):
        self.nets_dir, self.tally = os.path.abspath(nets_dir), tally
        self.out = os.path.abspath(ctx.path(out))
        self.digests = {}
        self.lock = threading.Lock()
        self.n = 0

    def request(self, item, slot):
        kind, arg, _ = item
        if kind == "job":
            net, kr, kh, seed = arg
            return {"op": "job", "id": f"{net}-{slot}",
                    "source": {"dir": os.path.join(self.nets_dir, net)},
                    "kr": kr, "kh": kh, "seed": seed, "out": self.out}
        if kind in ("verify", "redteam"):
            return {"op": kind, "orig_dir": os.path.join(self.nets_dir, arg),
                    "anon_dir": os.path.join(self.out, f"{arg}-w", "configs")}
        return {"op": "ping"}

    def check(self, item, resp):
        kind, arg, _ = item
        if not resp.get("ok"):
            return f"{kind}: {resp.get('error')} {resp.get('detail', '')}"
        if kind == "job":
            rec = json.loads(resp["record"])
            if rec.get("status") != "ok":
                return f"job {job_id(arg)}: {rec.get('error')}"
            if rec.get("functional_equivalence") is not True:
                return f"job {job_id(arg)}: functional equivalence not true"
            if rec.get("verification", {}).get("lost") != 0:
                return f"job {job_id(arg)}: verify lost policies"
            with self.lock:
                want = self.digests.setdefault(job_id(arg), rec["digest"])
            if rec["digest"] != want:
                return f"job {job_id(arg)}: digest {rec['digest']} != earlier {want}"
        elif kind == "verify" and resp.get("lost") != 0:
            return f"verify {arg}: lost {resp.get('lost')}"
        elif kind == "redteam" and len(resp.get("attacks", [])) != 5:
            return f"redteam {arg}: {len(resp.get('attacks', []))} attack scores"
        return None

    def call(self, client, item, slot):
        t0 = time.monotonic()
        resp = client.call(self.request(item, slot))
        wall = time.monotonic() - t0
        problem = self.check(item, resp)
        kind = {"job": "job", "ping": "ping"}.get(item[0], "read")
        self.tally.record(kind, wall, problem is None, problem)
        return wall

    def next_index(self, limit):
        with self.lock:
            if self.n >= limit:
                return None
            self.n += 1
            return self.n - 1


def serve_setup(ctx, nets):
    """Generate the nets and start a daemon until it answers a ping, the
    last of SETUP_REPEATS times; earlier daemons are drained."""
    times, daemon = [], None
    for i in range(SETUP_REPEATS):
        if daemon:
            daemon.shutdown()
        t0 = time.monotonic()
        probe(ctx, "gen", ctx.path("in"), *nets)
        daemon = Daemon(ctx, f"d{i}")
        daemon.wait_ready()
        times.append(time.monotonic() - t0)
    return ctx.path("in"), daemon, times


def serve_warmup(run, daemon, warm_specs):
    """One job per net; their outputs are the read targets."""
    c = Client(daemon.sock)
    try:
        for spec in warm_specs:
            item = ("job", spec, False)
            problem = run.check(item, c.call(run.request(item, "w")))
            if problem:
                raise BenchError(f"warm-up failed: {problem}")
    finally:
        c.close()


def wl_serve(ctx, trace):
    w = ctx.workload
    nets = w.small + w.mid
    nets_dir, daemon, setup = serve_setup(ctx, nets)
    tally = Tally()
    run = ServeRun(ctx, nets_dir, tally)
    warm_specs = [(net, 6, 2, WARM_SEED) for net in nets]
    serve_warmup(run, daemon, warm_specs)
    for spec in warm_specs:
        want, got = (w.expected or {}).get(spec[0]), run.digests[job_id(spec)]
        if want and got != want:
            tally.record("job", 0, False, f"{spec[0]}: digest {got} != committed {want}")
    seq = serve_sequence(ctx.seed, w.small, w.mid, 5000)
    meta = {"warmup_digests": {spec[0]: run.digests[job_id(spec)] for spec in warm_specs}}
    if trace:
        return serve_traced(ctx, run, daemon, seq, warm_specs, tally, meta)
    stats0 = stats(daemon)
    t0 = time.monotonic()
    deadline = t0 + ctx.seconds
    last = [t0]
    errors = []

    def conn(k):
        c = Client(daemon.sock)
        try:
            while time.monotonic() < deadline:
                idx = run.next_index(len(seq))
                if idx is None:
                    break
                run.call(c, seq[idx], f"c{k}")
                with run.lock:
                    last[0] = max(last[0], time.monotonic())
        except Exception as e:  # reported below; the run has no result then
            errors.append(e)
        finally:
            c.close()

    threads = [threading.Thread(target=conn, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise BenchError(f"client failed: {errors[0]}")
    elapsed = last[0] - t0
    rss = daemon.vm_hwm_mb()
    stats1 = stats(daemon)
    daemon.shutdown()
    meta["composition"] = composition(seq[: run.n], w.mid, stats0, stats1, tally)
    return tally, end_to_end(tally, elapsed, setup, rss), meta


def stats(daemon):
    c = Client(daemon.sock)
    try:
        return c.call({"op": "stats"})
    finally:
        c.close()


def composition(done, mid, stats0, stats1, tally):
    """The realized request mix of a run, and the daemon's cache hit ratio."""
    n = max(1, len(done))
    jobs = [d for d in done if d[0] == "job"]
    c0, c1 = stats0["counters"], stats1["counters"]
    delta = lambda k: c1.get(k, 0) - c0.get(k, 0)
    hits, misses = delta("diskcache.hit"), delta("diskcache.miss")
    p50 = lambda kinds: statistics.median(tally.times(kinds)) * 1000 if tally.times(kinds) else None
    return {
        "requests": len(done),
        "share_job": len(jobs) / n,
        "share_verify": sum(d[0] == "verify" for d in done) / n,
        "share_redteam": sum(d[0] == "redteam" for d in done) / n,
        "share_ping": sum(d[0] == "ping" for d in done) / n,
        "share_mid_net": sum(d[0] != "ping" and (d[1][0] if d[0] == "job" else d[1]) in mid
                             for d in done) / n,
        "job_repeat_share": sum(d[2] for d in jobs) / max(1, len(jobs)),
        "diskcache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "rejected": delta("serve.rejected"),
        "p50_ms": p50(None),
        "p90_ms": statistics.quantiles(tally.times(), n=10, method="inclusive")[8] * 1000
        if len(tally.times()) > 1 else None,
        "job_p50_ms": p50({"job"}),
        "read_p50_ms": p50({"read"}),
    }


def span(stats_resp, name):
    for s in stats_resp["spans"]:
        if s["path"] == name:
            return s["count"], s["seconds"]
    return 0, 0.0


def serve_traced(ctx, run, daemon, seq, warm_specs, tally, meta):
    """The same sequence twice: through the daemon on one connection (the
    transport's share of each round trip), then in-process through the
    dispatcher with a fresh cache (probe serve)."""
    s0 = stats(daemon)
    c = Client(daemon.sock)
    rtts = []
    t0 = time.monotonic()
    try:
        while time.monotonic() - t0 < ctx.seconds and len(rtts) < len(seq):
            rtts.append(run.call(c, seq[len(rtts)], "c0"))
    finally:
        c.close()
    s1 = stats(daemon)
    daemon.shutdown()
    n0, sec0 = span(s0, "serve.request")
    n1, sec1 = span(s1, "serve.request")
    c0, c1 = s0["counters"], s1["counters"]
    hits = c1.get("diskcache.hit", 0) - c0.get("diskcache.hit", 0)
    misses = c1.get("diskcache.miss", 0) - c0.get("diskcache.miss", 0)
    # The replay: warm-up jobs first (untimed), then the same requests.
    replay = ServeRun(ctx, run.nets_dir, Tally(), out="replay-out")
    lines = [replay.request(("job", spec, False), "w") for spec in warm_specs]
    lines += [replay.request(item, "c0") for item in seq[: len(rtts)]]
    reqs = ctx.path("requests.jsonl")
    with open(reqs, "w") as f:
        f.write("".join(json.dumps(r) + "\n" for r in lines))
    res = probe_json(ctx, "serve", reqs, ctx.path("replay-cache"), str(len(warm_specs)))
    if not res["ok"]:
        tally.record("replay", 0, False, "a replayed request failed")
    m = res["metrics"]
    rtt_total = sum(rtts)
    m["netcore.server.overhead_ms"] = (rtt_total / len(rtts) - (sec1 - sec0) / max(1, n1 - n0)) * 1000
    m["netcore.server.rejected"] = c1.get("serve.rejected", 0)
    m["netcore.diskcache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["trace_overhead_frac"] = (res["handled_s"] - rtt_total) / rtt_total
    meta["composition"] = composition(seq[: len(rtts)], ctx.workload.mid, s0, s1, tally)
    return tally, m, meta


# ------------------------------------------------------------ workloads


class Workload:
    def __init__(self, name, driver, net=None, small=None, mid=None, expected=None):
        self.name, self.driver, self.net = name, driver, net
        self.small, self.mid, self.expected = small, mid, expected


def workloads(expected):
    return {
        "anonymize-w1000": Workload("anonymize-w1000", wl_anonymize, net="W1000",
                                    expected=expected.get("anonymize-w1000")),
        "cell-ft10": Workload("cell-ft10", wl_cell, net="FT:10",
                              expected=expected.get("cell-ft10")),
        "serve-mixed": Workload("serve-mixed", wl_serve, small=["A", "B", "C", "G", "CCNP"],
                                mid=["D", "H"], expected=expected.get("serve-mixed")),
    }


def selftest_workloads():
    return {
        "anonymize-w1000": Workload("anonymize-w1000", wl_anonymize, net="A"),
        "cell-ft10": Workload("cell-ft10", wl_cell, net="B"),
        "serve-mixed": Workload("serve-mixed", wl_serve, small=["A"], mid=["B"]),
    }


def host_meta(args):
    def out(argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=20).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    sources = [os.path.join(ROOT, "dune-project")] + sorted(
        os.path.join(base, f)
        for top in ("bin", "lib")
        for base, _, files in os.walk(os.path.join(ROOT, top))
        for f in files
    )
    h = hashlib.sha256()
    for path in sources:
        with open(path, "rb") as f:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "source_sha256": h.hexdigest()[:16],
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
        "git_rev": out(["git", "rev-parse", "HEAD"]),
        "program_jobs": "default (nproc)",
        "serve_workers": "default",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(w, args, e2e_units, layer_units):
    clear_stale()
    ctx = Ctx(w, args.seed, args.seconds)
    try:
        tally, metrics, meta = w.driver(ctx, args.trace)
    finally:
        ctx.close()
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    units = layer_units if args.trace else e2e_units
    missing = [k for k in metrics if k not in units]
    if missing:
        raise BenchError(f"unnamed metrics {missing}")
    values = {name: float(metrics.get(name, 0.0)) for name in units}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    meta["failed_frac"] = tally.failed / max(1, tally.attempted)
    return result, meta


def selftest(e2e_units, layer_units):
    """Drive all three workload drivers on nets A and B, traced and not."""
    problems = []
    for w in selftest_workloads().values():
        for trace in (0, 1):
            args = argparse.Namespace(workload=w.name, seed=DEFAULT_SEED, seconds=2, trace=trace)
            result, meta = run_one(w, args, e2e_units, layer_units)
            units = layer_units if trace else e2e_units
            m = result["metrics"]
            tag = f"{w.name} trace={trace}"
            log(f"{tag}: attempted {result['attempted']} failed {result['failed']}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: not correct")
            for name, unit in units.items():
                if name not in m or m[name]["unit"] != unit:
                    problems.append(f"{tag}: {name} missing or without unit {unit}")
            if not trace:
                continue
            v = lambda n: m[n]["value"]
            sums = {
                "core.workflow_s": ["core.workflow.baseline_s", "core.topo_anon_s",
                                    "core.route_equiv_s", "core.route_anon_s",
                                    "core.workflow.unattributed_s"],
            }
            if w.name == "anonymize-w1000":
                sums["anonymize.replay_s"] = ["configlang.parse_s", "core.workflow_s",
                                              "configlang.print_s", "core.metrics_s",
                                              "core.functional_equivalence_s",
                                              "anonymize.unattributed_s"]
            if w.name == "cell-ft10":
                sums["cell.replay_s"] = ["configlang.parse_s", "core.workflow_s",
                                         "configlang.print_s", "core.verify_s",
                                         "core.functional_equivalence_s", "cell.unattributed_s"] + [
                    n for n in layer_units if n.startswith("redteam.")]
            for parent, children in sums.items():
                total = sum(v(c) for c in children)
                if v(parent) <= 0 or abs(total - v(parent)) > 1e-6 * max(1.0, v(parent)):
                    problems.append(f"{tag}: {parent} {v(parent)} != sum {total}")
            if w.name == "serve-mixed":
                if v("netcore.diskcache.hit_ratio") <= 0:
                    problems.append(f"{tag}: no disk cache hits")
                if v("netcore.server.overhead_ms") == 0:
                    problems.append(f"{tag}: server overhead not reported")
            if v("trace_overhead_frac") == 0:
                problems.append(f"{tag}: trace_overhead_frac not reported")
    for p in problems:
        log("SELFTEST: " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        e2e_units, layer_units, names = load_definitions()
        build()
        if args.selftest:
            return selftest(e2e_units, layer_units)
        ws = workloads(load_expected())
        if args.workload not in ws or args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(ws)}")
        result, meta = run_one(ws[args.workload], args, e2e_units, layer_units)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    meta.update(host_meta(args))
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
