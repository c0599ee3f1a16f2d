"""cupcap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; cupcap is imported from ``src``.
Workloads (see README.md for why each was chosen):

* ``cli_certify``: one CLI session of fresh ``python -m cupcap.cli``
  processes (constructions with certificates, verify, analyze, fat-cap).
* ``threshold_scan``: ``find_structure`` on general-position sets at and
  just below the Erdos-Szekeres threshold, m, n in 3..7.
* ``relative_body``: inner-cap/outer-cup chains, conv order + Dilworth and
  cell profiles relative to a convex body.

A run repeats rounds, each a fixed amount of work made from (seed, round)
and run in a fresh interpreter, while the next round is expected to fit in
``--seconds`` (always at least one).  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` every round runs once untraced and
once traced, and it prints the per-layer metrics from the traced copies.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import cli_session
import speed
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_certify", "threshold_scan", "relative_body")
SETUP_REPS = 7
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    # one string-hash layout for every process: with random seeds the
    # small pure-Python items shift by several percent from one process
    # to the next
    env["PYTHONHASHSEED"] = "0"
    path = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_child(argv: list[str], cwd: Path,
              track: speed.Track) -> tuple[int, float, float, float, float]:
    """Run a process to completion, probing the machine speed meanwhile.

    Returns (exit code, CPU seconds, peak RSS MB, start, end), start and
    end on the ``time.perf_counter`` clock.  Output goes to files in
    ``cwd``; a child that runs past ``CHILD_TIMEOUT_S`` is killed.
    """
    with open(cwd / "child.out", "ab") as out, \
            open(cwd / "child.err", "ab") as err:
        track.probe()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=out, stderr=err)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > CHILD_TIMEOUT_S:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            track.probe()
            time.sleep(speed.GAP_S)
        end = time.perf_counter()
        track.probe()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024, start, end)


def measure_setup(run: "Run", work: Path) -> float:
    """Median time of ``import cupcap`` in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        rc, cpu, _, start, end = run_child(
            [sys.executable, "-c", "import cupcap"], work, run.track)
        if rc != 0:
            raise RuntimeError("import cupcap failed")
        times.append(cpu * run.track.factor(start, end))
    return statistics.median(times)


class Run:
    """What one run collected: items, round walls, failures, traces."""

    def __init__(self):
        self.items: list[tuple[str, float, bool]] = []  # kind, ms, accepted
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.rss_mb = 0.0
        self.trace = tracing.empty_snapshot()
        self.layer: dict[str, float] = {}  # benchmark-computed layer values
        self.steps: dict[str, list[float]] = {}
        self.track = speed.Track()

    def fail(self, msg: str) -> None:
        self.failures.append(msg)


# ---------------------------------------------------------------------------
# cli_certify


def cli_session_run(run: Run, work: Path, seed: int, scale: str,
                    traced: bool, digests: dict | None) -> tuple[float, dict]:
    """One session in its own directory: (wall s, {file: sha256})."""
    d = Path(tempfile.mkdtemp(dir=work, prefix="traced-" if traced else "s-"))
    cli_session.write_cloud(d, seed, scale)
    expected = cli_session.pinned(scale, seed, digests)
    wall, outputs = 0.0, {}
    for step in cli_session.steps(scale):
        spans = d / f"{step.name}.spans.json"
        argv = ([sys.executable, str(HERE / "traced_cli.py"), str(spans)]
                if traced else [sys.executable, "-m", "cupcap.cli"])
        rc, cpu, rss, start, end = run_child(argv + step.argv, d, run.track)
        factor = run.track.factor(start, end)
        dt = cpu * factor
        wall += dt
        run.attempted += 1
        run.rss_mb = max(run.rss_mb, rss)
        if traced:
            snap = tracing.merge(tracing.empty_snapshot(),
                                 json.loads(spans.read_text()), factor)
            tracing.merge(run.trace, snap)
            main_s = sum(s for _, s in snap["spans"].values())
            run.layer["cli.process_start_s"] = (
                run.layer.get("cli.process_start_s", 0.0) + dt - main_s)
            print(f"  traced step {step.name}: {dt:.3f} s; self time "
                  f"{layer_shares(snap, dt)}, process start "
                  f"{(dt - main_s) / dt:.0%}")
        else:
            run.items.append((step.name, dt * 1e3, True))
            run.steps.setdefault(step.name, []).append(dt)
        failure = (f"exit code {rc}" if rc != 0 else step.check(d))
        for name in step.outputs:
            digest = cli_session.sha256(d / name) if (d / name).exists() \
                else "missing"
            outputs[name] = digest
            if name in expected and digest != expected[name]:
                failure = failure or f"{name} digest {digest[:12]} is not " \
                                     f"the pinned {expected[name][:12]}"
        if failure:
            run.fail(f"{step.name}: {failure}")
    if traced:
        run.layer["extremal.coord_bits_max"] = max(
            cli_session.coord_bits_of(d / f)
            for f in ("x.pts", "xl.pts", "es_cert.pts", "es.pts",
                      "cloud.pts"))
        for step, name in cli_session.CONSTRUCTIONS.items():
            run.layer[f"constructions.output_coord_bits.{step}"] = \
                cli_session.coord_bits_of(d / name)
    return wall, outputs


def layer_shares(snap: dict, total: float) -> str:
    """Each layer's self time as a share of ``total``, largest first."""
    layers: dict[str, float] = {}
    for name, (_, self_s) in snap["spans"].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + self_s
    return ", ".join(f"{k} {v / total:.0%}" for k, v in
                     sorted(layers.items(), key=lambda kv: -kv[1])
                     if v >= 0.01 * total)


def rounds(seconds: float):
    """Round numbers, while the next round is expected to fit in
    ``seconds`` at the mean pace so far; always at least one."""
    start = time.perf_counter()
    done = 0
    while done == 0 or (time.perf_counter() - start) * (done + 1) / done \
            <= seconds:
        yield done
        done += 1


def cli_certify(run: Run, work: Path, seed: int, seconds: float, scale: str,
                trace: bool, digests: dict | None = None) -> None:
    for _ in rounds(seconds):
        wall, outputs = cli_session_run(run, work, seed, scale, False,
                                        digests)
        run.walls.append(wall)
        if trace:
            twall, toutputs = cli_session_run(run, work, seed, scale, True,
                                              digests)
            run.traced_walls.append(twall)
            if toutputs != outputs:
                run.fail("traced session outputs differ from untraced")
    print("cli outputs (sha256): " + json.dumps(outputs, sort_keys=True))


# ---------------------------------------------------------------------------
# in-process workloads


def inprocess_round(run: Run, work: Path, workload: str, seed: int, rnd: int,
                    scale: str, traced: bool) -> dict | None:
    out = work / f"round-{rnd}-{int(traced)}.json"
    argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
            str(rnd), scale, "1" if traced else "0", str(out)]
    rc, _, rss, _, _ = run_child(argv, work, run.track)
    run.rss_mb = max(run.rss_mb, rss)
    if rc != 0 or not out.exists():
        run.attempted += 1
        run.fail(f"round {rnd} worker exited with code {rc}")
        return None
    res = json.loads(out.read_text())
    # scale each item by the speed probed while it ran
    res["trace"], items = tracing.empty_snapshot(), []
    for kind, ok, cpu, start, end, spans in res["items"]:
        factor = run.track.factor(start - speed.GAP_S, end + speed.GAP_S)
        items.append((kind, cpu * factor * 1e3, ok))
        if spans:
            tracing.merge(res["trace"], spans, factor)
    res["items"] = items
    ms = [t for _, t, _ in items]
    res["wall_s"] = sum(ms) / 1e3
    run.attempted += len(res["items"])
    run.failures.extend(f"round {rnd}: {f}" for f in res["failures"])
    return res


def inprocess(run: Run, work: Path, workload: str, seed: int, seconds: float,
              scale: str, trace: bool) -> None:
    for rnd in rounds(seconds):
        res = inprocess_round(run, work, workload, seed, rnd, scale, False)
        if res is not None:
            run.walls.append(res["wall_s"])
            run.digests.append(res["digest"])
            run.items.extend(res["items"])
            run.layer["extremal.coord_bits_max"] = res["coord_bits_max"]
        if trace:
            tres = inprocess_round(run, work, workload, seed, rnd, scale,
                                   True)
            if tres is not None:
                run.traced_walls.append(tres["wall_s"])
                tracing.merge(run.trace, tres["trace"])
                if res is not None and tres["digest"] != res["digest"]:
                    run.fail(f"round {rnd}: traced output digest differs")
    print(f"{workload} round digests: " + " ".join(
        d[:16] for d in run.digests))
    if trace:
        print("traced self time: "
              + layer_shares(run.trace, sum(run.traced_walls)))


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def end_to_end(run: Run, setup_s: float) -> dict:
    ms = [t for _, t, ok in run.items if ok]
    return {
        "wall_s": (statistics.median(run.walls), "s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (quantile(ms, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
    }


def per_layer(run: Run) -> dict:
    out = {}
    for name, (calls, self_s) in run.trace["spans"].items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for name, value in run.trace["counters"].items():
        out[name] = (value, "bytes" if "bytes" in name else "count")
    layer = run.layer
    out["cli.process_start_s"] = (layer.get("cli.process_start_s", 0.0), "s")
    out["bench.self_s"] = (out["bench.self_s"][0]
                           + layer.get("cli.process_start_s", 0.0), "s")
    out["extremal.coord_bits_max"] = (layer.get("extremal.coord_bits_max", 0),
                                      "bits")
    for step in cli_session.CONSTRUCTIONS:
        name = f"constructions.output_coord_bits.{step}"
        out[name] = (layer.get(name, 0), "bits")
    c9 = [(t, ok) for kind, t, ok in run.items if kind == "inner_outer"]
    out["relative.accepted_ratio"] = (
        sum(ok for _, ok in c9) / len(c9) if c9 else 0.0, "ratio")
    out["relative.rejected_s"] = (
        sum(t for t, ok in c9 if not ok) / 1e3, "s")
    for step, name in cli_session.STEP_METRICS.items():
        times = run.steps.get(step)
        out[name] = (statistics.median(times) if times else 0.0, "s")
    traced, untraced = sum(run.traced_walls), sum(run.walls)
    out["bench.traced_wall_s"] = (traced, "s")
    out["trace_overhead_ratio"] = (traced / untraced, "ratio")
    return out


def describe(run: Run, workload: str, seed: int, trace: bool) -> None:
    """Human-readable context lines printed before the JSON result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    print(f"env: python {platform.python_version()}, numpy "
          f"{importlib.metadata.version('numpy')}, cpu {cpu}, "
          f"nproc {os.cpu_count()}")
    ms = [t for _, t, ok in run.items if ok]
    print(f"{workload} seed {seed} trace {int(trace)}: {len(run.walls)} "
          f"rounds, {len(ms)} timed items in the percentiles, "
          f"{run.attempted} attempted, {len(run.failures)} failed "
          f"(fail_ratio {len(run.failures) / run.attempted:.4f})")
    f = run.track.factors
    print(f"speed factors (reference / probed speed) over {len(f)} probes: "
          f"median {statistics.median(f):.3f}, "
          f"range {min(f):.3f}-{max(f):.3f}")
    for step, times in run.steps.items():
        print(f"  step {step}: " + ", ".join(f"{t:.3f} s" for t in times))
    c9 = [ok for kind, _, ok in run.items if kind == "inner_outer"]
    if c9:
        print(f"  criterion-9 instances accepted: {sum(c9)} of {len(c9)}")
    for msg in run.failures[:20]:
        print(f"  FAILED {msg}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the self-tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cupcap" / "__init__.py").is_file():
        print(f"error: no cupcap sources under {ROOT / 'src'}; run from "
              "the root of a cupcap checkout", file=sys.stderr)
        return 2
    # one vCPU for every process, so the speed probes measure the CPU that
    # the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    run = Run()
    try:
        setup_s = None if args.trace else measure_setup(run, work)
        if args.workload == "cli_certify":
            cli_certify(run, work, args.seed, args.seconds, args.scale,
                        bool(args.trace))
        else:
            inprocess(run, work, args.workload, args.seed, args.seconds,
                      args.scale, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    describe(run, args.workload, args.seed, bool(args.trace))
    metrics = per_layer(run) if args.trace else end_to_end(run, setup_s)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
