"""Benchmark for rwz, end to end and layer by layer: codec Monte Carlo
blocks and the decoder noise-threshold search.

    python3 perfbench/run.py --workload toy_mc --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py     # every workload untraced, then each traced

It drives the entry points behind ``rwz run`` and ``rwz channel-bench``:
``config.parse_config``, ``SimConfig.build_codes``, then ``codec.evaluate``
or ``bp.find_noise_threshold``.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  perfbench/README.md documents every metric and workload.
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
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
INPUTS = BENCH_DIR / "inputs"
OUT = BENCH_DIR / "out"

DEFAULT_SEED = 0
HELD_OUT_SEED = 104729  # confirm a claim here; never tune against it
DEFAULT_SECONDS = 40
SETUP_REPEATS = 11
# operation i of a run with workload seed s uses program seed s * stride + i
OP_SEED_STRIDE = 1_000_000
# the stream rwz channel-bench derives its probe noise from
CHANNEL_STREAM = 0xC4
# reference_seconds() on the host the benchmark was defined on (2-core
# x86-64, numpy 2.4.6); end-to-end times are scaled to this host speed
REF_NOMINAL_S = 0.003


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    kind: str         # "mc": codec.evaluate; "channel": bp.find_noise_threshold
    ops_per_s: float  # unscaled rate on the defining host; sets the count
    traced_ops: int   # fixed, so the traced run's counts repeat exactly


# toy_mc and toy_threshold are the workloads BENCHMARK.json names; the n=10^4
# pair runs under --workload all (README: one operation there takes 12-33 s,
# too few fit a run for its figures to be steady across seeds)
WORKLOADS = {w.name: w for w in (
    Workload("toy_mc", "toy.cfg", "mc", 1.6, 24),
    Workload("toy_threshold", "toy.cfg", "channel", 0.45, 8),
    Workload("desk_mc", "toy_n10000.cfg", "mc", 0.06, 1),
    Workload("channel_threshold", "toy_n10000.cfg", "channel", 0.033, 1),
)}


def import_program():
    """Import rwz from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rwz
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import rwz from {src}: {exc}")
    if not Path(rwz.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: rwz resolved to {rwz.__file__}, not under {src}")


@dataclass
class Setup:
    cfg: object
    params: object
    codes: object
    stage1: object
    stage2: object


def set_up(wl):
    from rwz import config
    cfg = config.parse_config(INPUTS / wl.config)
    params = cfg.params()
    codes = cfg.build_codes(params)
    return Setup(cfg, params, codes, cfg.stage1_cfg(params),
                 cfg.stage2_cfg(params))


@dataclass
class Op:
    seconds: float
    cpu_s: float
    blocks: int          # n-sample blocks processed (codec or probe blocks)
    attempted: int
    failed: int
    lines: list          # fingerprint lines
    mses: list           # codec block MSEs
    undetected: list     # (op_seed, row) of wrong-codeword decodes
    symbol_errors: int
    threshold: float | None = None
    ref_s: float = 0.0   # reference_seconds() just before the operation


def run_mc(su, op_seed, threads):
    """One codec.evaluate call, as rwz run makes it, of one block per
    configured thread, so that a parallel run keeps every thread busy."""
    from rwz import codec
    cfg = su.cfg
    report = codec.evaluate(
        cfg.threads, su.params, su.codes, cfg.side_info_dist(), op_seed,
        cfg=su.stage1, stage2_cfg=su.stage2, decode_iters=cfg.decode_max_iters,
        noise_var=cfg.decode_noise_variance, wrap_limit=cfg.wrap_limit,
        threads=threads)
    rows = report.per_block
    # flagged exactly as rwz run flags a block
    flagged = sum(not (r.encoder_converged and r.decoder_converged)
                  for r in rows)
    # both sides converged, yet the decoder stopped at another codeword
    undetected = [(op_seed, r) for r in rows if r.encoder_converged
                  and r.decoder_converged and r.symbol_errors > 0]
    return dict(
        blocks=len(rows), attempted=len(rows),
        failed=flagged + len(undetected),
        lines=[f"{op_seed},{r.csv_row()}" for r in rows],
        mses=[r.mse for r in rows], undetected=undetected,
        symbol_errors=sum(r.symbol_errors for r in rows))


def run_channel(su, op_seed):
    """One noise-threshold search, as rwz channel-bench makes it."""
    from rwz import bp
    cfg = su.cfg
    probes_csv = OUT / "channel_probes.csv"
    rng = np.random.default_rng(np.random.SeedSequence((op_seed,
                                                        CHANNEL_STREAM)))
    try:
        threshold = bp.find_noise_threshold(
            su.codes.ldpc_graph, su.codes.stage1_map, cfg.ber_target, rng,
            blocks_per_probe=cfg.threshold_blocks,
            var_tol=cfg.threshold_var_tol, max_iters=cfg.decode_max_iters,
            wrap_limit=cfg.wrap_limit, csv_path=probes_csv)
    except bp.ThresholdBracketError:
        threshold = None
    with open(probes_csv, encoding="utf-8") as fh:
        probes = sum(1 for _ in fh) - 1
    return dict(
        blocks=probes * cfg.threshold_blocks, attempted=1,
        failed=int(threshold is None),
        lines=[f"{op_seed},{threshold!r}"], mses=[], undetected=[],
        symbol_errors=0, threshold=threshold)


def reference_seconds(reps=3):
    """Best of `reps` timings of a fixed computation shaped like one
    message-passing iteration at n=10^3 (gathers, segmented sums, log-tanh)
    plus interpreter work.  It shares no code with rwz, so its time follows
    only the speed the host gives this process at the moment, which on a
    shared host swings by 1.6x within minutes."""
    rng = np.random.default_rng(12345)
    chk = np.sort(rng.integers(0, 320, 3840))
    var = rng.permutation(3840) % 1000
    q0 = rng.normal(0.0, 2.0, 3840)
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        q = q0
        for _ in range(40):
            f = -np.log(np.tanh(0.5 * np.clip(np.abs(q), 1e-12, None)))
            tot = np.bincount(chk, weights=f, minlength=320)
            v = np.bincount(var, weights=q, minlength=1000)
            q = np.clip(tot[chk] - f + 0.01 * v[var], -50.0, 50.0)
        counts = {}
        for i in range(3000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


def timed_set_up(wl):
    """(set-up seconds, reference seconds just before, Setup)."""
    ref_s = reference_seconds()
    t0 = time.perf_counter()
    su = set_up(wl)
    return time.perf_counter() - t0, ref_s, su


def run_op(wl, su, seed, i, threads=None):
    """Operation i of a run with workload seed `seed`, timed."""
    op_seed = seed * OP_SEED_STRIDE + i
    threads = su.cfg.threads if threads is None else threads
    t0, c0 = time.perf_counter(), time.process_time()
    if wl.kind == "mc":
        out = run_mc(su, op_seed, threads)
    else:
        out = run_channel(su, op_seed)
    return Op(seconds=time.perf_counter() - t0,
              cpu_s=time.process_time() - c0, **out)


def untraced_count(wl, seconds):
    """Operations in an untraced run: set by the workload and `seconds`
    alone, never by the clock, so that a seed's attempted and failed counts
    repeat exactly.  On the defining host the run takes about `seconds`."""
    return max(1, round(seconds * wl.ops_per_s))


def run_untraced(wl, su, seed, seconds, setups):
    """Closed loop from one process: the next operation starts when the last
    has returned, untraced_count(wl, seconds) of them.

    Set-up is also timed, SETUP_REPEATS times in all, before evenly spaced
    operations and appended to `setups` as (seconds, reference seconds), so
    that its median spans the same stretch of machine time as the
    operations do.  Every operation is paired with a reference timing.
    """
    count = untraced_count(wl, seconds)
    ops = []
    for i in range(count):
        while (len(setups) < SETUP_REPEATS
               and i >= len(setups) * count / SETUP_REPEATS):
            setups.append(timed_set_up(wl)[:2])
        ref_s = reference_seconds()
        ops.append(run_op(wl, su, seed, i))
        ops[-1].ref_s = ref_s
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_set_up(wl)[:2])
    return ops


def is_neighbour_codeword(su, op_seed, row):
    """Re-run one block through the public encoder and decoder, drawing its
    inputs in codec.evaluate's order, and confirm that the decoder stopped
    on a codeword exactly `row.symbol_errors` symbols from the encoder's.

    This is what a converged decode with symbol errors must be: the
    stage-1 profile has more degree-2 variables than checks, so the code has
    low-weight codewords that sum-product can land on at short lengths.
    """
    from rwz import codec
    from rwz.modlattice import sample_dither
    cfg, params, codes = su.cfg, su.params, su.codes
    n = codes.n
    rng = np.random.default_rng(np.random.SeedSequence((op_seed, row.block)))
    y_a = cfg.side_info_dist().sample(n, rng)
    x = y_a + rng.normal(0.0, math.sqrt(params.p_v), n)
    dither = sample_dither(n, params.a_p, rng)
    index_bits, enc = codec.encode(x, params, codes, dither, su.stage1,
                                   su.stage2, rng, strict=False)
    x_hat, dec, converged = codec.decode(
        index_bits, y_a, dither, params, codes,
        max_iters=cfg.decode_max_iters, noise_var=cfg.decode_noise_variance,
        wrap_limit=cfg.wrap_limit)
    cmap = codes.stage1_map
    labels = np.asarray(cmap.gray_labels)

    def bits(codeword):  # the shaping codeword is the negated symbol image
        return labels[np.searchsorted(cmap.levels, -codeword)]

    sent, got = bits(enc.c1), bits(dec.c1_hat)
    err = x_hat - x
    mse = float(np.dot(err, err) / n)
    graph = codes.ldpc_graph
    return (converged and f"{mse:.12g}" == f"{row.mse:.12g}"
            and not graph.check_parities(sent).any()
            and not graph.check_parities(got).any()
            and int(np.count_nonzero(sent != got)) == row.symbol_errors)


def fingerprint(ops):
    text = "".join(line + "\n" for op in ops for line in op.lines)
    return hashlib.sha256(text.encode()).hexdigest()


def capacity_noise_limit(levels, mod_size, rate, wrap=8, points=4096):
    """Largest noise variance at which the folded Gaussian channel with
    uniform input on the two stage-1 levels still carries `rate` bits per
    use: the capacity limit a channel code of that rate cannot beat."""
    a = float(mod_size)
    w = (np.arange(points) + 0.5) * (a / points) - a / 2
    offsets = a * np.arange(-wrap, wrap + 1)

    def log_density(level, var):
        z = -np.square(w[:, None] - level + offsets[None, :]) / (2 * var)
        top = z.max(axis=1)
        return top + np.log(np.exp(z - top[:, None]).sum(axis=1)) \
            - 0.5 * math.log(2 * math.pi * var)

    def mutual_info(var):
        lp = [log_density(level, var) for level in levels]
        lmix = np.logaddexp(lp[0], lp[1]) - math.log(2)
        nats = sum(np.exp(l) * (l - lmix) for l in lp).sum() * (a / points)
        return 0.5 * nats / math.log(2)

    lo, hi = 1e-6 * a * a, a * a
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if mutual_info(mid) >= rate else (lo, mid)
    return lo


def quality(wl, su, ops):
    """Loss against the information-theoretic limit, and the output checks.

    Codec: 10 log10(MSE / D) over every block, D being the rate-distortion
    bound.  Channel: 10 log10(limit / threshold), the median threshold's
    distance below the capacity limit of the code's rate.
    """
    checks = {}
    if wl.kind == "mc":
        mses = [m for op in ops for m in op.mses]
        run_mse = sum(mses) / len(mses)
        checks["mse_finite_below_p_v"] = (
            all(math.isfinite(m) for m in mses) and run_mse < su.params.p_v)
        checks["converged_decode_errors_are_codewords"] = all(
            is_neighbour_codeword(su, op_seed, row)
            for op in ops for op_seed, row in op.undetected)
        return 10 * math.log10(run_mse / su.params.d), checks
    a = su.codes.modulo
    found = [op.threshold for op in ops if op.threshold is not None]
    if not found:
        sys.exit("perfbench: no threshold search bracketed its target")
    limit = capacity_noise_limit(su.codes.stage1_map.levels, a,
                                 su.codes.ldpc_graph.rate)
    checks["threshold_in_range"] = all(0 < t <= a * a for t in found)
    checks["threshold_below_capacity_limit"] = all(t < limit for t in found)
    # the median, because a probe that one bad block fails leaves the
    # thresholds a long low tail
    return 10 * math.log10(limit / statistics.median(found)), checks


def end_to_end(wl, su, ops, setups):
    """Times are scaled to the nominal host speed by the reference timing
    paired with each sample: seconds * REF_NOMINAL_S / reference seconds."""
    loss_db, checks = quality(wl, su, ops)
    metrics = {
        "setup_s": (statistics.median(t * REF_NOMINAL_S / r
                                      for t, r in setups), "s"),
        "blocks_per_s": (statistics.median(
            op.blocks / op.seconds * op.ref_s / REF_NOMINAL_S
            for op in ops), "1/s"),
        "loss_db": (loss_db, "dB"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics, checks


def per_layer(wl, su, seed):
    """Each of the fixed operations untraced, then traced: the spans give
    the layer figures, the two passes' outputs must match, and alternating
    them keeps drift in machine speed out of the tracing overhead."""
    import tracing
    tracer = tracing.Tracer(tracing.sites())
    plain, traced = [], []
    with tracer:
        traced_su = set_up(wl)
    for i in range(wl.traced_ops):
        plain.append(run_op(wl, su, seed, i))
        with tracer:
            traced.append(run_op(wl, traced_su, seed, i))
    _, checks = quality(wl, su, plain)
    prints = {"untraced": fingerprint(plain), "traced": fingerprint(traced)}
    checks["traced_equals_untraced"] = prints["traced"] == prints["untraced"]
    if wl.kind == "mc" and su.cfg.threads > 1:
        single = [run_op(wl, su, seed, i, threads=1)
                  for i in range(wl.traced_ops)]
        prints["threads_1"] = fingerprint(single)
        checks[f"threads_{su.cfg.threads}_equals_threads_1"] = \
            prints["threads_1"] == prints["untraced"]

    metrics = tracing.layer_metrics(tracer, traced_su.codes)
    plain_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in traced)
    mc = wl.kind == "mc"
    n_blocks = sum(op.blocks for op in traced) if mc else 0
    found = [op.threshold for op in traced if op.threshold is not None]
    metrics.update({
        "codec.evaluate.cpu_util": (
            sum(op.cpu_s for op in plain) / (plain_s * su.cfg.threads)
            if mc else 0.0, "ratio"),
        "codec.symbol_error_rate": (
            sum(op.symbol_errors for op in traced) / (n_blocks * su.codes.n)
            if mc else 0.0, "ratio"),
        "bp.find_noise_threshold.var": (
            statistics.median(found) if found else 0.0, "var"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
    })
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}-seed{seed}-spans.csv.gz")
    return traced, metrics, checks, prints


def environment():
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine()}


def run_workload(wl, seed, seconds, trace):
    import_program()
    OUT.mkdir(exist_ok=True)
    setup_s, ref_s, su = timed_set_up(wl)
    setups = [(setup_s, ref_s)]
    if trace:
        ops, metrics, checks, prints = per_layer(wl, su, seed)
    else:
        ops = run_untraced(wl, su, seed, seconds, setups)
        metrics, checks = end_to_end(wl, su, ops, setups)
        prints = {"untraced": fingerprint(ops)}
    result = {
        "correct": all(checks.values()),
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": wl.name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "operations": len(ops), "blocks": sum(op.blocks for op in ops),
              "setup_seconds": [t for t, _ in setups],
              "setup_reference_seconds": [r for _, r in setups],
              "operation_seconds": [op.seconds for op in ops],
              "operation_reference_seconds": [op.ref_s for op in ops],
              "operation_blocks": [op.blocks for op in ops],
              "operation_thresholds": [op.threshold for op in ops],
              "fingerprints": prints, "checks": checks, **result}
    with open(OUT / f"{wl.name}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    env = record["environment"]
    print(f"# {wl.name} seed={seed} trace={trace} operations={len(ops)} "
          f"blocks={record['blocks']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit}")
    if not trace:
        raw_setup = statistics.median(t for t, _ in setups)
        print(f"unscaled: setup_s {raw_setup:.6g} s, blocks_per_s "
              f"{statistics.median(op.blocks / op.seconds for op in ops):.6g}"
              f" 1/s, reference "
              f"{statistics.median(op.ref_s for op in ops):.6g} s "
              f"(nominal {REF_NOMINAL_S} s)")
    for name, ok in checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    for name, digest in prints.items():
        print(f"fingerprint {name}: sha256 {digest}")
    print(json.dumps(result))
    return 0


def run_all(seed, seconds):
    """Every workload untraced, then each traced, one process per run."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                status = proc.returncode
                merged["correct"] = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, body in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(merged))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="rwz benchmark; perfbench/README.md documents it")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; confirm "
                        f"a claim on the held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="untraced run length on the defining host; "
                        "fixes the operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        args.trace)


if __name__ == "__main__":
    sys.exit(main())
