"""In-memory span recorder for the traced benchmark run.

The tracer replaces a layer's public function at the place its caller looks
it up (``rwz.codec.quantize_ldpc_stage`` rather than the definition in
``rwz.rbp``, because codec imports the name), records one span per call
and restores every original when its ``with`` block ends.  Nothing under
``src/`` changes.

A span is (id, name, start, end, parent, block, thread, info).  ``parent``
is the innermost open span of the same thread, or the open top-level
operation for spans on evaluate's worker threads.  ``block`` is shared by
every span of one codec block (encode through decode) or one channel probe
block (likelihoods through decode).  ``info`` holds the counts a call
returns: iterations, restarts, convergence and distortion, or the number of
edges a check-node update touched.
"""

from __future__ import annotations

import gzip
import itertools
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Site:
    module: object
    attr: str
    name: str
    observe: object = None  # (args, result) -> info tuple
    opens: str = ""         # name of the block a call opens, if any
    closes: bool = False    # a call closes the thread's open block
    root: bool = False      # a top-level operation called by the benchmark


def _quantize_info(args, res):
    return (res.iterations, res.restarts, bool(res.converged), res.distortion)


def _decode_info(args, res):
    return (res.iterations, bool(res.converged))


def _edges_info(args, res):
    return (int(args[0].size),)


def sites():
    """Every layer boundary the benchmark times, keyed by caller lookup."""
    from rwz import bp, codec, config, graphs, rbp
    return [
        Site(config, "parse_config", "config.parse_config"),
        Site(codec, "build_graph", "graphs.build_graph"),
        Site(graphs.TannerGraph, "check_parities", "graphs.check_parities"),
        Site(codec, "evaluate", "codec.evaluate", root=True),
        Site(codec, "encode", "codec.encode", opens="codec.block"),
        Site(codec, "decode", "codec.decode", closes=True),
        Site(codec, "quantize_ldpc_stage", "rbp.quantize_ldpc_stage",
             _quantize_info),
        Site(codec, "quantize_ldgm_stage", "rbp.quantize_ldgm_stage",
             _quantize_info),
        Site(rbp, "apriori_llr", "rbp.apriori_llr"),
        Site(rbp, "check_node_update", "bp.check_node_update", _edges_info),
        Site(bp, "check_node_update", "bp.check_node_update", _edges_info),
        Site(codec, "wrapped_gaussian_llr", "bp.wrapped_gaussian_llr"),
        Site(codec, "bp_decode", "bp.bp_decode", _decode_info),
        Site(bp, "find_noise_threshold", "bp.find_noise_threshold", root=True),
        Site(bp, "wrapped_gaussian_llr", "bp.wrapped_gaussian_llr",
             opens="bp.probe_block"),
        Site(bp, "bp_decode", "bp.bp_decode", _decode_info, closes=True),
    ]


class Tracer:
    def __init__(self, site_list):
        self._sites = site_list
        self._saved = []
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._block_ids = itertools.count(1)
        self._root = 0
        self.t0 = perf_counter()
        self.spans = []
        self.blocks = []  # (name, block, start, end, thread)

    def __enter__(self):
        """Wrap every site; leaving the block restores the originals."""
        for site in self._sites:
            original = getattr(site.module, site.attr)
            self._saved.append((site.module, site.attr, original))
            setattr(site.module, site.attr, self._wrap(original, site))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.block = 0
            local.block_name = ""
            local.block_start = 0.0
        return local

    def _wrap(self, fn, site):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            parent = stack[-1] if stack else tracer._root
            sid = next(tracer._span_ids)
            stack.append(sid)
            start = perf_counter()
            if site.root:
                tracer._root = sid
            if site.opens and not local.block:
                local.block = next(tracer._block_ids)
                local.block_name = site.opens
                local.block_start = start
            block = local.block
            info = None
            try:
                result = fn(*args, **kwargs)
                if site.observe:
                    info = site.observe(args, result)
                return result
            except Exception as exc:
                # a diverged quantizer still carries its best effort
                if site.observe and hasattr(exc, "result"):
                    info = site.observe(args, exc.result)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if site.root:
                    tracer._root = 0
                thread = threading.get_ident()
                tracer.spans.append((sid, site.name, start, end, parent,
                                     block, thread, info))
                if site.closes and local.block:
                    tracer.blocks.append((local.block_name, local.block,
                                          local.block_start, end, thread))
                    local.block = 0

        return traced

    def write(self, path):
        """Spans as gzipped CSV, times in seconds from tracer creation."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,block,thread,info\n")
            for sid, name, start, end, parent, block, thread, info \
                    in self.spans:
                detail = "" if info is None else ";".join(map(str, info))
                fh.write(f"{sid},{name},{start - self.t0:.9f},"
                         f"{end - self.t0:.9f},{parent},{block},{thread},"
                         f"{detail}\n")
            for name, block, start, end, thread in self.blocks:
                fh.write(f"0,{name},{start - self.t0:.9f},{end - self.t0:.9f},"
                         f"0,{block},{thread},\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, codes):
    """Per-layer figures from the recorded spans; a layer the workload never
    reaches reads 0."""
    by_name = {}
    child_s = {}
    for sid, name, start, end, parent, block, thread, info in tracer.spans:
        by_name.setdefault(name, []).append((sid, end - start, info))
        child_s[parent] = child_s.get(parent, 0.0) + (end - start)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        return sum(d for _, d, _ in by_name.get(name, ()))

    def self_s(name):
        return sum(d - child_s.get(sid, 0.0)
                   for sid, d, _ in by_name.get(name, ()))

    def info_sum(name, i):
        return sum(info[i] for _, _, info in by_name.get(name, ()))

    m = {
        "config.parse_config.s": (total_s("config.parse_config"), "s"),
        "graphs.build_graph.calls": (calls("graphs.build_graph"), "count"),
        "graphs.build_graph.s": (total_s("graphs.build_graph"), "s"),
        "graphs.edges.ldpc": (codes.ldpc_graph.n_edges, "count"),
        "graphs.edges.ldgm": (codes.ldgm_graph.n_edges, "count"),
        "graphs.check_parities.calls": (calls("graphs.check_parities"),
                                        "count"),
        "graphs.check_parities.s": (total_s("graphs.check_parities"), "s"),
        "rbp.apriori_llr.calls": (calls("rbp.apriori_llr"), "count"),
        "rbp.apriori_llr.s": (total_s("rbp.apriori_llr"), "s"),
    }
    for stage in ("rbp.quantize_ldpc_stage", "rbp.quantize_ldgm_stage"):
        n, s, iters = calls(stage), total_s(stage), info_sum(stage, 0)
        m.update({
            f"{stage}.calls": (n, "count"),
            f"{stage}.s": (s, "s"),
            f"{stage}.iters": (iters, "count"),
            f"{stage}.restarts": (info_sum(stage, 1), "count"),
            f"{stage}.s_per_iter": (_ratio(s, iters), "s"),
            f"{stage}.converged_frac": (_ratio(info_sum(stage, 2), n),
                                        "ratio"),
            f"{stage}.distortion": (_ratio(info_sum(stage, 3), n), "mse"),
        })
    cnu = "bp.check_node_update"
    n, s = calls(cnu), total_s(cnu)
    m.update({
        f"{cnu}.calls": (n, "count"),
        f"{cnu}.s": (s, "s"),
        f"{cnu}.s_per_call": (_ratio(s, n), "s"),
        f"{cnu}.edge_updates_per_s": (_ratio(info_sum(cnu, 0), s), "1/s"),
    })
    dec = "bp.bp_decode"
    n, s, iters = calls(dec), total_s(dec), info_sum(dec, 0)
    m.update({
        f"{dec}.calls": (n, "count"),
        f"{dec}.s": (s, "s"),
        f"{dec}.iters": (iters, "count"),
        f"{dec}.s_per_iter": (_ratio(s, iters), "s"),
        f"{dec}.converged_frac": (_ratio(info_sum(dec, 1), n), "ratio"),
        "bp.wrapped_gaussian_llr.calls": (calls("bp.wrapped_gaussian_llr"),
                                          "count"),
        "bp.wrapped_gaussian_llr.s": (total_s("bp.wrapped_gaussian_llr"), "s"),
        "bp.find_noise_threshold.calls": (calls("bp.find_noise_threshold"),
                                          "count"),
        "bp.find_noise_threshold.s": (total_s("bp.find_noise_threshold"), "s"),
        "codec.encode.s": (self_s("codec.encode"), "s"),
        "codec.decode.s": (self_s("codec.decode"), "s"),
    })
    block_s = [end - start for name, _, start, end, _ in tracer.blocks
               if name == "codec.block"]
    p50 = statistics.median(block_s) if block_s else 0.0
    p90 = statistics.quantiles(block_s, n=10, method="inclusive")[8] \
        if len(block_s) > 1 else p50
    m["codec.block.s_p50"] = (p50, "s")
    m["codec.block.s_p90"] = (p90, "s")
    return m
