"""Per-layer metrics from the spans of one traced pass (see traced.py).

A span's self time is its duration minus the time its direct child spans
cover; a layer's self time is the sum over the spans of its module.  The
metric -> layer -> workload map is in NOTES.md.
"""

from __future__ import annotations

from collections import Counter, defaultdict

LAYERS = ("urng", "transforms", "fp_pipeline", "stats", "sampleio", "qkdmod", "cli")
FORMATS = ("bin", "csv", "json")


def per_layer(spans, startup_s, overhead_ratio):
    """{name: (value, unit)} for every per-layer metric."""
    busy, own, layer_own = defaultdict(float), defaultdict(float), defaultdict(float)
    calls, sums = Counter(), defaultdict(float)
    children = [0.0] * len(spans)
    for _name, parent, start, end, _counts in spans:
        if parent is not None:
            children[parent] += end - start
    for (name, _parent, start, end, counts), inner in zip(spans, children):
        busy[name] += end - start
        own[name] += end - start - inner
        layer_own[name.split(".")[0]] += end - start - inner
        calls[name] += 1
        for key, value in (counts or {}).items():
            sums[f"{name}.{key}"] += value

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "urng.words.count": (sums["urng.words.count"], "count"),
        "urng.words.busy_s": (busy["urng.words"], "s"),
        "urng.words.per_s": (ratio(sums["urng.words.count"], busy["urng.words"]), "1/s"),
        "urng.uniforms.self_s": (own["urng.uniforms"], "s"),
        "urng.new_lfsr.calls": (calls["urng.new_lfsr"], "count"),
        "urng.new_lfsr.busy_s": (busy["urng.new_lfsr"], "s"),
        "urng.derive_seeds.busy_s": (busy["urng.derive_seeds"], "s"),
        "transforms.stream.self_s": (own["transforms.stream"], "s"),
        "transforms.uniforms_per_sample": (ratio(sums["transforms.stream.uniforms"],
                                                 sums["transforms.stream.samples"]), "ratio"),
        "transforms.polar.accept_ratio": (ratio(sums["transforms.stream.accepted"],
                                                sums["transforms.stream.proposed"]), "ratio"),
        "transforms.polar.pairs_proposed": (sums["transforms.stream.proposed"], "count"),
        "fp_pipeline.pipeline_stream.self_s": (own["fp_pipeline.pipeline_stream"], "s"),
        "fp_pipeline.core_invocations": (sums["fp_pipeline.pipeline_stream.cores"], "count"),
        "fp_pipeline.run_graph.calls": (calls["fp_pipeline.run_graph"], "count"),
        "fp_pipeline.run_graph.busy_s": (busy["fp_pipeline.run_graph"], "s"),
        "fp_pipeline.trace.records": (sums["fp_pipeline.run_graph.records"], "count"),
        "stats.chi2.busy_s": (busy["stats.chi2"], "s"),
        "stats.ad.busy_s": (busy["stats.ad"], "s"),
        "stats.ks.busy_s": (busy["stats.ks"], "s"),
        "stats.hist.busy_s": (busy["stats.hist"], "s"),
        "stats.samples_judged": (sums["stats.run_suite.samples"]
                                 + sums["stats.hist.samples"], "count"),
        "sampleio.bytes_written": (sum(sums[f"sampleio.write.{f}.bytes"] for f in FORMATS), "B"),
        "sampleio.bytes_read": (sum(sums[f"sampleio.read.{f}.bytes"] for f in FORMATS), "B"),
        "qkdmod.quadrature_stream.busy_s": (busy["qkdmod.quadrature_stream"], "s"),
        "qkdmod.format.busy_s": (busy["qkdmod.format"], "s"),
        "cli.startup_s": (startup_s, "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    for op in ("write", "read"):
        for fmt in FORMATS:
            m[f"sampleio.{op}.{fmt}.busy_s"] = (busy[f"sampleio.{op}.{fmt}"], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_own[layer], "s")
    return m

