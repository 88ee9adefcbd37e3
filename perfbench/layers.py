"""The call sites the traced run wraps, the counts taken there, and the
per-layer metrics and per-stage table computed from the spans.

Layers are the modules of ``src/pagelayout``.  A site is named after the
module that calls the function (``orient.polygon_iou`` is the dedup call,
``metrics.polygon_iou`` the matching one); its layer is the module that
defines the function.  Per-layer ``*_ms`` values are self times and all
values are per timed operation (one page).
"""

from __future__ import annotations

import numpy as np

from spans import Site, self_times

PKG = "pagelayout."


def _count_components(rec, a, result, raised):
    fg = np.asarray(a["fg"], dtype=bool)
    pixels = int(fg.sum())
    rec.add("fg_pixels", pixels)
    if (a["cc_width"] - 1) // 2 >= 1:  # consecutive pixels share a run
        rec.add("runs", int(fg[:, :1].sum() + (fg[:, 1:] & ~fg[:, :-1]).sum()))
    else:
        rec.add("runs", pixels)
    if not raised:
        rec.add("components", len(result))


def _count_cluster(rec, a, result, raised):
    n = len(a["lines"])
    rec.add("cluster_lines", n)
    rec.add("pair_tests", n * (n - 1) // 2)


def _count_orient_cluster(rec, a, result, raised):
    _count_cluster(rec, a, result, raised)
    rec.add("orient_kept", len(a["lines"]))


def _count_penalty(rec, a, result, raised):
    if raised:
        return
    from pagelayout.blocks import BlockParams

    threshold = (a["params"] or BlockParams()).penalty_threshold
    if max(result) < threshold:
        rec.add("penalty_passes")


def _count_merge(rec, a, result, raised):
    if not raised:
        rec.add("merges", len(a["block"].lines) - len(result.lines))


def _n_samples(points) -> int:
    """Sample count of ``_raster.sample_polyline(points, 1.0)``, without sampling."""
    from pagelayout._raster import cumulative_lengths

    total = float(cumulative_lengths(np.asarray(points, dtype=np.float64))[-1])
    n = len(np.arange(0.0, total, 1.0))
    return n + (1 if total - (n - 1 if n else 0.0) > 1e-9 else 0)


def _count_coverage(rec, a, result, raised):
    if not a["targets"]:
        return
    samples = sum(_n_samples(line.points) for line in a["sources"])
    segments = sum(len(line.points) - 1 for line in a["targets"])
    rec.add("coverage_pairs", samples * segments)


def _site(module, attr, layer, cls=None, counter=None):
    return Site(PKG + module, attr, cls, counter), layer


# (site, layer that defines the function)
SITES = [
    # called by the benchmark itself
    _site("synth", "generate", "synth"),
    _site("synth", "corrupt", "synth"),
    _site("render", "render_gt", "render"),
    _site("channels", "read_maps", "channels"),
    _site("blocks", "extract_page", "blocks"),
    _site("orient", "detect_multi_orientation", "orient"),
    _site("layout", "save_layout", "layout"),
    _site("metrics", "evaluate", "metrics"),
    # inside the engine
    _site("synth", "block_polygon", "blocks"),
    _site("synth", "polygon_from_baseline", "blocks"),
    _site("baselines", "smooth", "baselines"),
    _site("baselines", "vertical_nms", "baselines"),
    _site("baselines", "connected_components", "baselines", counter=_count_components),
    _site("baselines", "_fit_spline", "baselines"),
    _site("blocks", "detect_baselines", "baselines"),
    _site("blocks", "line_polygon", "blocks"),
    _site("blocks", "cluster_blocks", "blocks", counter=_count_cluster),
    _site("blocks", "adjacency_penalty", "blocks", counter=_count_penalty),
    _site("blocks", "block_polygon", "blocks"),
    _site("blocks", "merge_block_lines", "blocks", counter=_count_merge),
    _site("blocks", "alpha_shape", "geometry"),
    _site("blocks", "convex_hull", "geometry"),
    _site("blocks", "intersection_area", "geometry"),
    _site("geometry", "convex_hull", "geometry"),  # alpha-shape fallback
    _site("geometry", "intersection_area", "geometry"),  # inside polygon_iou
    _site("layout", "intersection_area", "geometry"),  # block containment checks
    _site("layout", "__post_init__", "layout", cls="TextLine"),
    _site("layout", "__post_init__", "layout", cls="TextBlock"),
    _site("layout", "__post_init__", "layout", cls="PageLayout"),
    _site("orient", "detect_baselines", "baselines"),
    _site("orient", "line_polygon", "blocks"),
    _site("orient", "estimate_line_angle", "orient"),
    _site("orient", "rotate_line", "orient"),
    _site("orient", "rotate_block", "orient"),
    _site("orient", "polygon_iou", "geometry"),
    _site("orient", "cluster_blocks", "blocks", counter=_count_orient_cluster),
    _site("orient", "merge_block_lines", "blocks", counter=_count_merge),
    _site("metrics", "_coverage", "metrics", counter=_count_coverage),
    _site("metrics", "match_polygons", "metrics"),
    _site("metrics", "polygon_iou", "geometry"),
]

LAYER_OF = {site.name: layer for site, layer in SITES}
LAYERS = ("channels", "baselines", "blocks", "geometry", "layout", "orient", "metrics", "synth", "render")

# Per-stage rows: the ROADMAP table's rows first, then the stages only the
# multi-orientation path has.  Values are inclusive ms/page.
STAGES = [
    ("generate", ("synth.generate",)),
    ("render_gt", ("render.render_gt",)),
    ("corrupt", ("synth.corrupt",)),
    ("detect_baselines", ("blocks.detect_baselines", "orient.detect_baselines")),
    ("line polygons", ("blocks.line_polygon", "orient.line_polygon")),
    ("cluster_blocks", ("blocks.cluster_blocks", "orient.cluster_blocks")),
    ("merge_block_lines", ("blocks.merge_block_lines", "orient.merge_block_lines")),
    ("evaluate", ("metrics.evaluate",)),
    ("read_maps", ("channels.read_maps",)),
    ("angle filter", ("orient.estimate_line_angle",)),
    ("dedup polygon_iou", ("orient.polygon_iou",)),
    ("rotate lines/blocks", ("orient.rotate_line", "orient.rotate_block")),
    ("save_layout", ("layout.save_layout",)),
]

ROOT_SPAN = "bench.op"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Summary:
    """Per-site calls and self time, and counts, over the spans of ``pages``."""

    def __init__(self, spans, counts, pages):
        pages = set(pages)
        self.n = max(1, len(pages))
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.inclusive_ns: dict[str, int] = {}
        self.root_ns = 0
        self.root_self_ns = 0
        stage_of = {name: stage for stage, names in STAGES for name in names}
        selfs = self_times(spans)
        for i, s in enumerate(spans):
            if s.page not in pages:
                continue
            if s.name == ROOT_SPAN:
                self.root_ns += s.end - s.start
                self.root_self_ns += selfs[i]
                continue
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.self_ns[s.name] = self.self_ns.get(s.name, 0) + selfs[i]
            stage = stage_of.get(s.name)
            if stage is not None and not self._inside_stage(spans, s, stage, stage_of):
                self.inclusive_ns[stage] = self.inclusive_ns.get(stage, 0) + s.end - s.start
        self.counts: dict[str, float] = {}
        for (page, name), value in counts.items():
            if page in pages:
                self.counts[name] = self.counts.get(name, 0.0) + value

    @staticmethod
    def _inside_stage(spans, span, stage, stage_of) -> bool:
        p = span.parent
        while p >= 0:
            if stage_of.get(spans[p].name) == stage:
                return True
            p = spans[p].parent
        return False

    def ms(self, *names) -> float:
        return sum(self.self_ns.get(n, 0) for n in names) / 1e6 / self.n

    def per_page_calls(self, *names) -> float:
        return sum(self.calls.get(n, 0) for n in names) / self.n

    def count(self, name) -> float:
        return self.counts.get(name, 0.0) / self.n

    def layer_ms(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[LAYER_OF[name]] += ns / 1e6 / self.n
        return out

    def stage_ms(self) -> dict[str, float]:
        return {stage: self.inclusive_ns.get(stage, 0) / 1e6 / self.n for stage, _ in STAGES}

    def unattributed_pct(self) -> float:
        return 100.0 * _ratio(self.root_self_ns, self.root_ns)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        ia = ("blocks.intersection_area", "geometry.intersection_area", "layout.intersection_area")
        iou = ("orient.polygon_iou", "metrics.polygon_iou")
        penalty_calls = self.per_page_calls("blocks.adjacency_penalty")
        candidates = self.per_page_calls("orient.estimate_line_angle")
        components = self.count("components")
        return {
            "baselines.components_ms": (self.ms("baselines.connected_components"), "ms"),
            "baselines.fg_pixels": (self.count("fg_pixels"), "count"),
            "baselines.runs": (self.count("runs"), "count"),
            "baselines.components": (components, "count"),
            "baselines.smooth_nms_ms": (self.ms("baselines.smooth", "baselines.vertical_nms"), "ms"),
            "baselines.spline_ms": (self.ms("baselines._fit_spline"), "ms"),
            "baselines.keep_ratio": (_ratio(self.per_page_calls("baselines._fit_spline"), components), "ratio"),
            "blocks.line_polygon_ms": (self.ms("blocks.line_polygon", "orient.line_polygon"), "ms"),
            "blocks.lines": (self.count("cluster_lines"), "count"),
            "blocks.cluster_ms": (
                self.ms("blocks.cluster_blocks", "orient.cluster_blocks", "blocks.adjacency_penalty"),
                "ms",
            ),
            "blocks.pair_tests": (self.count("pair_tests"), "count"),
            "blocks.penalty_calls": (penalty_calls, "count"),
            "blocks.penalty_pass_ratio": (_ratio(self.count("penalty_passes"), penalty_calls), "ratio"),
            "blocks.merge_ms": (self.ms("blocks.merge_block_lines", "orient.merge_block_lines"), "ms"),
            "blocks.merges": (self.count("merges"), "count"),
            "blocks.block_polygon_ms": (self.ms("blocks.block_polygon"), "ms"),
            "geometry.intersection_area_calls": (self.per_page_calls(*ia), "count"),
            "geometry.intersection_area_ms": (self.ms(*ia), "ms"),
            "geometry.alpha_shape_calls": (self.per_page_calls("blocks.alpha_shape"), "count"),
            "geometry.alpha_shape_ms": (self.ms("blocks.alpha_shape"), "ms"),
            "geometry.convex_hull_calls": (self.per_page_calls("blocks.convex_hull", "geometry.convex_hull"), "count"),
            "geometry.polygon_iou_calls": (self.per_page_calls(*iou), "count"),
            "geometry.polygon_iou_ms": (self.ms(*iou), "ms"),
            "layout.contain_checks": (self.per_page_calls("layout.intersection_area"), "count"),
            "layout.validate_ms": (
                self.ms("layout.TextLine.__post_init__", "layout.TextBlock.__post_init__", "layout.PageLayout.__post_init__"),
                "ms",
            ),
            "layout.save_ms": (self.ms("layout.save_layout"), "ms"),
            "orient.angle_ms": (self.ms("orient.estimate_line_angle"), "ms"),
            "orient.candidates": (candidates, "count"),
            "orient.kept_ratio": (_ratio(self.count("orient_kept"), candidates), "ratio"),
            "orient.rotate_ms": (self.ms("orient.rotate_line", "orient.rotate_block"), "ms"),
            "channels.read_ms": (self.ms("channels.read_maps"), "ms"),
            "metrics.coverage_ms": (self.ms("metrics._coverage"), "ms"),
            "metrics.coverage_pairs": (self.count("coverage_pairs"), "count"),
            "metrics.match_polygons_ms": (self.ms("metrics.match_polygons"), "ms"),
            "synth.generate_ms": (self.ms("synth.generate"), "ms"),
            "synth.corrupt_ms": (self.ms("synth.corrupt"), "ms"),
            "render.render_gt_ms": (self.ms("render.render_gt"), "ms"),
            "trace.unattributed_pct": (self.unattributed_pct(), "%"),
        }
