"""Document layout extraction from dense prediction channels.

The package converts per-pixel detection channels (baseline, baseline
endpoint, ascender height, descender height, block boundary) into
structured page layouts, and provides the inverse rendering plus loss and
evaluation kernels needed to verify the whole pipeline by round-trip.
"""

from .baselines import ExtractParams, detect_baselines, smooth, vertical_nms
from .blocks import (
    BlockParams,
    adjacency_penalty,
    cluster_blocks,
    extract_page,
    line_polygon,
    merge_block_lines,
    nearest_rank_percentile,
)
from .channels import (
    ChannelMaps,
    MapFormatError,
    OrientationMaps,
    read_maps,
    rotate_maps,
    write_maps,
)
from .geometry import Polygon, Polyline, alpha_shape, polygon_iou
from .layout import (
    LayoutError,
    PageLayout,
    TextBlock,
    TextLine,
    load_layout,
    save_layout,
)
from .losses import LossBreakdown, dice_loss, masked_mse, total_loss
from .metrics import EvalReport, PageScores, build_report, evaluate, match_baselines, match_polygons
from .orient import (
    OrientationEstimate,
    angular_distance,
    detect_multi_orientation,
    estimate_line_angle,
    rotate_layout,
)
from .render import RenderParams, render_gt, render_orientation_gt
from .scale import ScaleEstimate, estimate_scale, sample_scale_augmentation
from .synth import SynthConfig, corrupt, generate

__version__ = "0.1.0"

__all__ = [
    "BlockParams",
    "ChannelMaps",
    "EvalReport",
    "ExtractParams",
    "LayoutError",
    "LossBreakdown",
    "MapFormatError",
    "OrientationEstimate",
    "OrientationMaps",
    "PageLayout",
    "PageScores",
    "Polygon",
    "Polyline",
    "RenderParams",
    "ScaleEstimate",
    "SynthConfig",
    "TextBlock",
    "TextLine",
    "adjacency_penalty",
    "alpha_shape",
    "angular_distance",
    "build_report",
    "cluster_blocks",
    "corrupt",
    "detect_baselines",
    "detect_multi_orientation",
    "dice_loss",
    "estimate_line_angle",
    "estimate_scale",
    "evaluate",
    "extract_page",
    "generate",
    "line_polygon",
    "load_layout",
    "masked_mse",
    "match_baselines",
    "match_polygons",
    "merge_block_lines",
    "nearest_rank_percentile",
    "polygon_iou",
    "read_maps",
    "render_gt",
    "render_orientation_gt",
    "rotate_layout",
    "rotate_maps",
    "sample_scale_augmentation",
    "save_layout",
    "smooth",
    "total_loss",
    "vertical_nms",
    "write_maps",
]
