"""polyform: raster/vector toolkit for polygonal building footprints.

Encodes polygon sets into hierarchical supervision rasters (segmentation
mask, attraction field, vertex heatmap and offsets), reconstructs
simplified polygons from such rasters by snapping traced mask boundaries
onto detected vertices, and evaluates polygon and mask quality (COCO AP/AR,
Boundary IoU, PoLiS, C-IoU, vertex F1).
"""
from .geometry import (
    InstanceSet,
    Point2,
    Polygon,
    Ring,
    ScoredPolygon,
    merge_collinear_edges,
    point_in_polygon,
    signed_area,
)
from .io import SvgStyle, TileRecord, read_coco_annotations, read_geojson, read_rgf, render_svg, write_coco_annotations, write_geojson, write_rgf
from .metrics import EvalConfig, EvalReport, MatchResult, boundary_iou, ciou, coco_ap_ar, evaluate_corpus, iou_mask, match_instances, polis, vertex_f1
from .polygonize import (
    BoundaryChain,
    PolygonizeConfig,
    VertexSet,
    connected_components,
    douglas_peucker,
    extract_vertices,
    mav_attract_simplify,
    polygonize_pipeline,
    rescale_polygons,
    threshold_mask,
    trace_boundary,
)
from .raster import (
    DegradeSpec,
    RasterGrid,
    VertexGrids,
    degrade,
    downscale_targets,
    encode_afm,
    encode_vertices,
    polygon_mask,
    rasterize_mask,
)

__version__ = "0.1.0"
