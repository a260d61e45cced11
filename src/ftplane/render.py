"""Static SVG figures: unit ball, terminals, solution region, cones."""

from __future__ import annotations

from .geometry import Vec2
from .norms import PolygonalNorm
from .solver import AngleShape, Cone, FTSolution


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _path(points: list[Vec2], close: bool) -> str:
    parts = [f"M {_fmt(points[0].x)} {_fmt(points[0].y)}"]
    parts += [f"L {_fmt(p.x)} {_fmt(p.y)}" for p in points[1:]]
    if close:
        parts.append("Z")
    return " ".join(parts)


def render_svg(norm: PolygonalNorm, points, solution: FTSolution,
               cones: tuple[Cone, ...] | list[Cone] = ()) -> str:
    """One norm path, one marker per terminal, one region path, one path per
    cone, on a 640-pixel square."""
    region = solution.region
    anchors: list[Vec2] = list(norm.vertices) + list(points) + list(region.vertices)
    min_x = min(p.x for p in anchors)
    max_x = max(p.x for p in anchors)
    min_y = min(p.y for p in anchors)
    max_y = max(p.y for p in anchors)
    span = max(max_x - min_x, max_y - min_y, 1e-6)
    pad = 0.1 * span
    min_x, max_x = min_x - pad, max_x + pad
    min_y, max_y = min_y - pad, max_y + pad
    width, height = max_x - min_x, max_y - min_y
    stroke = span / 200
    marker = span / 80
    ray_len = 1.5 * span

    body: list[str] = []
    body.append(
        f'<path class="norm" d="{_path(list(norm.vertices), True)}" '
        f'fill="none" stroke="#444" stroke-width="{_fmt(stroke)}"/>')
    for cone in cones:
        v = cone.vertex
        if isinstance(cone.shape, AngleShape):
            d1 = cone.shape.d1 * (ray_len / cone.shape.d1.norm())
            d2 = cone.shape.d2 * (ray_len / cone.shape.d2.norm())
            d = _path([v + d1, v, v + d2], False)
        else:
            d0 = cone.shape.direction
            d = _path([v, v + d0 * (ray_len / d0.norm())], False)
        body.append(
            f'<path class="cone" d="{d}" fill="none" stroke="#2a7" '
            f'stroke-width="{_fmt(stroke)}" stroke-dasharray="{_fmt(4 * stroke)}"/>')
    if region.kind == "point":
        p = region.vertices[0]
        body.append(
            f'<circle class="region" cx="{_fmt(p.x)}" cy="{_fmt(p.y)}" '
            f'r="{_fmt(marker)}" fill="#d33"/>')
    elif region.kind == "segment":
        body.append(
            f'<path class="region" d="{_path(list(region.vertices), False)}" '
            f'fill="none" stroke="#d33" stroke-width="{_fmt(2 * stroke)}"/>')
    elif region.kind == "polygon":
        body.append(
            f'<path class="region" d="{_path(list(region.vertices), True)}" '
            f'fill="#d33" fill-opacity="0.25" stroke="#d33" '
            f'stroke-width="{_fmt(stroke)}"/>')
    for q in points:
        body.append(
            f'<circle class="terminal" cx="{_fmt(q.x)}" cy="{_fmt(q.y)}" '
            f'r="{_fmt(marker)}" fill="#226"/>')

    inner = "\n    ".join(body)
    # Flip y so the figure reads in math orientation.
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
        f'height="640" viewBox="{_fmt(min_x)} {_fmt(-max_y)} '
        f'{_fmt(width)} {_fmt(height)}">\n'
        f'  <g transform="scale(1,-1)">\n    {inner}\n  </g>\n</svg>\n'
    )
