"""DOT and SVG renderings of vector graphs.

Exact layout uses the first two lattice coordinates; systems with k > 2
are projected onto them (callers should warn).  Output bytes are a pure
function of the graph, so identical inputs render identically.
"""

from __future__ import annotations

from kirchgraph.vgraph import VectorGraph

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def vector_color(idx: int) -> str:
    return PALETTE[idx % len(PALETTE)]


# Pixels per lattice step and around the drawing.  Both are even, so every
# vertex sits on an even pixel and every edge midpoint on a whole one.
SCALE = 48
MARGIN = 40


def render_dot(graph: VectorGraph, name: str = "G") -> str:
    """Graphviz digraph with pinned lattice positions and one edge
    statement per distinct edge, carrying its count when above 1."""
    verts = list(graph.vertices)
    vid = {v: i for i, v in enumerate(verts)}
    lines = [f'digraph "{name}" {{', "  node [shape=point, width=0.08];"]
    for v in verts:
        lines.append(f'  v{vid[v]} [pos="{v[0]},{v[1]}!", xlabel="{",".join(map(str, v))}"];')
    heads = graph._heads
    for (tail, idx), count in graph.edge_items():
        label = f"s{idx + 1}" + (f" x{count}" if count > 1 else "")
        lines.append(
            f'  v{vid[tail]} -> v{vid[heads[tail, idx]]} '
            f'[label="{label}", color="{vector_color(idx)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# the arrowhead markers, one per palette color
_DEFS = "".join(
    f'<marker id="arrow{ci}" viewBox="0 0 10 10" refX="9" refY="5" '
    f'markerWidth="7" markerHeight="7" orient="auto-start-reverse">'
    f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{color}"/></marker>'
    for ci, color in enumerate(PALETTE)
)


def render_svg(graph: VectorGraph, name: str = "G") -> str:
    """Standalone SVG: lattice-positioned vertices, colored arrows per
    edge vector, a count annotation on coincident parallel copies, and a
    legend naming s1..sn."""
    system = graph.system
    n = system.n
    if graph.is_empty:
        body = ['<text x="10" y="20" font-size="14">empty graph</text>']
        width, height = 160, 40
    else:
        xs = [v[0] for v in graph.vertices]
        ys = [v[1] for v in graph.vertices]
        x_lo, y_hi = min(xs), max(ys)
        legend_h = 18 * n + 10
        px = {
            v: (MARGIN + SCALE * (x - x_lo), MARGIN + SCALE * (y_hi - y))
            for v, x, y in zip(graph.vertices, xs, ys)
        }
        width = 2 * MARGIN + SCALE * (max(xs) - x_lo) + 140
        height = 2 * MARGIN + SCALE * (y_hi - min(ys)) + legend_h
        heads = graph._heads
        body = []
        for (tail, idx), count in graph.edge_items():
            x1, y1 = px[tail]
            x2, y2 = px[heads[tail, idx]]
            color = vector_color(idx)
            body.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="{color}" stroke-width="2" '
                f'marker-end="url(#arrow{idx % len(PALETTE)})"/>'
            )
            if count > 1:
                mx, my = (x1 + x2) // 2, (y1 + y2) // 2
                body.append(
                    f'<text x="{mx + 5}" y="{my - 5}" font-size="12" '
                    f'fill="{color}">{count}</text>'
                )
        for x, y in px.values():
            body.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#000"/>')
        for i in range(n):
            ly = height - legend_h + 18 * i + 12
            body.append(
                f'<line x1="10" y1="{ly}" x2="34" y2="{ly}" stroke="{vector_color(i)}" '
                f'stroke-width="2" marker-end="url(#arrow{i % len(PALETTE)})"/>'
            )
            col = ",".join(str(x) for x in system.columns[i])
            body.append(f'<text x="40" y="{ly + 4}" font-size="12">s{i + 1} = ({col})</text>')

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    title = f'<title>{name}</title>'
    return head + title + f"<defs>{_DEFS}</defs>" + "".join(body) + "</svg>\n"
