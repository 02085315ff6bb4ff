"""Arc-diagram rendering for (open) Skolem sequences.

A sequence is drawn as vertices on a baseline with one arc per value: a
closed value k becomes a semicircle spanning its two positions, an open
value *k becomes a short outward stub at its position (the arc's other end
does not exist yet).  ASCII output is one row per arc with span markers;
SVG output is deterministic byte-for-byte for a fixed input and format
version.
"""

from __future__ import annotations

from .core import OpenState, SkolemSequence, state_from_sequence

SVG_FORMAT_VERSION = 1

_SPACING = 30  # px between adjacent vertices; even, so semicircle radii stay integral
_MARGIN = 24
_STUB = 12  # open-arc stub radius, px


def _arcs(state: OpenState) -> list[tuple[int, int | None, int]]:
    """(position, partner or None, value) per arc, by opening position.
    Positions 0-based; None marks an open arc."""
    first: dict[int, int] = {}
    out: list[tuple[int, int | None, int]] = []
    for i, e in enumerate(state.entries):
        if e.is_open:
            out.append((i, None, e.value))
        elif e.value in first:
            out.append((first.pop(e.value), i, e.value))
        else:
            first[e.value] = i
    out.sort()
    return out


def render_ascii(state: OpenState) -> str:
    """One row per arc: '[' at the opening vertex, ']' at the closing one,
    '-' across the span; open arcs run '~' off the right edge.  The first
    row shows the entries themselves."""
    n = state.order
    if n == 0:
        return "(empty)\n"
    tokens = [str(e) for e in state.entries]
    w = max(len(t) for t in tokens)
    step = w + 1
    width = n * step - 1
    col = lambda i: i * step
    lines = [" ".join(t.ljust(w) for t in tokens).rstrip()]
    for i, j, value in _arcs(state):
        row = [" "] * width
        row[col(i)] = "["
        if j is None:
            for x in range(col(i) + 1, width):
                row[x] = "~"
            label = f"*{value}"
        else:
            for x in range(col(i) + 1, col(j)):
                row[x] = "-"
            row[col(j)] = "]"
            label = str(value)
        lines.append("".join(row).rstrip().ljust(width) + "  " + label)
    return "\n".join(lines) + "\n"


def render_svg(state: OpenState) -> str:
    """SVG 1.1 document: closed arcs as semicircles above the baseline,
    open arcs as quarter-circle stubs, value labels at each apex."""
    n = max(state.order, 1)
    max_r = max(
        [(j - i) * _SPACING // 2 for i, j, _ in _arcs(state) if j is not None] + [_STUB]
    )
    base_y = _MARGIN + max_r + 14
    width = 2 * _MARGIN + (n - 1) * _SPACING + _STUB
    height = base_y + 34
    x = lambda i: _MARGIN + i * _SPACING

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<!-- skolemgen arc-diagram format {SVG_FORMAT_VERSION} -->",
        f'<line x1="{x(0)}" y1="{base_y}" x2="{x(state.order - 1) if state.order else x(0)}" '
        f'y2="{base_y}" stroke="#bbbbbb" stroke-width="1"/>',
    ]
    for i, j, value in _arcs(state):
        if j is None:
            parts.append(
                f'<path d="M {x(i)} {base_y} A {_STUB} {_STUB} 0 0 1 '
                f'{x(i) + _STUB} {base_y - _STUB}" fill="none" '
                f'stroke="#cc3333" stroke-width="1.5" stroke-dasharray="4 2"/>'
            )
            parts.append(
                f'<text x="{x(i) + _STUB + 2}" y="{base_y - _STUB}" '
                f'font-size="11" fill="#cc3333">*{value}</text>'
            )
        else:
            r = (j - i) * _SPACING // 2
            parts.append(
                f'<path d="M {x(i)} {base_y} A {r} {r} 0 0 1 {x(j)} {base_y}" '
                f'fill="none" stroke="#333333" stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{x(i) + r}" y="{base_y - r - 4}" font-size="11" '
                f'fill="#333333" text-anchor="middle">{value}</text>'
            )
    for i, e in enumerate(state.entries):
        parts.append(f'<circle cx="{x(i)}" cy="{base_y}" r="3" fill="#333333"/>')
        parts.append(
            f'<text x="{x(i)}" y="{base_y + 18}" font-size="11" '
            f'text-anchor="middle">{e}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_arc_diagram(
    obj: OpenState | SkolemSequence | str, fmt: str = "ascii"
) -> str:
    """Render a Skolem or open Skolem sequence as an arc diagram.

    ``fmt`` is "ascii" or "svg".  Output is deterministic for a fixed input
    and format version.
    """
    state = obj if isinstance(obj, OpenState) else state_from_sequence(obj)
    if fmt == "ascii":
        return render_ascii(state)
    if fmt == "svg":
        return render_svg(state)
    raise ValueError(f"unknown format {fmt!r}")
