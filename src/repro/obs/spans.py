"""Hierarchical span profiling: run → slot-block → phase → kernel.

The :class:`SpanRecorder` is the instrumentation bundle's one timing
store.  It answers "how long does each pipeline phase take?" and
"where does a slot's time go *below* the phases?" — which kernel, on
which backend, under which phase — and renders the answer as a flame
graph.

Design constraints (the engine records spans inside its hot loop):

* **O(1) per span.**  Every distinct call path — ``run > slots >
  schedule > kernel:ema_dp[numba]`` — is interned once into an integer
  node id; recording a span is two ``perf_counter`` reads plus one
  add into plain-list ``count``/``total`` accumulators (lists, not
  numpy arrays: scalar ``lst[i] += x`` is an order of magnitude
  cheaper than a numpy scalar in-place add, and lists grow in place
  so adder closures bound before a growth stay valid).
* **Phases recorded directly.**  The engine and the gateway bind one
  :meth:`SpanRecorder.adder` per slot phase and feed it each slot's
  ``perf_counter`` delta.  Without a bundle the call sites cost a
  single ``is None`` test, and the kernel registry only wraps kernels
  while a recorder is *active*.  The perf-smoke CI gate bounds the
  recording overhead at 2% of a plain run.
* **Worker merge.**  :meth:`SpanRecorder.state` /
  :meth:`SpanRecorder.merge_state` ship span trees across process
  boundaries keyed by path (not by node id), so the run executor can
  fold pooled workers back in task order: the merged tree's paths and
  per-path counts are identical to a serial execution's (totals are
  wall clock — summed exactly, but wall clock itself is not
  reproducible between executions).

Exports: collapsed-stack text (``to_collapsed`` — one ``a;b;c 123``
line per path, self-time in integer microseconds, the format every
flame-graph tool ingests), speedscope JSON (``to_speedscope`` — open
at https://speedscope.app), and a self-contained inline-SVG flame
graph (:func:`flamegraph_svg`) embedded by ``repro-report``.
"""

from __future__ import annotations

import html as _html
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

from repro.analysis.tables import Table
from repro.errors import ConfigurationError

__all__ = [
    "SpanRecorder",
    "current_spans",
    "activate_spans",
    "flamegraph_svg",
]

#: Sentinel parent id of the tree root ("run" is its only child in
#: engine-produced trees, but recorders are generic).
ROOT = -1

#: The canonical prefix every engine slot phase lives under; the
#: gateway and the kernel registry intern their spans below it via
#: :meth:`SpanRecorder.slot_phase_id` without knowing the tree layout.
SLOT_PREFIX = ("run", "slots")


class SpanRecorder:
    """Accumulates a tree of named wall-clock spans.

    Parameters
    ----------
    capacity:
        Initial number of preallocated tree nodes (doubled on demand;
        an engine run produces a few dozen distinct paths).
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ConfigurationError("capacity must be positive")
        self._names: list[str] = []
        self._parents: list[int] = []
        #: (parent_id, name) -> node id — the intern table.
        self._children: dict[tuple[int, str], int] = {}
        self._counts: list[int] = [0] * capacity
        self._totals: list[float] = [0.0] * capacity
        #: Explicit span stack for the context-manager API.
        self._stack: list[tuple[int, float]] = []

    # -- tree construction ---------------------------------------------------

    def node(self, parent: int, name: str) -> int:
        """Intern (and return the id of) ``parent``'s child ``name``."""
        key = (parent, name)
        node_id = self._children.get(key)
        if node_id is None:
            if parent != ROOT and not 0 <= parent < len(self._names):
                raise ConfigurationError(f"unknown parent node {parent}")
            node_id = len(self._names)
            self._names.append(name)
            self._parents.append(parent)
            self._children[key] = node_id
            if node_id >= len(self._counts):
                # Extend in place so adders bound earlier stay live.
                grow = len(self._counts)
                self._counts.extend([0] * grow)
                self._totals.extend([0.0] * grow)
        return node_id

    def path_node(self, path: tuple[str, ...] | list[str]) -> int:
        """Intern a whole path from the root; returns the leaf id."""
        node_id = ROOT
        for name in path:
            node_id = self.node(node_id, name)
        return node_id

    def slot_phase_id(self, phase: str) -> int:
        """The node id of engine phase ``phase`` under ``run > slots``.

        The engine, the gateway, and the kernel registry all hang
        their spans off these canonical nodes, so independently
        instrumented layers land in one coherent tree.
        """
        return self.path_node(SLOT_PREFIX + (phase,))

    # -- recording -----------------------------------------------------------

    def add(self, node_id: int, duration_s: float) -> None:
        """Record one completed span of ``node_id`` (O(1))."""
        self._counts[node_id] += 1
        self._totals[node_id] += duration_s

    def adder(self, node_id: int):
        """A bound single-argument recorder for hot loops.

        ``rec = spans.adder(nid)`` then ``rec(dt)`` per measurement —
        the engine and the gateway bind one per slot phase.
        """
        counts, totals = self._counts, self._totals

        def _add(duration_s: float, _n=node_id, _c=counts, _t=totals) -> None:
            _c[_n] += 1
            _t[_n] += duration_s

        return _add

    @contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[int]:
        """Context-managed span; nests under the innermost open span.

        Intended for coarse scopes (a whole run, a calibration grid) —
        hot loops precompute node ids and call :meth:`add` directly.
        """
        parent_id = parent if parent is not None else (
            self._stack[-1][0] if self._stack else ROOT
        )
        node_id = self.node(parent_id, name)
        start = perf_counter()
        self._stack.append((node_id, start))
        try:
            yield node_id
        finally:
            self._stack.pop()
            self.add(node_id, perf_counter() - start)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._names)

    def paths(self) -> list[tuple[str, ...]]:
        """Every interned path, in creation order."""
        out: list[tuple[str, ...]] = []
        for node_id in range(len(self._names)):
            out.append(self._path_of(node_id))
        return out

    def _path_of(self, node_id: int) -> tuple[str, ...]:
        parts: list[str] = []
        while node_id != ROOT:
            parts.append(self._names[node_id])
            node_id = self._parents[node_id]
        return tuple(reversed(parts))

    def total_s(self, path: tuple[str, ...] | list[str]) -> float:
        """Accumulated seconds of ``path`` (0.0 when never recorded)."""
        node_id = self._children.get
        current = ROOT
        for name in path:
            nxt = node_id((current, name))
            if nxt is None:
                return 0.0
            current = nxt
        return float(self._totals[current])

    def count(self, path: tuple[str, ...] | list[str]) -> int:
        """Recorded span count of ``path`` (0 when never recorded)."""
        current = ROOT
        for name in path:
            nxt = self._children.get((current, name))
            if nxt is None:
                return 0
            current = nxt
        return int(self._counts[current])

    def children_of(self, node_id: int) -> list[int]:
        return [
            child for (parent, _name), child in self._children.items()
            if parent == node_id
        ]

    def self_total_s(self, node_id: int) -> float:
        """Node total minus the sum of its children's totals (>= 0)."""
        child_sum = float(
            sum(self._totals[c] for c in self.children_of(node_id))
        )
        return max(float(self._totals[node_id]) - child_sum, 0.0)

    # -- merge (executor workers) --------------------------------------------

    def state(self) -> dict[str, list[float]]:
        """Picklable tree state: ``";"``-joined path -> [count, total_s].

        Path names never contain ``";"`` in this codebase (phase and
        kernel identifiers); the joined form doubles as the
        collapsed-stack key.
        """
        out: dict[str, list[float]] = {}
        for node_id in range(len(self._names)):
            if self._counts[node_id] == 0 and not self.children_of(node_id):
                continue
            out[";".join(self._path_of(node_id))] = [
                int(self._counts[node_id]),
                float(self._totals[node_id]),
            ]
        return out

    def merge_state(self, state: dict[str, list[float]]) -> None:
        """Fold a worker's :meth:`state` into this tree.

        Counts and totals add; unseen paths are interned in the
        state's iteration order, so merging worker states in task
        order reproduces the node ordering a serial execution builds.
        """
        for joined, (count, total) in state.items():
            node_id = self.path_node(tuple(joined.split(";")))
            self._counts[node_id] += int(count)
            self._totals[node_id] += float(total)

    def reset(self) -> None:
        self._names.clear()
        self._parents.clear()
        self._children.clear()
        self._counts[:] = [0] * len(self._counts)
        self._totals[:] = [0.0] * len(self._totals)
        self._stack.clear()

    # -- export --------------------------------------------------------------

    def to_collapsed(self) -> str:
        """Collapsed-stack text: ``run;slots;schedule 12345`` per path.

        Weights are *self* time in integer microseconds — feed to any
        flamegraph.pl-compatible tool.  Zero-weight pure-container
        nodes are omitted (their time lives in their children).
        """
        lines = []
        for node_id in range(len(self._names)):
            weight = int(round(self.self_total_s(node_id) * 1e6))
            if self._counts[node_id] == 0 and weight == 0:
                continue
            lines.append(f"{';'.join(self._path_of(node_id))} {weight}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, name: str = "repro spans") -> dict[str, Any]:
        """A speedscope ``sampled`` profile of the span tree.

        One sample per interned path, weighted by self time (seconds)
        — drop the JSON on https://speedscope.app (or the CLI) for an
        interactive flame/sandwich view.
        """
        frames = [{"name": n} for n in self._names]
        samples: list[list[int]] = []
        weights: list[float] = []
        for node_id in range(len(self._names)):
            weight = self.self_total_s(node_id)
            if weight <= 0.0 and self._counts[node_id] == 0:
                continue
            stack: list[int] = []
            cur = node_id
            while cur != ROOT:
                stack.append(cur)
                cur = self._parents[cur]
            samples.append(list(reversed(stack)))
            weights.append(weight)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": float(sum(weights)),
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "name": name,
            "activeProfileIndex": 0,
            "exporter": "repro.obs.spans",
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-path aggregates keyed by joined path."""
        out: dict[str, dict[str, float]] = {}
        for node_id in range(len(self._names)):
            count = int(self._counts[node_id])
            if count == 0:
                continue
            total = float(self._totals[node_id])
            out[";".join(self._path_of(node_id))] = {
                "count": count,
                "total_s": total,
                "mean_s": total / count,
                "self_s": self.self_total_s(node_id),
            }
        return out

    def render_table(self, title: str = "Span tree") -> str:
        """Depth-indented human-readable tree."""
        table = Table(
            ["span", "calls", "total (s)", "self (s)"],
            formats=[None, "d", ".3f", ".3f"],
            title=title,
        )

        def walk(node_id: int, depth: int) -> None:
            table.add_row(
                [
                    "  " * depth + self._names[node_id],
                    int(self._counts[node_id]),
                    float(self._totals[node_id]),
                    self.self_total_s(node_id),
                ]
            )
            for child in sorted(
                self.children_of(node_id),
                key=lambda c: -float(self._totals[c]),
            ):
                walk(child, depth + 1)

        for root in sorted(
            (n for n in range(len(self._names)) if self._parents[n] == ROOT),
            key=lambda c: -float(self._totals[c]),
        ):
            walk(root, 0)
        return table.render()

    def write_artifacts(self, out_dir: str | Path, stem: str = "spans") -> list[Path]:
        """Write ``spans.json`` (state) + collapsed text + speedscope JSON."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        state_path = out_dir / f"{stem}.json"
        state_path.write_text(
            json.dumps(self.state(), indent=2) + "\n", encoding="utf-8"
        )
        collapsed_path = out_dir / f"{stem}.collapsed.txt"
        collapsed_path.write_text(self.to_collapsed(), encoding="utf-8")
        speedscope_path = out_dir / f"{stem}.speedscope.json"
        speedscope_path.write_text(
            json.dumps(self.to_speedscope()) + "\n", encoding="utf-8"
        )
        return [state_path, collapsed_path, speedscope_path]


# -- ambient recorder (how the kernel registry finds the active tree) --------

_ACTIVE: list[SpanRecorder] = []


def current_spans() -> SpanRecorder | None:
    """The innermost active recorder, or ``None``.

    The engine activates its bundle's recorder for the extent of one
    ``run()`` — kernel resolutions performed inside the run (schedulers
    re-resolve after ``reset()``, fleets at construction) are wrapped
    with span recording; resolutions outside any active recorder get
    the raw kernel, so un-instrumented runs pay nothing.
    """
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate_spans(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Make ``recorder`` the ambient span sink for the block's extent."""
    _ACTIVE.append(recorder)
    try:
        yield recorder
    finally:
        _ACTIVE.pop()


# -- flame graph SVG ---------------------------------------------------------

#: Depth-cycled fill palette (warm flame-graph convention).
_FLAME_COLORS = ("#c8442c", "#d96b34", "#e3923f", "#e8b04c", "#d9a43f")


def flamegraph_svg(
    state: dict[str, list[float]] | SpanRecorder,
    width: int = 920,
    row_h: int = 22,
    title: str | None = None,
) -> str:
    """Render a span tree (recorder or its :meth:`~SpanRecorder.state`
    dict) as a self-contained inline-SVG flame graph.

    Frame widths are proportional to *total* time; children sit above
    their parent covering its non-self portion, in insertion order.
    Pure-SVG (``<title>`` hover tooltips, no scripts) so the output
    embeds directly into ``repro-report``'s no-external-assets HTML.
    """
    if isinstance(state, SpanRecorder):
        state = state.state()
    if not state:
        return "<svg width='10' height='10'></svg>"
    totals = {tuple(k.split(";")): float(v[1]) for k, v in state.items()}
    counts = {tuple(k.split(";")): int(v[0]) for k, v in state.items()}
    # Ensure every ancestor exists; an absent parent inherits the sum
    # of its children (merged states always carry parents, this guards
    # hand-built dicts).
    for path in list(totals):
        for i in range(1, len(path)):
            prefix = path[:i]
            if prefix not in totals:
                totals[prefix] = 0.0
                counts[prefix] = 0
    children: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for path in totals:
        if len(path) > 1:
            children.setdefault(path[:-1], []).append(path)
    for kids in children.values():
        kids.sort(key=lambda p: -totals[p])
    roots = sorted((p for p in totals if len(p) == 1), key=lambda p: -totals[p])
    for path in totals:  # container nodes: total >= sum(children)
        kid_sum = sum(totals[k] for k in children.get(path, ()))
        if totals[path] < kid_sum:
            totals[path] = kid_sum
    grand_total = sum(totals[r] for r in roots)
    if grand_total <= 0.0:
        return "<svg width='10' height='10'></svg>"
    max_depth = max(len(p) for p in totals)
    height = (max_depth + 1) * row_h + (18 if title else 0)
    px_per_s = (width - 2.0) / grand_total

    rects: list[str] = []

    def emit(path: tuple[str, ...], x: float, depth: int) -> None:
        w = totals[path] * px_per_s
        if w < 0.4:  # sub-half-pixel frames are invisible anyway
            return
        y = height - (depth + 1) * row_h
        color = _FLAME_COLORS[(depth - 1) % len(_FLAME_COLORS)]
        label = path[-1]
        pct = 100.0 * totals[path] / grand_total
        tip = (
            f"{';'.join(path)} — {totals[path] * 1e3:.2f} ms "
            f"({pct:.1f}%), {counts[path]} span(s)"
        )
        text = ""
        if w > 7 * min(len(label), 3) + 8:
            shown = label if w > 7 * len(label) + 8 else label[: max(int(w / 7) - 1, 1)] + "…"
            text = (
                f"<text x='{x + 3:.1f}' y='{y + row_h - 7:.1f}' "
                f"font-size='11' fill='#1a1a2e'>{_html.escape(shown)}</text>"
            )
        rects.append(
            f"<g><title>{_html.escape(tip)}</title>"
            f"<rect x='{x:.1f}' y='{y}' width='{max(w - 0.6, 0.4):.1f}' "
            f"height='{row_h - 1}' rx='2' fill='{color}' "
            f"fill-opacity='0.88'/>{text}</g>"
        )
        cx = x
        for kid in children.get(path, ()):
            emit(kid, cx, depth + 1)
            cx += totals[kid] * px_per_s

    x = 1.0
    for root in roots:
        emit(root, x, 1)
        x += totals[root] * px_per_s

    caption = (
        f"<text x='1' y='12' font-size='12' fill='#444'>"
        f"{_html.escape(title)} — {grand_total * 1e3:.1f} ms total</text>"
        if title
        else ""
    )
    return (
        f"<svg width='{width}' height='{height}' viewBox='0 0 {width} {height}' "
        f"role='img' font-family='ui-monospace, monospace'>"
        f"<rect width='100%' height='100%' fill='#fafbfc'/>{caption}"
        f"{''.join(rects)}</svg>"
    )
