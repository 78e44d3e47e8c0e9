"""Spans around the calls into each layer of vstates.

`Tracer.install` replaces each traced function by a wrapper in every
module that holds a reference to it, which is where its callers look it
up: `vstates.solver.assemble`, `vstates.continuation.newton_solve`,
`vstates.kernels.kernel_sums`, `scipy.linalg.lu_factor` and so on.
Nothing in the program changes.  Each call becomes a span (layer, start,
end, parent, round); a call made from inside a span of the same layer,
such as `dispersion.delta` under `dispersion.eigenvalues_for_fold`, is
part of that span and gets none of its own.  Spans stay in memory and
are written out once, after the timed calls.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import types

# (layer, module that defines the functions, function names)
LAYERS = (
    ("kernels.kernel_sums", "vstates.kernels", ("kernel_sums",)),
    ("contour.sample", "vstates.contour", ("sample",)),
    ("residual.assemble", "vstates.residual", ("assemble",)),
    ("solver.fd_jacobian", "vstates.solver", ("fd_jacobian",)),
    ("solver.lu", "scipy.linalg", ("lu_factor", "lu_solve")),
    ("solver.newton_solve", "vstates.solver", ("newton_solve",)),
    ("continuation.sweep", "vstates.continuation", ("sweep",)),
    (
        "dispersion",
        "vstates.dispersion",
        (
            "delta",
            "feasibility",
            "critical_radius",
            "eigenvalues_for_fold",
            "frequency_matrix",
            "kernel_vector",
            "double_eigenvalue_locus",
            "double_eigenvalue_radius",
        ),
    ),
    (
        "state_io",
        "vstates.state_io",
        ("save_state", "load_state", "save_branch", "load_branch"),
    ),
    ("render", "vstates.render", ("render_svg", "save_svg")),
)

# Complex128 temporaries of targets x sources that the numpy kernel
# allocates per call: the differences, their conjugates, the quotient and
# the weighted terms.  Computed from the array sizes, not measured.
KERNEL_BYTES_PER_PAIR = 4 * 16

_LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))


class Tracer:
    """Records one span per outermost call into a layer."""

    def __init__(self):
        # span: [layer, start, end, parent index or -1, round, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth = {layer: 0 for layer in _LAYER_NAMES}
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.round = 0

    def _wrap(self, layer: str, func):
        spans, stack, depth = self.spans, self._stack, self._depth
        tracer = self

        def traced(*args, **kwargs):
            if depth[layer]:
                return func(*args, **kwargs)
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.round, None]
            spans.append(span)
            stack.append(index)
            depth[layer] += 1
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                depth[layer] -= 1
                stack.pop()
            span[5] = _extra(layer, args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a vstates module holds it."""
        holders = [
            module
            for name, module in list(sys.modules.items())
            if name == "vstates" or name.startswith("vstates.")
        ]
        for layer, home, names in LAYERS:
            defining = importlib.import_module(home)
            for name in names:
                func = getattr(defining, name)
                wrapper = self._wrap(layer, func)
                for module in {id(m): m for m in holders + [defining]}.values():
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            self._patched.append((module, attr, func))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w") as out:
            for index, (layer, start, end, parent, rnd, extra) in enumerate(self.spans):
                record = {
                    "id": index,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "parent": None if parent < 0 else parent,
                    "round": rnd,
                }
                if extra is not None:
                    record["extra"] = extra
                out.write(json.dumps(record) + "\n")

    def round_metrics(self, rnd: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of one round from its spans."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == rnd]
        child_time: dict[int, float] = {}
        for _, (_, start, end, parent, _, _) in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        calls = dict.fromkeys(_LAYER_NAMES, 0)
        total = dict.fromkeys(_LAYER_NAMES, 0.0)
        own = dict.fromkeys(_LAYER_NAMES, 0.0)
        top = 0.0
        pairs = 0
        io_bytes = {"state_io": 0, "render": 0}
        solves = useful = steps = wasted = sweep_solves = sweep_states = 0
        jacobians_in: dict[int, int] = {}
        for index, (layer, start, end, parent, _, extra) in spans:
            calls[layer] += 1
            total[layer] += end - start
            own[layer] += end - start - child_time.get(index, 0.0)
            if parent < 0:
                top += end - start
            if layer == "kernels.kernel_sums":
                pairs += extra
            elif layer in io_bytes and extra is not None:
                io_bytes[layer] += extra
            elif layer == "solver.fd_jacobian":
                solve = self._ancestor(index, "solver.newton_solve")
                if solve is not None:
                    jacobians_in[solve] = jacobians_in.get(solve, 0) + 1
        for index, (layer, _, _, _, _, extra) in spans:
            if layer == "solver.newton_solve":
                solves += 1
                count = jacobians_in.get(index, 0)
                steps += count
                if extra:
                    useful += 1
                else:
                    wasted += count
                if self._ancestor(index, "continuation.sweep") is not None:
                    sweep_solves += 1
            elif layer == "continuation.sweep" and extra is not None:
                sweep_states += extra
        kernel_s = total["kernels.kernel_sums"]
        return {
            "kernels.kernel_sums.calls": calls["kernels.kernel_sums"],
            "kernels.kernel_sums.s": kernel_s,
            "kernels.kernel_sums.pairs": pairs,
            "kernels.kernel_sums.bytes": pairs * KERNEL_BYTES_PER_PAIR,
            "kernels.kernel_sums.pairs_per_s": pairs / kernel_s if kernel_s else 0.0,
            "residual.assemble.calls": calls["residual.assemble"],
            "residual.assemble.s": total["residual.assemble"],
            "residual.assemble.self_s": own["residual.assemble"],
            "contour.sample.calls": calls["contour.sample"],
            "contour.sample.s": total["contour.sample"],
            "solver.fd_jacobian.calls": calls["solver.fd_jacobian"],
            "solver.fd_jacobian.s": total["solver.fd_jacobian"],
            "solver.fd_jacobian.self_s": own["solver.fd_jacobian"],
            "solver.lu.calls": calls["solver.lu"],
            "solver.lu.s": total["solver.lu"],
            "solver.newton_solve.calls": solves,
            "solver.newton_solve.s": total["solver.newton_solve"],
            "solver.newton_solve.self_s": own["solver.newton_solve"],
            "solver.newton_solve.steps": steps,
            "solver.newton_solve.wasted_steps": wasted,
            "solver.newton_solve.useful_ratio": useful / solves if solves else 0.0,
            "continuation.sweep.s": total["continuation.sweep"],
            "continuation.sweep.self_s": own["continuation.sweep"],
            "continuation.attempts_per_state": (
                sweep_solves / sweep_states if sweep_states else 0.0
            ),
            "dispersion.s": total["dispersion"],
            "state_io.s": total["state_io"],
            "state_io.bytes": io_bytes["state_io"],
            "render.s": total["render"],
            "render.bytes": io_bytes["render"],
            "trace.round_s": wall,
            "trace.outside_s": wall - top,
        }

    def _ancestor(self, index: int, layer: str) -> int | None:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return parent
            parent = self.spans[parent][3]
        return None


def _extra(layer: str, args: tuple, result):
    """The count a span carries besides its times, if its layer has one."""
    if layer == "kernels.kernel_sums":
        return len(args[0]) * len(args[1])
    if layer == "solver.newton_solve":
        return bool(result.converged and not result.trivial)
    if layer == "continuation.sweep":
        return len(result.records)
    if layer in ("state_io", "render") and args and isinstance(args[0], (str, os.PathLike)):
        return os.path.getsize(args[0])
    return None
