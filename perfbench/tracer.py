"""Outside-in tracing of the offline_simon layers.

The traced child process replaces public functions of the package with
timing wrappers before the first op. Nothing inside the package changes:
a wrapper records wall time, self time (its duration minus the time its
wrapped children took) and exceptions, then returns the original result.

Coarse calls (an op root, an attack, a search, a screen, a qsim kernel) are
kept as spans with name, start, end and parent. Frequent calls (GF(2) rank
tests, Walsh-Hadamard transforms, samples, collision spectra) are folded
into per-parent aggregates of calls, total time and self time, so the trace
stays bounded however long the run is.

Several modules import functions by name, so each wrapper is bound at
every name the package calls it through; the Gf2Basis and QState methods
are patched on the classes themselves.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "attacks", "primitives", "search", "simon", "analysis", "gf2", "qsim")


class Tracer:
    """Call statistics of one traced child process."""

    def __init__(self):
        self.stack: list[list] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.fine: dict[tuple, list] = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.outer: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.layer_self: dict[str, float] = defaultdict(float)
        self.layer_errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._next_id = 0

    def wrap(self, fn, name: str, layer: str, family: str, coarse: bool, count=None):
        """Timing wrapper around fn; `family` groups names whose outermost
        calls give one inclusive time (extend and insert are one rank test)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            outermost = tracer.depth[family] == 0
            tracer.depth[family] += 1
            if coarse:
                span_id = tracer._next_id
                tracer._next_id += 1
                anchor = span_id
            else:
                span_id = None
                anchor = parent[3] if parent else None
            # frame: layer, child seconds, span id, nearest coarse span id
            frame = [layer, 0.0, span_id, anchor]
            stack.append(frame)
            failed = False
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.depth[family] -= 1
                dur = t1 - t0
                self_t = dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += self_t
                tracer.layer_self[layer] += self_t
                if outermost:
                    agg = tracer.outer[family]
                    agg[0] += 1
                    agg[1] += dur
                if failed and (parent is None or parent[0] != layer):
                    tracer.layer_errors[layer] += 1
                if count is not None and not failed:
                    tracer.counts[name] += count(args, kwargs)
                if coarse:
                    tracer.spans.append({
                        "id": span_id, "name": name, "op": tracer.op,
                        "parent": parent[3] if parent else None,
                        "start": t0, "end": t1, "error": failed,
                    })
                else:
                    key = (parent[3] if parent else None, name)
                    agg = tracer.fine.get(key)
                    if agg is None:
                        agg = tracer.fine[key] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += self_t

        return wrapper

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "outer": {k: list(v) for k, v in self.outer.items()},
            "layer_self_s": {layer: self.layer_self.get(layer, 0.0) for layer in LAYERS},
            "layer_errors": {layer: self.layer_errors.get(layer, 0) for layer in LAYERS},
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        """Spans and per-parent aggregates as one JSON document."""
        doc = {
            "spans": self.spans,
            "aggregates": [
                {"parent": parent, "name": name, "calls": c, "total_s": tot, "self_s": slf}
                for (parent, name), (c, tot, slf) in self.fine.items()
            ],
            "summary": self.summary(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _fwht_elements(args, kwargs):
    vec = args[0] if args else kwargs["vec"]
    return getattr(vec, "size", 0)


def _apply_h_bytes(args, kwargs):
    # Computed, not measured: a per-qubit butterfly pass reads and writes
    # the whole state once for every qubit of the register.
    state, register = args[0], args[1] if len(args) > 1 else kwargs["register"]
    return 2 * state.psi.nbytes * state.layout.width(register)


def install(tracer: Tracer) -> None:
    """Patch the package so every call on the workload paths is traced."""
    from offline_simon import analysis, attacks, cli, gf2, primitives, qsim, search, simon

    def patch(owners, attr, layer, family, coarse, name=None, count=None):
        original = getattr(owners[0], attr)
        wrapped = tracer.wrap(original, name or f"{layer}.{attr}", layer, family,
                              coarse, count)
        for owner in owners:
            setattr(owner, attr, wrapped)

    patch([cli], "main", "cli", "cli.main", True)
    for attr in ("attack_em_q1", "attack_fx_q2", "attack_fx_q1", "attack_chaskey",
                 "attack_beetle", "attack_related_key", "attack_slide_ifx"):
        patch([attacks], attr, "attacks", "attacks.attack", True)
    for attr in ("random_permutation", "random_cipher_family"):
        patch([primitives, cli], attr, "primitives", "primitives.build", True)
    for attr in ("alg_exp_q1", "alg_poly_q2"):
        patch([search], attr, "search", "search.alg", True)
    patch([search], "screen", "search", "search.screen", True)
    patch([simon], "p_bad_estimate", "simon", "simon.p_bad_estimate", True)
    patch([simon], "sample", "simon", "simon.sample", False)
    patch([simon], "distribution", "simon", "simon.distribution", False)
    patch([analysis], "collision_probabilities", "analysis",
          "analysis.collision_probabilities", False)
    patch([analysis], "find_periods", "analysis", "analysis.find_periods", False)
    patch([gf2.Gf2Basis], "extend", "gf2", "gf2.rank", False, name="gf2.Gf2Basis.extend")
    patch([gf2.Gf2Basis], "insert", "gf2", "gf2.rank", False, name="gf2.Gf2Basis.insert")
    patch([gf2, search, simon, attacks], "solve_period", "gf2", "gf2.solve_period", False)
    patch([gf2, analysis, qsim, simon], "fwht", "gf2", "gf2.fwht", False,
          count=_fwht_elements)
    patch([qsim], "apply_h", "qsim", "qsim.apply_h", True, count=_apply_h_bytes)
    patch([qsim], "apply_oracle_xor", "qsim", "qsim.oracle", True)
    patch([qsim], "apply_indexed_oracle", "qsim", "qsim.oracle", True)
    for attr in ("init_zero", "apply_x", "apply_reflection_about_zero", "marginal",
                 "distance"):
        patch([qsim], attr, "qsim", "qsim.other", False)
    patch([qsim.QState], "copy", "qsim", "qsim.other", False, name="qsim.QState.copy")
    patch([qsim.QState], "scale", "qsim", "qsim.other", False, name="qsim.QState.scale")
