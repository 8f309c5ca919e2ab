"""Per-layer tracing of one ``verify`` process, installed from outside the package.

Every target in ``TARGETS`` is wrapped where the code looks it up: the class
attribute for a method, and every ``screenalg`` module attribute that is the
original function for a module-level function (``theta`` and ``contract`` are
imported by name into ``screenalg.verifier``, ``osc_coeff`` into
``screenalg.fock``).  Each wrapper counts calls and inclusive time.  The coarse
boundaries (checks, ``contract``, ``sector_modes``, ``commutator_check``) also
record a span; the hot leaves (``qpochhammer`` runs ~10^5 times) record none.
Spans stay in memory and are written out once, by ``Tracer.dump``.

Self time follows one rule: a span's duration minus the time covered by its
direct children.  Direct children are child spans plus wrapped leaf calls, whose
time is folded into the enclosing span's ``leaf_s`` as they return.  A span that
runs inside a leaf call (``exchange_ratio`` -> ``contract``) is already inside
that leaf's time, so it is marked ``in_leaf`` and not subtracted again.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# (layer metric prefix, defining module, attribute path, records a span)
TARGETS = (
    ("cli.context_from_config", "screenalg.cli", "context_from_config", False),
    ("verifier.run_suite", "screenalg.verifier", "run_suite", False),
    ("verifier.VerifierContext.contract", "screenalg.verifier", "VerifierContext.contract", False),
    ("verifier.VerifierContext.exchange_ratio", "screenalg.verifier", "VerifierContext.exchange_ratio", False),
    ("verifier.VerifierContext.theta_g", "screenalg.verifier", "VerifierContext.theta_g", False),
    ("currents.contract", "screenalg.currents", "contract", True),
    ("currents.ContractionKernel.evaluate", "screenalg.currents", "ContractionKernel.evaluate", False),
    ("qlaurent.theta", "screenalg.qlaurent", "theta", False),
    ("qlaurent.qpochhammer", "screenalg.qlaurent", "qpochhammer", False),
    ("qlaurent.series_exp", "screenalg.qlaurent", "series_exp", False),
    ("qlaurent.delta_extract", "screenalg.qlaurent", "delta_extract", False),
    ("heisenberg.contraction_log_coeff", "screenalg.heisenberg", "contraction_log_coeff", False),
    ("heisenberg.zero_mode_reorder", "screenalg.heisenberg", "zero_mode_reorder", False),
    ("heisenberg.ModeBracketTable.value", "screenalg.heisenberg", "ModeBracketTable.value", False),
    ("heisenberg.osc_coeff", "screenalg.heisenberg", "osc_coeff", False),
    ("fock.FockSpace.sector_modes", "screenalg.fock", "FockSpace.sector_modes", True),
    ("fock.FockSpace.pair_modes", "screenalg.fock", "FockSpace.pair_modes", False),
    ("fock.FockSpace.commutator_check", "screenalg.fock", "FockSpace.commutator_check", True),
    ("fock.blocks_compose", "screenalg.fock", "blocks_compose", False),
    ("fock.blocks_linear", "screenalg.fock", "blocks_linear", False),
)

CHECK_SPAN = "verifier.check"

# span record fields, in order
NAME, START, END, PARENT, IN_LEAF, LEAF_S, LABEL = range(7)


class Tracer:
    """Call counts, inclusive times and coarse spans for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.counters: dict[str, list] = {}  # name -> [calls, inclusive seconds, depth]
        self.spans: list[list] = []
        self.fock = {"sector_modes_misses": 0, "tgt_cap_max": 0, "mode_block_bytes": 0, "rank": 0}
        self._frames: list[int] = []  # open wrapped calls: span index, or -1 for a leaf

    def wrap(self, name: str, fn, span: bool = False, label=None):
        """Return ``fn`` wrapped to count into ``name`` (and record a span if asked)."""
        counter = self.counters.setdefault(name, [0, 0.0, 0])
        frames, spans = self._frames, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter[0] += 1
            counter[2] += 1
            if span:
                me = len(spans)
                parent = next((f for f in reversed(frames) if f >= 0), None)
                in_leaf = bool(frames) and frames[-1] < 0
                spans.append([name, 0.0, 0.0, parent, in_leaf, 0.0, label])
            else:
                me = -1
            frames.append(me)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                frames.pop()
                counter[2] -= 1
                if counter[2] == 0:  # only the outermost of recursive calls adds time
                    counter[1] += t1 - t0
                if span:
                    spans[me][START], spans[me][END] = t0, t1
                elif frames and frames[-1] >= 0:
                    spans[frames[-1]][LEAF_S] += t1 - t0

        return wrapper

    def install(self):
        """Wrap every target, every check runner, and the Fock cache probes."""
        import screenalg  # noqa: F401  (imports every package module)
        import screenalg.verifier as verifier

        for name, module, attr, span in TARGETS:
            owner = sys.modules.get(module)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:  # gone from the program: its metrics read 0
                self.counters.setdefault(name, [0, 0.0, 0])
                continue
            inner = original
            if attr in ("FockSpace.sector_modes", "FockSpace.pair_modes"):
                inner = self._observe_fock_cache(original, attr == "FockSpace.sector_modes")
            wrapped = self.wrap(name, inner, span)
            if cls_path:
                setattr(owner, leaf, wrapped)
            else:
                rebind(original, wrapped)

        self.counters.setdefault(CHECK_SPAN, [0, 0.0, 0])
        build_catalogue = getattr(verifier, "build_catalogue", None)
        if build_catalogue is None:
            return

        def traced_catalogue(ctx):
            return [
                (e[0], e[1], e[2], self.wrap(CHECK_SPAN, e[3], span=True, label=e[0]))
                if isinstance(e, tuple) and len(e) == 4 and callable(e[3]) else e
                for e in build_catalogue(ctx)
            ]

        rebind(build_catalogue, traced_catalogue)

    def _observe_fock_cache(self, method, count_misses: bool):
        """Record cache misses, the largest target cap, and computed block bytes."""
        stats = self.fock

        @functools.wraps(method)
        def observed(space, spec, *args):
            cache = getattr(space, "_modes_cache", {})
            before = len(cache)
            out = method(space, spec, *args)
            stats["tgt_cap_max"] = max(stats["tgt_cap_max"], args[-1])
            stats["rank"] = space.rank
            if len(cache) > before:
                if count_misses:
                    stats["sector_modes_misses"] += 1
                stats["mode_block_bytes"] += sum(
                    m.nbytes for blocks in out[2].values() for _, m in blocks.values()
                )
            return out

        return observed

    def dump(self) -> dict:
        """Counters and spans as plain data, written once at the end of the run."""
        fock = dict(self.fock)
        rank = fock.pop("rank")
        fock["sector_dim_max"] = 0
        if rank:
            from screenalg.fock import sector_dimension

            fock["sector_dim_max"] = sector_dimension(rank, fock["tgt_cap_max"])
        return {
            "run_id": self.run_id,
            "counters": {k: {"calls": c, "s": s} for k, (c, s, _) in self.counters.items()},
            "fock": fock,
            "spans": [
                {
                    "name": s[NAME], "label": s[LABEL], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "in_leaf": s[IN_LEAF], "leaf_s": s[LEAF_S],
                    "run": self.run_id,
                }
                for s in self.spans
            ],
        }


def rebind(original, replacement):
    """Point every ``screenalg`` module attribute bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname == "screenalg" or modname.startswith("screenalg."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the time direct children cover.

    Child spans may overlap one another; their covered time is the length of the
    union of their intervals, clipped to the parent.  ``leaf_s`` is the time of
    the span's direct leaf calls, which never overlap its non-``in_leaf`` children.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None and not s["in_leaf"]:
            children[s["parent"]].append((s["start"], s["end"]))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        covered = s["leaf_s"] + _union_length(children[i], s["start"], s["end"])
        out[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(out)


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total
