"""Spans and counters around calls into truzz's layers, installed from
outside the package for the traced run only.

Two kinds of traced repeat use them. A span repeat records a span at each
layer boundary: its name, start, end, parent span and campaign id, kept in
flat arrays in memory and written out when the run ends. A count repeat
counts the calls made several times per mutated child (``select_byte``
and the campaign's ``Rng`` draws). A wrapper per byte draw costs about as
much as the draw, so counting them in the span repeat would distort its
times; repeats are identical, so counts from a separate repeat are exact.

Every wrapped entry point must exist: a missing one raises
``MissingEntryPointError`` rather than leaving its metrics at 0. The one
exception is the coverage API, whose call count is the evidence for
deleting it: a helper that no longer exists cannot be called, so its count
is exactly 0.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

from errors import MissingEntryPointError

# (span name, layer, module, class or None, attribute)
SPANNED = (
    ("mutation.mutate", "mutation", "truzz.engine", None, "mutate"),
    ("mutation.draw_op_count", "mutation", "truzz.engine", None, "draw_op_count"),
    ("target.run", "target", "truzz.target", "CompiledTarget", "run"),
    ("target.external", "target", "truzz.engine", None, "execute_external"),
    ("byte_analysis.analyze", "byte_analysis", "truzz.engine", None, "analyze"),
    ("scheduler.dry_run", "scheduler", "truzz.engine", None, "dry_run"),
    ("scheduler.select_seed", "scheduler", "truzz.scheduler", "Corpus", "select_seed"),
    ("scheduler.update_rank", "scheduler", "truzz.scheduler", "Corpus", "update_rank"),
    ("engine.persist", "engine", "truzz.engine", None, "_persist_corpus"),
    ("engine.save_crash", "engine", "truzz.engine", "Campaign", "_save_crash"),
)
CAMPAIGN_SPAN = "engine.campaign"
LAYER_OF = {name: layer for name, layer, *_ in SPANNED}
LAYER_OF[CAMPAIGN_SPAN] = "engine"

# Numpy Bitmap and its helpers; any call during a campaign is counted.
COVERAGE_API = (
    ("truzz.coverage", "Bitmap", "__init__"),
    ("truzz.coverage", None, "count_new_edges"),
    ("truzz.coverage", None, "merge_into"),
    ("truzz.coverage", None, "path_from_bitmap"),
)
RNG_METHODS = ("randrange", "random")


class Tracer:
    """Install wrappers with ``install_spans`` or ``install_counts``; remove
    them with ``uninstall``."""

    def __init__(self):
        self.names: list[str] = [CAMPAIGN_SPAN] + [s[0] for s in SPANNED]
        self._undo: list[tuple[object, str, object]] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("B")
        self.parent = array("q")
        self.campaign = array("H")
        self._stack = [-1]
        self._campaign_id = 0
        # One-element lists: the cheapest counters a closure can bump.
        self._cells = {key: [0] for key in (
            "rng.randrange", "rng.random", "select_byte", "positions_drawn",
            "coverage", "rounds", "productive_rounds")}
        self._counting = False

    def clear(self) -> None:
        """Drop recorded spans and counts; installed wrappers keep working."""
        for arr in (self.start, self.end, self.name, self.parent, self.campaign):
            del arr[:]
        del self._stack[1:]
        for cell in self._cells.values():
            cell[0] = 0

    @property
    def counts(self) -> dict[str, int]:
        return {key: cell[0] for key, cell in self._cells.items()}

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install_spans(self) -> None:
        for name, _, module, cls, attr in SPANNED:
            owner = _owner(module, cls, attr)
            nid = self.names.index(name)
            observe = self._productive if name == "scheduler.update_rank" else None
            self._patch(owner, attr, lambda fn, nid=nid, obs=observe: self._spanned(fn, nid, obs))

    def install_counts(self) -> None:
        self._counting = True
        self._patch(_owner("truzz.mutation", None, "select_byte"), "select_byte",
                    self._select_byte)
        for module, cls, attr in COVERAGE_API:
            if cls is not None:
                owner = getattr(sys.modules.get(module), cls, None)
                if attr in getattr(owner, "__dict__", {}):
                    self._patch(owner, attr, self._counted)
                continue
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue
            # Patch every truzz module that imported the helper by name.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "truzz" and mod.__dict__.get(attr) is original:
                    self._patch(mod, attr, self._counted)

    def uninstall(self) -> None:
        self._counting = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def attach(self, campaign) -> None:
        """In a count repeat, count calls on the campaign's own ``Rng``."""
        if not self._counting:
            return
        rng = getattr(campaign, "rng", None)
        for method in RNG_METHODS:
            if not callable(getattr(rng, method, None)):
                raise MissingEntryPointError(f"the campaign's Rng has no {method}()")

            def counted(*args, _fn=getattr(rng, method), _cell=self._cells[f"rng.{method}"]):
                _cell[0] += 1
                return _fn(*args)

            setattr(rng, method, counted)

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, fn, nid: int, observe):
        start, end, name, parent, campaign = (
            self.start, self.end, self.name, self.parent, self.campaign)
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            campaign.append(self._campaign_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if observe is not None:
                    observe(args)

        return wrapper

    def _productive(self, args) -> None:
        """Count rounds, and rounds with new edges, from ``update_rank``."""
        self._cells["rounds"][0] += 1
        if args[-1] > 0:
            self._cells["productive_rounds"][0] += 1

    def _select_byte(self, fn):
        calls, drawn = self._cells["select_byte"], self._cells["positions_drawn"]
        randrange_calls = self._cells["rng.randrange"]

        def wrapper(mask, rng, length):
            # Each candidate position select_byte draws is one randrange call.
            before = randrange_calls[0]
            idx = fn(mask, rng, length)
            calls[0] += 1
            drawn[0] += randrange_calls[0] - before
            return idx

        return wrapper

    def _counted(self, fn):
        cell = self._cells["coverage"]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def campaign_span(self, campaign_id: int, run):
        """Run ``run()`` inside the campaign's root span."""
        self._campaign_id = campaign_id
        return self._spanned(run, 0, None)()

    # -- results ------------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        # Copies: a view would pin the arrays against later appends.
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name": np.array(self.name, dtype=np.uint8),
            "campaign": np.array(self.campaign, dtype=np.uint16),
            "start": start,
            "end": end,
            "parent": parent,
            "dur": dur,
            "self": dur - child,
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        table = self.span_table()
        out = {}
        for nid, name in enumerate(self.names):
            sel = table["name"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "seconds": float(table["dur"][sel].sum()),
                "self_seconds": float(table["self"][sel].sum()),
            }
        return out

    def write_spans(self, path) -> None:
        """Write one row per span; ``parent`` is the parent's row number, -1 at a root."""
        table = self.span_table()
        t0 = table["start"].min() if len(table["start"]) else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("campaign\tname\tstart_s\tend_s\tparent\n")
            for c, n, s, e, p in zip(table["campaign"].tolist(), table["name"].tolist(),
                                     (table["start"] - t0).tolist(),
                                     (table["end"] - t0).tolist(), table["parent"].tolist()):
                fh.write(f"{c}\t{self.names[n]}\t{s:.9f}\t{e:.9f}\t{p}\n")


def _owner(module: str, cls, attr: str):
    """The module or class that defines ``attr``."""
    mod = sys.modules.get(module)
    owner = getattr(mod, cls, None) if cls is not None else mod
    if owner is None or attr not in getattr(owner, "__dict__", {}):
        raise MissingEntryPointError(f"{module}:{cls + '.' if cls else ''}{attr} is not defined")
    return owner
