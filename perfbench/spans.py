"""Outside-in layer tracing for the benchmark.

The tracer patches the names that callers resolve, from outside the
package: a function one ``secshap`` module imports from another is
replaced in the importing module's namespace, and the public methods of
``HEContext``, ``Router``, ``TripleSupply`` and ``RoundModels`` are
replaced on the class.  Every patched call opens a span named
``<layer>.<function>``, where the layer is the module that defines the
function.  A call into the layer already on top of the stack opens no
span, so a span marks a layer boundary and ``calls`` counts crossings.

Spans are kept in memory as ``[name, protocol, start, end, parent]``
until ``summary()`` folds them into per-protocol, per-layer self times.
A span's self time is its duration minus that of its child spans.

Per-element scalars (``encode``, ``decode``, ``client_name``) are not
spanned: they run ~10^5 times per run and their cost stays with the
caller.
"""

from __future__ import annotations

import functools
import operator
import time
import types
from collections import defaultdict

SCALARS = frozenset({"encode", "decode", "client_name"})
LAYERS = (
    "federation", "models", "matrix", "hebackend", "kernels",
    "sharing", "parties", "shapley", "protocols", "report",
)
HE_OPS = ("hmult_c2c", "hmult_c2p", "hrot", "hadd", "enc", "dec")
_read_he_meter = operator.attrgetter(*HE_OPS)


def layer_of(module_name: str) -> str | None:
    head, _, tail = module_name.partition(".")
    return tail if head == "secshap" and tail in LAYERS else None


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []
        self.protocol = "setup"
        self.counts: dict = defaultdict(int)  # (protocol, layer, measure) -> count
        self._he_ops: dict = {}  # protocol -> HE_OPS counts metered inside hebackend
        self._stack: list[int] = []
        self._top_layer: list[str | None] = [None]
        self._undo: list[tuple] = []

    # -- recording -------------------------------------------------------

    def wrap(self, fn, name: str, after=None):
        """``fn`` under a span; ``after(args, kwargs, before)`` meters it."""
        layer = name.split(".", 1)[0]
        spans, stack, top = self.spans, self._stack, self._top_layer
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if top[-1] == layer:
                return fn(*args, **kwargs)
            before = after(args, kwargs, None) if after is not None else None
            record = [name, self.protocol, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            top.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                top.pop()
                if after is not None:
                    after(args, kwargs, before)

        return traced

    def _count(self, layer: str, measure: str, amount: int) -> None:
        if amount:
            self.counts[(self.protocol, layer, measure)] += amount

    # -- meters read at the boundary --------------------------------------

    def _he_meter(self, args, kwargs, before):
        now = _read_he_meter(args[0].meter)
        if before is not None:
            totals = self._he_ops.get(self.protocol, (0,) * len(HE_OPS))
            self._he_ops[self.protocol] = tuple(
                map(operator.add, totals, map(operator.sub, now, before))
            )
        return now

    def _router_bytes(self, args, kwargs, before):
        router, sender = args[0], args[1]
        now = router.parties[sender].bytes_out if sender in router.parties else 0
        if before is not None:
            self._count("parties", "bytes", now - before)
        return now

    def _triple_mults(self, args, kwargs, before):
        supply = args[2] if len(args) > 2 else kwargs["supply"]  # share_matmul(a, b, supply, ...)
        now = supply.used
        if before is not None:
            self._count("sharing", "triple_mults", now - before)
        return now

    # -- patching ----------------------------------------------------------

    def _set(self, target, key, value, setter=setattr, getter=getattr):
        self._undo.append((target, key, getter(target, key), setter))
        setter(target, key, value)

    def install(self, package) -> None:
        """Patch every cross-layer name and the traced class methods."""
        from secshap.federation import RoundModels
        from secshap.hebackend import HEContext
        from secshap.parties import Router
        from secshap.sharing import TripleSupply

        for layer in LAYERS:
            module = getattr(package, layer)
            for key, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType) or key in SCALARS:
                    continue
                owner = layer_of(obj.__module__)
                if owner is None or owner == layer:
                    continue
                if key == "sample_skip_round":
                    obj = self._wrap_hook_arg(obj)
                after = self._triple_mults if key == "share_matmul" else None
                self._set(module, key, self.wrap(obj, f"{owner}.{key}", after))

        activations = package.models.ACTIVATIONS
        for key, fn in list(activations.items()):
            self._set(activations, key, self.wrap(fn, f"models.ACTIVATIONS.{key}"),
                      setter=operator.setitem, getter=operator.getitem)

        for cls in (HEContext, Router, TripleSupply, RoundModels):
            owner = layer_of(cls.__module__)
            for key, obj in list(vars(cls).items()):
                if not isinstance(obj, types.FunctionType) or key.startswith("_"):
                    continue
                after = (self._he_meter if cls is HEContext else
                         self._router_bytes if key in ("send", "broadcast") else None)
                self._set(cls, key, self.wrap(obj, f"{owner}.{cls.__name__}.{key}", after))

    def _wrap_hook_arg(self, skip_round):
        """Charge the evaluation callback of ``sample_skip_round`` to protocols."""

        @functools.wraps(skip_round)
        def call(round_index, players, sample_ids, evaluate_hook, *rest, **kwargs):
            hook = self.wrap(evaluate_hook, "protocols.evaluate_hook")
            return skip_round(round_index, players, sample_ids, hook, *rest, **kwargs)

        return call

    def uninstall(self) -> None:
        while self._undo:
            target, key, original, setter = self._undo.pop()
            setter(target, key, original)

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per (protocol, layer): self time and span count, plus metered counts."""
        child = [0.0] * len(self.spans)
        for name, proto, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(int)
        for idx, (name, proto, start, end, parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            out[(proto, layer, "self_s")] += (end - start) - child[idx]
            out[(proto, layer, "calls")] += 1
        for key, amount in self.counts.items():
            out[key] += amount
        for proto, totals in self._he_ops.items():
            for op, amount in zip(HE_OPS, totals):
                out[(proto, "hebackend", op)] += amount
        return dict(out)

    def root_seconds(self, protocol: str) -> float:
        """Total duration of the protocol's root spans (those with no parent)."""
        return sum(end - start for name, proto, start, end, parent in self.spans
                   if proto == protocol and parent < 0)
