"""A Concurrent-Smalltalk-style object layer over the macro simulator.

Section 4.1: "The Concurrent Smalltalk programming system supports
object-based abstraction mechanisms and encourages fine-grained program
composition.  It extends sequential Smalltalk by supporting asynchronous
method invocation, distributed objects, and a small repertoire of
control constructs ...  The compiler and runtime system provide the
programmer with a global object namespace."  And from the TSP study:
"There are no procedure calls per se; all calls become message
invocations, either on the local node or a remote node.  All data
structures are objects ... always referred to by a global virtual name
which must be translated at every use."

This module provides that model as a library:

* :class:`CstObject` — subclass it and decorate methods with
  :func:`method`.  Instances live on a home node; their state is node
  state, never shared Python references.
* :class:`CstRuntime` — owns the global name space (object id ->
  home node, charged as an ``xlate`` at every use, exactly CST's cost
  profile), creates objects, and turns every method call into a message.
* :class:`Future` — the result of an asynchronous call.  ``touch``-ing
  an unresolved future from inside a method suspends nothing (handlers
  are atomic at this level); instead continuation methods are invoked
  when the value arrives, which is CST's compiled form as well.

The runtime charges the costs Table 5 exposes: per-call message + OS
dispatch overheads, an xlate per object-name use, and method bodies
charge their own work like any jsim handler.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.errors import ConfigurationError, SimulationError
from ..jsim.sim import Context, MacroSimulator

__all__ = ["CstObject", "CstRuntime", "Future", "method"]

#: Instructions charged for the runtime's per-invocation bookkeeping
#: (argument frame build, method lookup) — CST's "OS" cost per call.
CALL_OVERHEAD_INSTR = 25

#: Instructions to resolve and deliver a future's value continuation.
REPLY_OVERHEAD_INSTR = 15


def method(fn: Callable) -> Callable:
    """Mark a :class:`CstObject` function as an invocable method."""
    fn._cst_method = True
    return fn


class Future:
    """A value that will arrive later, bound to a continuation."""

    __slots__ = ("future_id", "resolved", "value", "_continuations")

    def __init__(self, future_id: int) -> None:
        self.future_id = future_id
        self.resolved = False
        self.value: Any = None
        self._continuations: list = []


class CstObject:
    """Base class for distributed objects.

    Subclass, define ``__init__``-style state in :meth:`setup`, and
    decorate invocable methods with :func:`method`.  Methods receive
    ``(self, ctx, *args)`` where ``ctx`` is the jsim
    :class:`~repro.jsim.sim.Context` of the node the object lives on;
    charge work there as usual.  Return a value to resolve the caller's
    future.
    """

    def setup(self, ctx: Context, *args: Any) -> None:
        """Initialise instance state (runs on the home node)."""


class CstRuntime:
    """The COSMOS-like runtime: names, placement, and call delivery."""

    def __init__(self, sim: MacroSimulator) -> None:
        self.sim = sim
        self._ids = itertools.count(1)
        self._future_ids = itertools.count(1)
        #: Global name table: object id -> (home node, class name).
        self.directory: Dict[int, Tuple[int, str]] = {}
        self._classes: Dict[str, type] = {}
        sim.register("CstCall", self._handle_call)
        sim.register("CstReply", self._handle_reply)
        sim.register("CstArrive", self._handle_arrive)

    # ------------------------------------------------------------- creation

    def register_class(self, cls: type) -> None:
        if not issubclass(cls, CstObject):
            raise ConfigurationError(f"{cls.__name__} is not a CstObject")
        self._classes[cls.__name__] = cls

    def create(self, cls: type, home: int, *args: Any) -> int:
        """Instantiate an object on its home node; returns its global id.

        Creation is host-side setup (like loading a program); run-time
        object creation can be done from a method via :meth:`create`
        too, charging through the ambient context.
        """
        if cls.__name__ not in self._classes:
            self.register_class(cls)
        object_id = next(self._ids)
        instance = cls()
        self.directory[object_id] = (home, cls.__name__)
        store = self.sim.nodes[home].state.setdefault("_cst_objects", {})
        store[object_id] = instance
        return object_id

    def setup_object(self, object_id: int, *args: Any) -> None:
        """Queue the object's setup method as its first invocation."""
        home, _ = self.directory[object_id]
        self.sim.inject(home, "CstCall", object_id, "__setup__", args,
                        None)

    # ----------------------------------------------------------------- calls

    def call(
        self,
        ctx: Context,
        object_id: int,
        method_name: str,
        *args: Any,
        future: Optional[Future] = None,
    ) -> Future:
        """Asynchronously invoke ``object_id.method_name(*args)``.

        Name resolution charges an xlate (CST translates "at every
        use"); the invocation itself is a message even when the object
        is local.  Returns a :class:`Future` for the result.
        """
        home = self._resolve(ctx, object_id)
        if future is None:
            future = self._new_future(ctx.node_id)
        ctx.charge(instructions=CALL_OVERHEAD_INSTR)
        length = 4 + len(args)  # header, object, method hint, future
        ctx.send(home, "CstCall", object_id, method_name, args,
                 (ctx.node_id, future.future_id), length=length)
        return future

    def when(self, future: Future, ctx: Context, object_id: int,
             method_name: str, *extra: Any) -> None:
        """Invoke another method when ``future`` resolves (continuation).

        The resolved value is prepended to ``extra`` as the method's
        first argument.  If the future already resolved, the call is
        issued immediately.
        """
        binding = (object_id, method_name, extra)
        if future.resolved:
            self.call(ctx, object_id, method_name, future.value, *extra)
        else:
            future._continuations.append(binding)

    # ------------------------------------------------------------- migration

    def migrate(self, ctx: Context, object_id: int, new_home: int) -> None:
        """Move an object to another node (the paper: "objects ... can
        migrate to other nodes ... and are always referred to by a
        global virtual name").

        The state travels as a message sized by the object's slot count;
        the global directory is updated so subsequent calls translate to
        the new home.
        """
        home = self._resolve(ctx, object_id)
        if home != ctx.node_id:
            raise SimulationError(
                f"migrate must run on the object's home node ({home})"
            )
        if not 0 <= new_home < self.sim.n_nodes:
            raise SimulationError(f"node {new_home} outside machine")
        store = ctx.state.get("_cst_objects", {})
        instance = store.pop(object_id)
        self.directory[object_id] = (new_home, type(instance).__name__)
        state_words = max(2, len(vars(instance)))
        ctx.charge(instructions=CALL_OVERHEAD_INSTR + 3 * state_words)
        ctx.send(new_home, "CstArrive", object_id, instance,
                 length=2 + state_words)

    def _handle_arrive(self, ctx: Context, object_id: int,
                       instance: CstObject) -> None:
        ctx.charge(instructions=CALL_OVERHEAD_INSTR)
        store = ctx.state.setdefault("_cst_objects", {})
        store[object_id] = instance

    # -------------------------------------------------------------- handlers

    def _resolve(self, ctx: Context, object_id: int) -> int:
        try:
            home, _ = self.directory[object_id]
        except KeyError:
            raise SimulationError(f"unknown object id {object_id}") from None
        ctx.xlate()
        return home

    def _new_future(self, node: int) -> Future:
        future = Future(next(self._future_ids))
        table = self.sim.nodes[node].state.setdefault("_cst_futures", {})
        table[future.future_id] = future
        return future

    def _instance(self, ctx: Context, object_id: int) -> CstObject:
        store = ctx.state.get("_cst_objects", {})
        try:
            return store[object_id]
        except KeyError:
            raise SimulationError(
                f"object {object_id} is not resident on node {ctx.node_id}"
            ) from None

    def _handle_call(self, ctx: Context, object_id: int, method_name: str,
                     args: tuple, reply_to) -> None:
        instance = self._instance(ctx, object_id)
        ctx.charge(instructions=CALL_OVERHEAD_INSTR)
        ctx.xlate()  # the callee re-translates its self-name (CST does)
        if method_name == "__setup__":
            instance.setup(ctx, *args)
            return
        bound = getattr(instance, method_name, None)
        if bound is None or not getattr(bound, "_cst_method", False):
            raise SimulationError(
                f"{type(instance).__name__} has no method {method_name!r}"
            )
        result = bound(ctx, *args)
        if reply_to is not None:
            node, future_id = reply_to
            ctx.charge(instructions=REPLY_OVERHEAD_INSTR)
            ctx.send(node, "CstReply", future_id, result, length=3)

    def _handle_reply(self, ctx: Context, future_id: int, value: Any) -> None:
        table = ctx.state.get("_cst_futures", {})
        future = table.get(future_id)
        ctx.charge(instructions=REPLY_OVERHEAD_INSTR)
        if future is None:
            return  # fire-and-forget caller dropped the future
        future.resolved = True
        future.value = value
        for object_id, method_name, extra in future._continuations:
            self.call(ctx, object_id, method_name, value, *extra)
        future._continuations = []
