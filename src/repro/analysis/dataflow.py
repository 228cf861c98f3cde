"""Kernel dataflow: what a tile body actually reads and writes, and where.

Tile bodies are plain Python functions ``body(lo, hi, arrays, scalars)``.
One pass over the body source (``inspect.getsource`` + :mod:`ast`, once per
body and loop variable) recovers their array accesses statically.  It tracks

* direct accesses — ``arrays["C"][lo*n:hi*n] = ...`` is a write of ``C``,
  ``arrays["A"][k]`` in an expression is a read of ``A``;
* aliases — ``c = arrays["C"]; row = np.asarray(c[lo:hi]); row[:] = ...``
  still writes ``C``, because NumPy pass-through constructors (``asarray``,
  ``reshape``, ``astype``, ...) keep views onto the mapped buffer;
* closure-resolved keys — factory-made tiles (``arrays[out_name]`` with
  ``out_name`` captured from an enclosing scope) resolve through
  ``inspect.getclosurevars``;
* element windows — every alias carries the slice of its array it denotes
  as :mod:`repro.core.exprs` trees, and substituting ``lo -> i`` and
  ``hi -> i+1`` (the per-iteration view of the tile contract ``[lo, hi)``)
  turns ``arrays["C"][lo*n:hi*n]`` into the per-iteration range
  ``[i*N, (i+1)*N)`` the partitioning extension wants.

The verifier reads the name sets, clause inference and the fusion planner
read the windows; both come from the same traversal, so they cannot
disagree about what a body touches.

The result is *evidence*, not proof: an access the pass observes definitely
happens, but opaque calls receiving a mapped array make the summary
incomplete (``complete=False``); the verifier then skips the checks that
reason from absence (phantom-access) and no window is reported.  Bodies
whose source is unavailable (builtins, C extensions, interactively defined
functions) yield ``source_available=False`` and the dataflow checks are
skipped entirely.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Union

from repro.core.exprs import BinOp, Expr, Neg, Num, Var

#: A per-iteration element range [lower, upper) as symbolic bounds.
Window = tuple[Expr, Expr]

#: NumPy constructors that return views (or value-preserving copies) of their
#: first argument: aliasing flows through them.
_PASSTHROUGH_FUNCS = frozenset({"asarray", "ascontiguousarray", "transpose"})
#: ndarray methods that alias (or value-preserve) the receiver.
_PASSTHROUGH_METHODS = frozenset({"reshape", "astype", "view", "ravel",
                                  "transpose"})
#: ndarray methods that only read the receiver.
_READONLY_METHODS = frozenset({
    "mean", "sum", "min", "max", "std", "var", "item", "tolist", "copy",
    "dot", "all", "any", "nonzero", "argmax", "argmin", "trace", "round",
    "clip", "take",
})
#: numpy-namespace functions that only read their array arguments (writes
#: through an ``out=`` keyword are tracked separately in ``visit_Call``).
_READONLY_NP_FUNCS = frozenset({
    "asarray", "ascontiguousarray", "abs", "outer", "triu", "tril", "dot",
    "matmul", "allclose", "sqrt", "exp", "log", "minimum", "maximum",
    "where", "sum", "mean", "sign", "count_nonzero", "float32", "float64",
    "int32", "int64", "zeros_like", "ones_like", "cross", "clip", "take",
})
#: builtins that cannot mutate an ndarray argument.
_READONLY_BUILTINS = frozenset({
    "int", "float", "bool", "len", "range", "abs", "min", "max", "sum",
    "round", "enumerate", "zip", "print", "sorted", "reversed",
})



@dataclass(frozen=True)
class BodyAccess:
    """Observed accesses of one tile body."""

    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()
    scalar_reads: frozenset[str] = frozenset()
    #: Human-readable reasons the summary may be incomplete.
    limits: tuple[str, ...] = ()
    source_available: bool = True
    #: Per-iteration window of every array in ``reads`` / ``writes``.  ``None``
    #: is the whole array for a read and an unprovable coverage for a write;
    #: every window is ``None`` when the summary is incomplete.
    read_windows: Mapping[str, Optional[Window]] = field(default_factory=dict)
    write_windows: Mapping[str, Optional[Window]] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.source_available and not self.limits


class _Unresolved:
    """Sentinel: an access whose array name could not be determined."""

    def __init__(self, reason: str) -> None:
        self.reason = reason


@dataclass(frozen=True)
class _Alias:
    """What a Python name (or subexpression) denotes in mapped-buffer terms.

    ``window is None`` means the whole array.  ``exact`` says the alias's
    element set *equals* the window (vs. merely contained in it); only exact
    windows may back an output partition.  ``indexable`` says 1-D offset
    arithmetic on subscripts is still valid (``reshape`` keeps the element
    set but changes the indexing geometry, so composition must stop).
    """

    root: str
    window: Optional[Window]
    exact: bool
    indexable: bool


def _add(a: Expr, b: Expr) -> Expr:
    """Constant-folding addition so windows print as ``i*N`` not ``(i*N+0)``."""
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.value + b.value)
    if isinstance(a, Num) and a.value == 0:
        return b
    if isinstance(b, Num) and b.value == 0:
        return a
    return BinOp("+", a, b)


class _Flow(ast.NodeVisitor):
    """The one walk over a tile body: names, limits and windows together.

    ``reads``/``writes`` map each touched array to the windows it was touched
    through (``None``: the whole array, or a write with no provable
    coverage); their keys are the name sets the verifier consumes.
    """

    def __init__(
        self,
        params: tuple[str, str, str, str],
        consts: dict[str, object],
        loop_var: str,
    ) -> None:
        lo_param, hi_param, self.arrays_param, self.scalars_param = params
        self.consts = consts  # closure/global constants for dynamic keys
        self.loop_var = Var(loop_var)
        #: python local name -> symbolic bound expression
        self.env: dict[str, Expr] = {
            lo_param: self.loop_var,
            hi_param: _add(self.loop_var, Num(1)),
        }
        self.aliases: dict[str, _Alias] = {}
        self.reads: dict[str, set[Optional[Window]]] = {}
        self.writes: dict[str, set[Optional[Window]]] = {}
        self.scalar_reads: set[str] = set()
        self.limits: list[str] = []
        self.cond_depth = 0  # inside a branch/loop: stores may not happen
        self._suppress = 0  # inside a pure alias creation: nothing is read
        self._muted = 0  # record names but no windows

    # ----------------------------------------------------------- resolution
    def _limit(self, reason: str) -> None:
        if reason not in self.limits:
            self.limits.append(reason)

    def _key_of(self, node: ast.expr) -> Union[str, _Unresolved]:
        """The string key of an ``arrays[...]``/``scalars[...]`` subscript."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                return node.value
            return _Unresolved(f"non-string array key {node.value!r}")
        if isinstance(node, ast.Name):
            value = self.consts.get(node.id)
            if isinstance(value, str):
                return value
            return _Unresolved(f"array key {node.id!r} is not a resolvable constant")
        return _Unresolved("computed array key")

    def _expr_of(self, node: ast.expr) -> Optional[Expr]:
        """Convert a Python index expression to a bound :class:`Expr`.

        Only ``+ - *`` (and unary minus / ``int()``) are accepted: Python
        floor division disagrees with the C truncating division of the
        bound language on negatives, so ``// %`` stay unconvertible.
        """
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                return None
            return Num(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            const = self.consts.get(node.id)
            if isinstance(const, int) and not isinstance(const, bool):
                return Num(const)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            left = self._expr_of(node.left)
            right = self._expr_of(node.right)
            if left is None or right is None:
                return None
            op = {"Add": "+", "Sub": "-", "Mult": "*"}[type(node.op).__name__]
            return BinOp(op, left, right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self._expr_of(node.operand)
            return None if inner is None else Neg(inner)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "int" and len(node.args) == 1 and not node.keywords):
            return self._expr_of(node.args[0])
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == self.scalars_param):
            key = self._key_of(node.slice)
            return Var(key) if isinstance(key, str) else None
        return None

    def _alias_of(self, node: ast.expr) -> Union[_Alias, _Unresolved, None]:
        """The mapped array (and the part of it) an expression aliases."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Subscript):
            if isinstance(node.value, ast.Name) and node.value.id == self.arrays_param:
                key = self._key_of(node.slice)
                return _Alias(key, None, True, True) if isinstance(key, str) else key
            base = self._alias_of(node.value)
            return self._narrow(base, node.slice) if isinstance(base, _Alias) else base
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _PASSTHROUGH_METHODS:
                inner = self._alias_of(func.value)
                if inner is None and func.attr in _PASSTHROUGH_FUNCS and node.args:
                    # ``np.transpose(a)``: the receiver is the numpy module,
                    # not an alias — the view is of the first argument.
                    inner = self._alias_of(node.args[0])
                # reshape/astype/view/ravel/transpose preserve the element set
                # but not the 1-D indexing geometry: stop window composition.
                return replace(inner, indexable=False) if isinstance(inner, _Alias) else inner
            name = (func.attr if isinstance(func, ast.Attribute)
                    else func.id if isinstance(func, ast.Name) else None)
            if name in _PASSTHROUGH_FUNCS and node.args:
                return self._alias_of(node.args[0])
        return None

    def _narrow(self, base: _Alias, slc: ast.expr) -> _Alias:
        contained = _Alias(base.root, base.window, exact=False, indexable=False)
        if not base.indexable or not base.exact:
            return contained
        lo_base = base.window[0] if base.window is not None else Num(0)
        if isinstance(slc, ast.Slice):
            if slc.step is not None:
                return contained
            if slc.lower is None:
                lo: Optional[Expr] = lo_base
            else:
                off = self._expr_of(slc.lower)
                lo = None if off is None else _add(lo_base, off)
            if slc.upper is None:
                if base.window is None:
                    # open upper bound on the whole array: still the whole
                    # array when the lower bound is 0, unknown otherwise.
                    if lo is not None and lo == Num(0):
                        return _Alias(base.root, None, exact=True, indexable=True)
                    return contained
                hi: Optional[Expr] = base.window[1]
            else:
                up = self._expr_of(slc.upper)
                hi = None if up is None else _add(lo_base, up)
            if lo is None or hi is None:
                return contained
            return _Alias(base.root, (lo, hi), exact=True, indexable=True)
        if isinstance(slc, ast.Tuple):
            return contained
        idx = self._expr_of(slc)
        if idx is None:
            return contained
        lo2 = _add(lo_base, idx)
        return _Alias(base.root, (lo2, _add(lo2, Num(1))), exact=True, indexable=True)

    # --------------------------------------------------------------- records
    def _read(self, alias: _Alias) -> None:
        windows = self.reads.setdefault(alias.root, set())
        if not self._muted:
            # Inexact aliases are still *contained* in their window, so the
            # window is a sound over-approximation for staging.
            windows.add(alias.window)

    def _write(self, alias: _Alias) -> None:
        windows = self.writes.setdefault(alias.root, set())
        if not self._muted:
            # Conditional stores, whole-array stores and stores through
            # reshaped views have no provable per-iteration coverage.
            windows.add(alias.window if alias.exact and not self.cond_depth else None)

    # ------------------------------------------------------------ statements
    def _bind(self, name: str, expr: Optional[Expr]) -> None:
        if expr is None:
            self.env.pop(name, None)
        else:
            self.env[name] = expr

    def visit_Assign(self, node: ast.Assign) -> None:
        target = node.targets[0] if len(node.targets) == 1 else None
        if isinstance(target, ast.Name):
            found = self._alias_of(node.value)
            if isinstance(found, _Alias):
                # Pure aliasing: no element is read until the alias is used.
                self.aliases[target.id] = found
                self.env.pop(target.id, None)
                self._suppress += 1
                self.visit(node.value)
                self._suppress -= 1
                return
            if isinstance(found, _Unresolved):
                self._limit(found.reason)
            self.aliases.pop(target.id, None)
            self._bind(target.id, self._expr_of(node.value))
            self.visit(node.value)
            return
        # ``n, m = int(scalars["N"]), 4`` binds each name like ``n = ...``;
        # the right-hand side is evaluated under the old bindings.
        bound: list[Optional[Expr]] = []
        if (isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                and len(target.elts) == len(node.value.elts)):
            bound = [self._expr_of(value) for value in node.value.elts]
        self.visit(node.value)
        for tgt in node.targets:
            self._store(tgt)
        if isinstance(target, ast.Tuple):
            for elt, expr in zip(target.elts, bound):
                if isinstance(elt, ast.Name):
                    self._bind(elt.id, expr)

    def _store(self, target: ast.expr) -> None:
        if isinstance(target, ast.Subscript):
            base = self._alias_of(target.value)
            if isinstance(base, _Alias):
                self._write(self._narrow(base, target.slice))
            elif isinstance(base, _Unresolved):
                self._limit(base.reason)
            elif (isinstance(target.value, ast.Name)
                  and target.value.id == self.arrays_param):
                self._limit("store through a computed arrays[...] key")
            self.visit(target.slice)
        elif isinstance(target, ast.Name):
            self.aliases.pop(target.id, None)
            self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt)
        elif isinstance(target, ast.Starred):
            self._store(target.value)
        elif isinstance(target, ast.Attribute):
            base = self._alias_of(target.value)
            if isinstance(base, _Alias):
                self._limit(f"attribute store on mapped array {base.root!r}")
            self.visit(target.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        target = node.target
        updated: Union[_Alias, _Unresolved, None] = None
        if isinstance(target, ast.Subscript):
            updated = self._alias_of(target.value)
            if isinstance(updated, _Alias):
                updated = self._narrow(updated, target.slice)
            self.visit(target.slice)
        elif isinstance(target, ast.Name):
            # In-place update through a view writes the mapped buffer.
            updated = self.aliases.get(target.id)
            if updated is None:
                self.env.pop(target.id, None)
        if isinstance(updated, _Alias):
            self._read(updated)
            self._write(updated)
        elif isinstance(updated, _Unresolved):
            self._limit(updated.reason)

    def _singleton_range(self, iter_node: ast.expr) -> bool:
        """``range(lo, hi)`` over the tile bounds: exactly one value per
        region iteration, namely the loop variable itself."""
        if not (isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name)
                and iter_node.func.id == "range" and len(iter_node.args) == 2
                and not iter_node.keywords):
            return False
        lo = self._expr_of(iter_node.args[0])
        hi = self._expr_of(iter_node.args[1])
        return lo == self.loop_var and hi == _add(self.loop_var, Num(1))

    def visit_For(self, node: ast.For) -> None:
        self.visit(node.iter)
        once = isinstance(node.target, ast.Name) and self._singleton_range(node.iter)
        self._store(node.target)
        if once and isinstance(node.target, ast.Name):
            self.env[node.target.id] = self.loop_var
        depth = 0 if once else 1
        self.cond_depth += depth
        for stmt in node.body + node.orelse:
            self.visit(stmt)
        self.cond_depth -= depth

    def _static_branch(self, test: ast.expr) -> Optional[bool]:
        """Decide ``if <closure-const> is (not) None`` guards statically, so
        factory-made kernels keep exact coverage."""
        if (isinstance(test, ast.Compare) and isinstance(test.left, ast.Name)
                and len(test.ops) == 1 and len(test.comparators) == 1
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
                and test.left.id in self.consts):
            value = self.consts[test.left.id]
            if isinstance(test.ops[0], ast.Is):
                return value is None
            if isinstance(test.ops[0], ast.IsNot):
                return value is not None
        return None

    def visit_If(self, node: ast.If) -> None:
        live = self._static_branch(node.test)
        if live is None:
            self._conditional(node)
            return
        self.visit(node.test)
        for arm, taken in ((node.body, live), (node.orelse, not live)):
            if taken:
                for stmt in arm:
                    self.visit(stmt)
                continue
            # The dead arm still names what the factory's other products
            # touch, but none of it happens here: no window, no binding.
            saved = dict(self.aliases), dict(self.env)
            self._muted += 1
            for stmt in arm:
                self.visit(stmt)
            self._muted -= 1
            self.aliases, self.env = saved

    def _conditional(self, node: ast.AST) -> None:
        self.cond_depth += 1
        self.generic_visit(node)
        self.cond_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._conditional(node)

    def visit_Try(self, node: ast.Try) -> None:
        self._conditional(node)

    # ----------------------------------------------------------- expressions
    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        alias = self.aliases.get(node.id)
        if alias is not None:
            if not self._suppress:
                self._read(alias)
        elif node.id == self.arrays_param:
            # The whole dict escaping (e.g. helper(arrays)) defeats analysis.
            self._limit("the arrays mapping is used opaquely")

    def visit_Subscript(self, node: ast.Subscript) -> None:
        base = node.value
        if isinstance(base, ast.Name) and base.id == self.scalars_param:
            key = self._key_of(node.slice)
            if isinstance(key, str):
                self.scalar_reads.add(key)
            self.visit(node.slice)
            return
        found = self._alias_of(node) if isinstance(node.ctx, ast.Load) else None
        if found is None:
            self.generic_visit(node)
            return
        if not self._suppress:
            if isinstance(found, _Alias):
                self._read(found)
            else:
                self._limit(found.reason)
        self.visit(node.slice)
        if not isinstance(base, ast.Name):
            # The access is recorded with its full window above; what the
            # chain beneath evaluates on the way contributes names only.
            self._muted += 1
            self.visit(base)
            self._muted -= 1

    def visit_Call(self, node: ast.Call) -> None:
        # ufunc-style ``out=``: the result lands in the mapped buffer even
        # when the function itself is in a read-only table; the window is the
        # alias's own (``np.clip(a, 0, 1, out=c[lo:hi])``).
        for kw in node.keywords:
            if kw.arg == "out":
                found = self._alias_of(kw.value)
                if isinstance(found, _Alias):
                    self._write(found)
        func = node.func
        opaque: Optional[str] = None
        if isinstance(func, ast.Attribute):
            if func.attr not in (_PASSTHROUGH_METHODS | _READONLY_METHODS
                                 | _READONLY_NP_FUNCS | _PASSTHROUGH_FUNCS):
                opaque = func.attr
        elif isinstance(func, ast.Name):
            if func.id not in (_READONLY_BUILTINS | _PASSTHROUGH_FUNCS):
                opaque = func.id
        else:
            opaque = "<computed function>"
        if opaque is not None:
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                found = self._alias_of(arg)
                if isinstance(found, _Alias):
                    # The callee sees the buffer: definitely a read, possibly
                    # a write we cannot see.
                    self._read(found)
                    self._limit(
                        f"mapped array {found.root!r} passed to opaque call {opaque}()"
                    )
        self.generic_visit(node)


def _param_names(fn: Callable[..., object]) -> tuple[str, str, str, str]:
    """The body's names for ``(lo, hi, arrays, scalars)``."""
    try:
        params = list(inspect.signature(fn).parameters)[:4]
    except (TypeError, ValueError):
        params = []
    lo, hi, arrays, scalars = params + ["lo", "hi", "arrays", "scalars"][len(params):]
    return lo, hi, arrays, scalars


def _constants_of(fn: Callable[..., object]) -> dict[str, object]:
    try:
        cv = inspect.getclosurevars(fn)
    except TypeError:
        return {}
    consts: dict[str, object] = dict(cv.globals)
    consts.update(cv.nonlocals)
    return consts


def _windows(touched: dict[str, set[Optional[Window]]],
             complete: bool) -> Mapping[str, Optional[Window]]:
    """One window per array, or ``None``: nothing is claimed about an array
    touched through several windows, or when the summary is incomplete.
    Read-only, because every caller shares the cached summary."""
    return MappingProxyType({
        name: next(iter(windows)) if complete and len(windows) == 1 else None
        for name, windows in sorted(touched.items())
    })


@lru_cache(maxsize=256)
def analyze_body(fn: Callable[..., object], loop_var: str) -> BodyAccess:
    """Statically summarize the array accesses of one tile body, windows
    expressed over ``loop_var``.  Parsed once per (body, loop variable)."""
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return BodyAccess(
            source_available=False,
            limits=("kernel body source is unavailable",),
        )
    statements = next((node.body for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))), None)
    if statements is None:
        return BodyAccess(
            source_available=False,
            limits=("kernel body is not a plain function definition",),
        )
    flow = _Flow(_param_names(fn), _constants_of(fn), loop_var)
    for stmt in statements:
        flow.visit(stmt)
    complete = not flow.limits
    return BodyAccess(
        reads=frozenset(flow.reads),
        writes=frozenset(flow.writes),
        scalar_reads=frozenset(flow.scalar_reads),
        limits=tuple(flow.limits),
        read_windows=_windows(flow.reads, complete),
        write_windows=_windows(flow.writes, complete),
    )
