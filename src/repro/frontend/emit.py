"""Lowering the typed AST to Thorin.

Follows the paper's construction scheme:

* every function becomes a continuation ``fn(mem, params..., ret)``
  where ``ret`` is ``fn(mem)`` or ``fn(mem, R)``;
* control flow becomes jumps: ``if`` branches through the ``branch``
  intrinsic into fresh single-predecessor target blocks, loops become
  join blocks whose parameters are the loop-carried variables,
  function calls pass a freshly created return continuation;
* mutable scalar variables (and the memory token itself) are handled by
  the on-the-fly SSA construction in :mod:`repro.frontend.builder` — no
  stack slots, no later mem2reg needed;
* mutable aggregates live in stack slots (``enter``/``slot``) accessed
  via ``lea``/``load``/``store``;
* lambdas close over enclosing immutable bindings *by value* at their
  creation point: the lambda's body simply references the captured defs
  across function boundaries — exactly the graph-IR nesting story the
  paper tells (the scope of the enclosing function grows to include the
  lambda); closure elimination later makes it disappear.
"""

from __future__ import annotations

from ..core import types as ct
from ..core.defs import Continuation, Def
from ..core.primops import ArithKind, CmpRel, MathKind
from ..core.world import World
from . import ast
from .builder import SSABuilder
from .errors import CompileError
from .sema import BuiltinDecl, _MATH_BUILTINS

_ARITH_OPS = {
    "+": ArithKind.ADD, "-": ArithKind.SUB, "*": ArithKind.MUL,
    "/": ArithKind.DIV, "%": ArithKind.REM, "&": ArithKind.AND,
    "|": ArithKind.OR, "^": ArithKind.XOR, "<<": ArithKind.SHL,
    ">>": ArithKind.SHR,
}

_CMP_OPS = {
    "==": CmpRel.EQ, "!=": CmpRel.NE, "<": CmpRel.LT,
    "<=": CmpRel.LE, ">": CmpRel.GT, ">=": CmpRel.GE,
}

_MATH_KINDS = {name: MathKind(name) for name in _MATH_BUILTINS}


class ModuleEmitter:
    """Lowers a type-checked module into a world."""

    def __init__(self, module: ast.Module, world: World):
        self.module = module
        self.world = world
        self.fn_conts: dict[ast.FnDecl, Continuation] = {}

    def run(self) -> World:
        for fn in self.module.functions:
            cont = self.world.continuation(fn.type, fn.name)
            self.fn_conts[fn] = cont
            if fn.is_extern:
                self.world.make_external(cont)
        for fn in self.module.functions:
            FnEmitter(self, fn, self.fn_conts[fn], {}).run()
        return self.world


class _LoopContext:
    def __init__(self, continue_target: Continuation,
                 break_target: Continuation):
        self.continue_target = continue_target
        self.break_target = break_target


class FnEmitter:
    """Lowers one function (or lambda) body."""

    def __init__(self, module: ModuleEmitter, decl, cont: Continuation,
                 captured: dict[object, Def]):
        self.module = module
        self.world = module.world
        self.decl = decl  # ast.FnDecl | ast.Lambda
        self.cont = cont
        self.captured = captured
        self.b = SSABuilder(self.world, cont)
        self.ret_param = cont.params[-1]
        self.ret_type = decl.ret_type
        self.slots: dict[ast.LetStmt, Def] = {}
        self.frame: Def | None = None
        self.loops: list[_LoopContext] = []

    # ------------------------------------------------------------------

    def run(self) -> None:
        b = self.b
        b.write_mem(self.cont.params[0])
        for ast_param, ir_param in zip(self.decl.params, self.cont.params[1:]):
            ir_param.name = ast_param.name
            b.write(ast_param, ir_param)
        value = self.emit_block(self.decl.body)
        if b.reachable:
            self._emit_return(value, self.decl.body.loc)

    def _jump(self, block, callee: Def, args) -> None:
        """Emit a jump with all operands resolved through the builder.

        Values held across ``read`` calls may have been dissolved by a
        trivial-phi cascade in the meantime; resolving here keeps every
        emitted jump pointing at live defs.
        """
        b = self.b
        self.world.jump(block, b.resolve(callee),
                        [b.resolve(a) for a in args])

    def _emit_return(self, value: Def | None, loc) -> None:
        b = self.b
        mem = b.read_mem()
        if self.ret_type is None:
            self._jump(b.cur, self.ret_param, (mem,))
        else:
            if value is None:
                raise CompileError("missing return value", loc)
            self._jump(b.cur, self.ret_param, (mem, value))
        b.unreachable()

    def _ensure_frame(self) -> Def:
        if self.frame is None:
            b = self.b
            mem, frame = self.world.enter(b.read_mem())
            b.write_mem(mem)
            self.frame = frame
        return self.frame

    # ------------------------------------------------------------------
    # blocks & statements
    # ------------------------------------------------------------------

    def emit_block(self, block: ast.Block) -> Def | None:
        for stmt in block.stmts:
            if not self.b.reachable:
                return None  # dead code after return/break/continue
            self.emit_stmt(stmt)
        if block.result is not None and self.b.reachable:
            return self.emit_expr(block.result)
        return None

    def emit_stmt(self, stmt: ast.Stmt) -> None:
        b = self.b
        if isinstance(stmt, ast.LetStmt):
            value = self.emit_expr(stmt.init)
            if stmt.is_slot:
                frame = self._ensure_frame()
                ptr = self.world.slot(stmt.var_type, frame, stmt.name)
                self.slots[stmt] = ptr
                b.write_mem(self.world.store(b.read_mem(), ptr, value))
            else:
                b.write(stmt, value)
            return
        if isinstance(stmt, ast.AssignStmt):
            self._emit_assign(stmt)
            return
        if isinstance(stmt, ast.ExprStmt):
            self.emit_expr(stmt.expr)
            return
        if isinstance(stmt, ast.WhileStmt):
            self._emit_while(stmt)
            return
        if isinstance(stmt, ast.ForStmt):
            self._emit_for(stmt)
            return
        if isinstance(stmt, ast.BreakStmt):
            b.jump_to(self.loops[-1].break_target)
            return
        if isinstance(stmt, ast.ContinueStmt):
            b.jump_to(self.loops[-1].continue_target)
            return
        if isinstance(stmt, ast.ReturnStmt):
            value = self.emit_expr(stmt.value) if stmt.value is not None else None
            self._emit_return(value, stmt.loc)
            return
        raise AssertionError(f"unhandled stmt {stmt!r}")

    def _emit_assign(self, stmt: ast.AssignStmt) -> None:
        b = self.b
        target = stmt.target
        if isinstance(target, ast.Name):
            decl = target.decl
            assert isinstance(decl, ast.LetStmt)
            if decl.is_slot:
                ptr = self.slots[decl]
                new = self._assigned_value(
                    stmt, lambda: self._load(ptr), decl.var_type)
                b.write_mem(self.world.store(b.read_mem(), ptr, new))
            else:
                new = self._assigned_value(
                    stmt, lambda: b.read(decl, decl.var_type), decl.var_type)
                b.write(decl, new)
            return
        assert isinstance(target, ast.Index)
        ptr = self._emit_index_ptr(target)
        if ptr is not None:
            new = self._assigned_value(stmt, lambda: self._load(ptr),
                                       target.type)
            b.write_mem(self.world.store(b.read_mem(), ptr, new))
            return
        raise CompileError("cannot assign through an immutable aggregate",
                           target.loc)

    def _assigned_value(self, stmt: ast.AssignStmt, read_old, t) -> Def:
        if stmt.op is None:
            return self.emit_expr(stmt.value)
        old = read_old()
        rhs = self.emit_expr(stmt.value)
        return self.world.arithop(_ARITH_OPS[stmt.op], old, rhs)

    def _emit_while(self, stmt: ast.WhileStmt) -> None:
        b = self.b
        head = b.new_block("while_head",
                           carried=_assigned(stmt.cond, stmt.body))
        b.jump_to(head)
        b.enter(head)
        cond = self.emit_expr(stmt.cond)
        caller = b.cur
        mem = b.read_mem()
        body_t = b.new_branch_target("while_body", caller)
        exit_t = b.new_branch_target("while_exit", caller)
        self._jump(caller, self.world.branch(), (mem, cond, body_t, exit_t))
        b.unreachable()
        exit_join = b.new_block("while_join")
        self.loops.append(_LoopContext(head, exit_join))
        b.enter(body_t)
        self.emit_block(stmt.body)
        if b.reachable:
            b.jump_to(head)
        b.seal(head)
        self.loops.pop()
        b.enter(exit_t)
        b.jump_to(exit_join)
        b.seal(exit_join)
        b.enter(exit_join)

    def _emit_for(self, stmt: ast.ForStmt) -> None:
        b = self.b
        start = self.emit_expr(stmt.start)
        end = self.emit_expr(stmt.end)
        b.write(stmt, start)
        head = b.new_block("for_head", carried=_assigned(stmt.body) | {stmt})
        b.jump_to(head)
        b.enter(head)
        i = b.read(stmt, stmt.var_type)
        cond = self.world.lt(i, end)
        caller = b.cur
        mem = b.read_mem()
        body_t = b.new_branch_target("for_body", caller)
        exit_t = b.new_branch_target("for_exit", caller)
        self._jump(caller, self.world.branch(), (mem, cond, body_t, exit_t))
        b.unreachable()
        exit_join = b.new_block("for_join")
        incr = b.new_block("for_incr")
        self.loops.append(_LoopContext(incr, exit_join))
        b.enter(body_t)
        self.emit_block(stmt.body)
        if b.reachable:
            b.jump_to(incr)
        b.seal(incr)
        self.loops.pop()
        b.enter(incr)
        next_i = self.world.add(b.read(stmt, stmt.var_type),
                                self.world.one(stmt.var_type))
        b.write(stmt, next_i)
        b.jump_to(head)
        b.seal(head)
        b.enter(exit_t)
        b.jump_to(exit_join)
        b.seal(exit_join)
        b.enter(exit_join)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def emit_expr(self, expr: ast.Expr) -> Def | None:
        b = self.b
        w = self.world
        if isinstance(expr, ast.IntLit):
            return w.literal(expr.type, expr.value)
        if isinstance(expr, ast.FloatLit):
            return w.literal(expr.type, expr.value)
        if isinstance(expr, ast.BoolLit):
            return w.lit_bool(expr.value)
        if isinstance(expr, ast.UnitLit):
            return None
        if isinstance(expr, ast.Name):
            return self._emit_name(expr)
        if isinstance(expr, ast.Block):
            return self.emit_block(expr)
        if isinstance(expr, ast.TupleLit):
            return w.tuple_([self.emit_expr(e) for e in expr.elems])
        if isinstance(expr, ast.ArrayLit):
            return self._emit_array_lit(expr)
        if isinstance(expr, ast.Unary):
            operand = self.emit_expr(expr.operand)
            if expr.op == "!":
                t = operand.type
                assert isinstance(t, ct.PrimType)
                if t.is_bool:
                    return w.not_(operand)
                all_ones = w.literal(t, (1 << t.bitwidth) - 1)
                return w.xor(operand, all_ones)
            return w.neg(operand)
        if isinstance(expr, ast.Binary):
            return self._emit_binary(expr)
        if isinstance(expr, ast.CastExpr):
            return w.cast(expr.type, self.emit_expr(expr.value))
        if isinstance(expr, ast.IfExpr):
            return self._emit_if(expr)
        if isinstance(expr, ast.Call):
            return self._emit_call(expr)
        if isinstance(expr, ast.Index):
            ptr = self._emit_index_ptr(expr)
            if ptr is not None:
                return self._load(ptr)
            base = self.emit_expr(expr.base)
            index = w.cast(ct.I64, self.emit_expr(expr.index))
            return w.extract(base, index)
        if isinstance(expr, ast.TupleField):
            return w.extract(self.emit_expr(expr.base), expr.field)
        if isinstance(expr, ast.Lambda):
            return self._emit_lambda(expr)
        raise AssertionError(f"unhandled expr {expr!r}")

    def _emit_name(self, expr: ast.Name) -> Def:
        decl = expr.decl
        if isinstance(decl, ast.FnDecl):
            return self.module.fn_conts[decl]
        if decl in self.captured:
            return self.captured[decl]
        if isinstance(decl, ast.LetStmt):
            if decl.is_slot:
                return self._load(self.slots[decl])
            return self.b.read(decl, decl.var_type)
        if isinstance(decl, ast.ParamDecl):
            return self.b.read(decl, decl.type)
        if isinstance(decl, ast.ForStmt):
            return self.b.read(decl, decl.var_type)
        raise AssertionError(f"unhandled name decl {decl!r}")

    def _emit_array_lit(self, expr: ast.ArrayLit) -> Def:
        t = expr.type
        assert isinstance(t, ct.DefiniteArrayType)
        if expr.repeat is not None:
            value = self.emit_expr(expr.repeat)
            return self.world.definite_array(t.elem_type,
                                             [value] * expr.count)
        return self.world.definite_array(
            t.elem_type, [self.emit_expr(e) for e in expr.elems]
        )

    def _emit_binary(self, expr: ast.Binary) -> Def:
        w = self.world
        if expr.op in ("&&", "||"):
            return self._emit_shortcut(expr)
        lhs = self.emit_expr(expr.lhs)
        rhs = self.emit_expr(expr.rhs)
        if expr.op in _CMP_OPS:
            return w.cmp(_CMP_OPS[expr.op], lhs, rhs)
        return w.arithop(_ARITH_OPS[expr.op], lhs, rhs)

    def _emit_shortcut(self, expr: ast.Binary) -> Def:
        """``a && b`` / ``a || b`` via branching (b may have effects)."""
        b = self.b
        w = self.world
        cond = self.emit_expr(expr.lhs)
        caller = b.cur
        mem = b.read_mem()
        rhs_t = b.new_branch_target("shortcut_rhs", caller)
        skip_t = b.new_branch_target("shortcut_skip", caller)
        if expr.op == "&&":
            self._jump(caller, w.branch(), (mem, cond, rhs_t, skip_t))
            skip_value = w.false_()
        else:
            self._jump(caller, w.branch(), (mem, cond, skip_t, rhs_t))
            skip_value = w.true_()
        b.unreachable()
        join = b.new_block("shortcut_join")
        b.enter(rhs_t)
        rhs = self.emit_expr(expr.rhs)
        if b.reachable:
            b.write(expr, rhs)
            b.jump_to(join)
        b.enter(skip_t)
        b.write(expr, skip_value)
        b.jump_to(join)
        b.seal(join)
        b.enter(join)
        return b.read(expr, ct.BOOL)

    def _emit_if(self, expr: ast.IfExpr) -> Def | None:
        b = self.b
        w = self.world
        cond = self.emit_expr(expr.cond)
        caller = b.cur
        mem = b.read_mem()
        then_t = b.new_branch_target("if_then", caller)
        else_t = b.new_branch_target("if_else", caller)
        self._jump(caller, w.branch(), (mem, cond, then_t, else_t))
        b.unreachable()
        join = b.new_block("if_join")
        has_value = expr.type is not None

        b.enter(then_t)
        value = self.emit_block(expr.then_block)
        if b.reachable:
            if has_value:
                b.write(expr, value)
            b.jump_to(join)

        b.enter(else_t)
        if expr.else_block is not None:
            if isinstance(expr.else_block, ast.IfExpr):
                value = self._emit_if(expr.else_block)
            else:
                value = self.emit_block(expr.else_block)
        else:
            value = None
        if b.reachable:
            if has_value:
                b.write(expr, value)
            b.jump_to(join)

        b.seal(join)
        b.enter(join)
        if has_value:
            return b.read(expr, expr.type)
        return None

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _emit_call(self, expr: ast.Call) -> Def | None:
        w = self.world
        b = self.b
        callee = expr.callee
        if isinstance(callee, ast.Name) and isinstance(callee.decl, BuiltinDecl):
            return self._emit_builtin_call(expr, callee.decl)
        callee_val = self.emit_expr(callee)
        args = [self.emit_expr(a) for a in expr.args]
        if expr.pe_mode == "run":
            callee_val = w.run(callee_val)
        elif expr.pe_mode == "hlt":
            callee_val = w.hlt(callee_val)
        if expr.type is None:
            ret_cont = w.continuation(ct.fn_type((ct.MEM,)), "ret")
        else:
            ret_cont = w.continuation(ct.fn_type((ct.MEM, expr.type)), "ret")
        caller = b.cur
        mem = b.read_mem()
        self._jump(caller, callee_val, (mem, *args, ret_cont))
        b.adopt_call_return(ret_cont, caller)
        b.enter(ret_cont)
        if expr.type is None:
            return None
        value = ret_cont.params[1]
        value.name = "res"
        return value

    def _emit_builtin_call(self, expr: ast.Call, decl: BuiltinDecl) -> Def | None:
        w = self.world
        b = self.b
        if decl.name in _MATH_KINDS:
            return w.mathop(_MATH_KINDS[decl.name], self.emit_expr(expr.args[0]))
        if decl.name.startswith("new_buf_"):
            count = self.emit_expr(expr.args[0])
            ret_t = decl.ret_type
            assert isinstance(ret_t, ct.PtrType)
            mem, ptr = w.alloc(b.read_mem(), ret_t.pointee, count)
            b.write_mem(mem)
            return ptr
        if decl.name.startswith("print_"):
            value = self.emit_expr(expr.args[0])
            intrinsic = {
                "print_i64": w.print_i64,
                "print_f64": w.print_f64,
                "print_char": w.print_char,
            }[decl.name]()
            ret_cont = w.continuation(ct.fn_type((ct.MEM,)), "ret")
            caller = b.cur
            mem = b.read_mem()
            self._jump(caller, intrinsic, (mem, value, ret_cont))
            b.adopt_call_return(ret_cont, caller)
            b.enter(ret_cont)
            return None
        raise AssertionError(f"unhandled builtin {decl.name}")

    # ------------------------------------------------------------------
    # memory access
    # ------------------------------------------------------------------

    def _load(self, ptr: Def) -> Def:
        mem, value = self.world.load(self.b.read_mem(), ptr)
        self.b.write_mem(mem)
        return value

    def _emit_index_ptr(self, expr: ast.Index) -> Def | None:
        """Pointer for ``base[i]`` when the base is addressable, else None."""
        w = self.world
        base = expr.base
        base_t = base.type
        if isinstance(base_t, ct.PtrType):
            ptr = self.emit_expr(base)
            index = w.cast(ct.I64, self.emit_expr(expr.index))
            return w.lea(ptr, index)
        if (isinstance(base, ast.Name) and isinstance(base.decl, ast.LetStmt)
                and base.decl.is_slot):
            ptr = self.slots[base.decl]
            index = w.cast(ct.I64, self.emit_expr(expr.index))
            return w.lea(ptr, index)
        return None

    # ------------------------------------------------------------------
    # lambdas
    # ------------------------------------------------------------------

    def _emit_lambda(self, expr: ast.Lambda) -> Def:
        captured: dict[object, Def] = {}
        for decl in _free_decls(expr):
            if isinstance(decl, ast.FnDecl):
                continue  # global, resolved directly
            if decl in self.captured:
                captured[decl] = self.captured[decl]
            elif isinstance(decl, ast.LetStmt):
                captured[decl] = self.b.read(decl, decl.var_type)
            elif isinstance(decl, ast.ParamDecl):
                captured[decl] = self.b.read(decl, decl.type)
            elif isinstance(decl, ast.ForStmt):
                captured[decl] = self.b.read(decl, decl.var_type)
        cont = self.world.continuation(expr.fn_type, "lambda")
        FnEmitter(self.module, expr, cont, captured).run()
        return cont


def _assigned(*nodes: ast.Node) -> set[object]:
    """Declarations of the variables assigned anywhere in *nodes*."""
    assigned = set()
    for node in nodes:
        for child in ast.walk(node):
            if (isinstance(child, ast.AssignStmt)
                    and isinstance(child.target, ast.Name)):
                assigned.add(child.target.decl)
    return assigned


def _free_decls(lam: ast.Lambda) -> list[object]:
    """Declarations referenced by the lambda body but defined outside it."""
    local: set[object] = set(lam.params)
    for node in ast.walk(lam.body):
        if isinstance(node, (ast.LetStmt, ast.ForStmt)):
            local.add(node)
        elif isinstance(node, ast.Lambda):
            local.update(node.params)
    free: dict[object, None] = {}
    for node in ast.walk(lam.body):
        if isinstance(node, ast.Name) and node.decl is not None:
            if node.decl not in local and not isinstance(
                node.decl, (BuiltinDecl, ast.FnDecl)
            ):
                free.setdefault(node.decl, None)
    return list(free)


def emit_module(module: ast.Module, world: World) -> World:
    return ModuleEmitter(module, world).run()
