"""Host lowering: the ``lowered`` / ``hoisted`` attributes.

Lowering maps the decorated extended tree to a *plain C* host tree:

* Expressions define ``lowpair = (hoisted_stmts, lowered_expr)``.  Most
  host expressions rebuild themselves and concatenate children's hoisted
  statements; extension constructs override ``lowpair`` to hoist loop
  nests (a with-loop in expression position becomes loops + a temp var).
* Statements define ``lowered``; when their expressions hoisted anything,
  the result is a ``seqStmt`` so no C scope is introduced.
* Extension *type* and *operator* lowerings dispatch through
  ``ctx.overloads`` — the same table used by type checking.

The refcount extension contributes the ownership bookkeeping via the
hooks ``ctx.rc`` (see repro.exts.refcount); when disabled those hooks are
no-ops and the generated C simply leaks (the ablation baseline).
"""

from __future__ import annotations

from typing import Any

from repro.ag.eval import DecoratedNode
from repro.ag.tree import Node
from repro.cminus.grammar import HOST_AG, mk
from repro.cminus.types import is_error

ag = HOST_AG

EXPR_NTS = {"Expr", "ExprList", "Index", "IndexList"}


class LoweringError(Exception):
    pass


def _expr_list_children(dn: DecoratedNode) -> list[DecoratedNode]:
    out = []
    while len(dn.node.children) == 2:
        out.append(dn.child(0))
        dn = dn.child(1)
    return out


def _is_expr_child(dn: Any) -> bool:
    return (
        isinstance(dn, DecoratedNode)
        and dn.prod in dn.spec.productions
        and dn.spec.productions[dn.prod].lhs in EXPR_NTS
    )


def lowpair_default(n: DecoratedNode) -> tuple[list[Node], Node]:
    """Rebuild this expression from lowered children, concatenating their
    hoisted statements left-to-right (C evaluation order)."""
    hoisted: list[Node] = []
    kids: list[Any] = []
    for i in range(len(n.node.children)):
        c = n.child(i)
        if _is_expr_child(c):
            hs, low = c.att("lowpair")
            hoisted.extend(hs)
            kids.append(low)
        elif isinstance(c, DecoratedNode):
            kids.append(c.att("lowered"))
        else:
            kids.append(c)
    return hoisted, Node(n.prod, kids, n.span)


def lowered_expr(n: DecoratedNode) -> Node:
    return n.att("lowpair")[1]


def wrap_hoisted(stmt: Node, hoisted: list[Node]) -> Node:
    if not hoisted:
        return stmt
    return mk.seqStmt(mk.stmt_list(list(hoisted) + [stmt]))


def finish_stmt(n: DecoratedNode, stmt: Node, hoisted: list[Node]) -> Node:
    """Attach hoisted statements and drain per-statement owned temporaries
    (refcount hook) around a lowered statement."""
    rc = getattr(n.inh("ctx"), "rc", None)
    trailing = rc.drain_stmt_temps() if rc is not None else []
    if trailing:
        return mk.seqStmt(mk.stmt_list(list(hoisted) + [stmt] + trailing))
    return wrap_hoisted(stmt, hoisted)


def rebuild_stmt_default(n: DecoratedNode) -> Node:
    """Default statement lowering: rebuild, hoisting expression statements."""
    hoisted: list[Node] = []
    kids: list[Any] = []
    for i in range(len(n.node.children)):
        c = n.child(i)
        if _is_expr_child(c):
            hs, low = c.att("lowpair")
            hoisted.extend(hs)
            kids.append(low)
        elif isinstance(c, DecoratedNode):
            kids.append(c.att("lowered"))
        else:
            kids.append(c)
    return finish_stmt(n, Node(n.prod, kids, n.span), hoisted)


def rebuild_generic(n: DecoratedNode) -> Node:
    """Default for non-expression nonterminals: rebuild from lowered kids."""
    kids: list[Any] = []
    for i in range(len(n.node.children)):
        c = n.child(i)
        kids.append(c.att("lowered") if isinstance(c, DecoratedNode) else c)
    return Node(n.prod, kids, n.span)


def install() -> None:
    ag.synthesized("lowered", on=[
        "Root", "TU", "ExtDecl", "Params", "Param", "StmtList", "Stmt",
        "ForInit", "Expr", "ExprList", "IndexList", "Index", "TypeExpr",
        "TypeList",
    ])
    ag.synthesized("lowpair", on=["Expr", "ExprList", "IndexList", "Index"])
    def lowered_default(n: DecoratedNode) -> Node:
        # Expression nonterminals project their lowpair (so hoisting works
        # for extension productions composed in later); everything else
        # rebuilds from lowered children.
        decl = n.spec.productions.get(n.prod)
        if decl is not None and decl.lhs in EXPR_NTS:
            return n.att("lowpair")[1]
        return rebuild_generic(n)

    ag.default("lowered", lowered_default)
    ag.default("lowpair", lowpair_default)

    eq = ag.equation

    # -- operator lowerings dispatch through overloads when non-scalar ----------
    def binop_lowpair(n: DecoratedNode):
        ctx = n.inh("ctx")
        if not is_error(n.att("typerep")):
            special = ctx.overloads.resolve_lowering("binop", n)
            if special is not None:
                return special
        return lowpair_default(n)

    eq("binop", "lowpair", binop_lowpair)

    def generic_overload_lowpair(kind: str):
        def fn(n: DecoratedNode):
            ctx = n.inh("ctx")
            special = ctx.overloads.resolve_lowering(kind, n)
            if special is not None:
                return special
            return lowpair_default(n)
        return fn

    eq("unop", "lowpair", generic_overload_lowpair("unop"))
    eq("index", "lowpair", generic_overload_lowpair("index"))
    eq("rangeE", "lowpair", generic_overload_lowpair("range"))
    eq("assign", "lowpair", generic_overload_lowpair("assign"))
    eq("call", "lowpair", generic_overload_lowpair("call"))
    eq("castE", "lowpair", generic_overload_lowpair("cast"))

    # -- tuples (host-packaged, §VI-A) -------------------------------------------
    def tuple_lowpair(n: DecoratedNode):
        from repro.codegen.ctypemap import tuple_struct

        ctx = n.inh("ctx")
        struct = tuple_struct(n.att("typerep"), ctx)
        hoisted: list[Node] = []
        args: list[Node] = []
        rc = getattr(ctx, "rc", None)
        for e in _expr_list_children(n.child(0)):
            hs, low = e.att("lowpair")
            hoisted.extend(hs)
            # The tuple owns its managed components: an owned temporary's
            # reference moves into the tuple; a bare (borrowed) variable
            # gains a reference.
            if rc is not None and rc.is_managed(e.att("typerep")) and low.prod == "var":
                name = low.children[0]
                if name in rc.stmt_temps:
                    rc.forget_temp(name)
                else:
                    hoisted.append(rc.inc_stmt(low))
            args.append(low)
        return hoisted, mk.call(f"__tuple_{struct}", mk.expr_list(args))

    eq("tupleE", "lowpair", tuple_lowpair)

    def ttuple_lowered(n: DecoratedNode):
        from repro.codegen.ctypemap import tuple_struct

        return mk.tRaw(tuple_struct(n.att("typerep"), n.inh("ctx")))

    eq("tTuple", "lowered", ttuple_lowered)

    def end_lowpair(n: DecoratedNode):
        # `end` must have been substituted by the indexing lowering; if one
        # survives, the program used it somewhere unsupported.
        raise LoweringError(
            f"{n.span.start}: 'end' survived to lowering — used outside a "
            f"matrix index"
        )

    eq("endE", "lowpair", end_lowpair)

    # -- statements ------------------------------------------------------------
    def decl_lowered(n: DecoratedNode):
        t = n.child(0).att("typerep")
        if getattr(t, "managed", False):
            # Managed locals start as NULL so scope-exit decrements are
            # safe even on paths that never assigned them.
            return Node(
                "declInit",
                [n.child(0).att("lowered"), n.node.children[1], mk.rawExpr("NULL")],
                n.span,
            )
        return rebuild_stmt_default(n)

    eq("decl", "lowered", decl_lowered)

    def declinit_lowered(n: DecoratedNode):
        ctx = n.inh("ctx")
        special = ctx.overloads.resolve_lowering("declInit", n)
        if special is not None:
            return special
        return rebuild_stmt_default(n)

    eq("declInit", "lowered", declinit_lowered)

    def exprstmt_lowered(n: DecoratedNode):
        ctx = n.inh("ctx")
        inner = n.child(0)
        if inner.prod == "assign" and inner.node.children[0].prod == "tupleE":
            return lower_destructuring(n, inner)
        special = ctx.overloads.resolve_lowering("exprStmt", n)
        if special is not None:
            return special
        return rebuild_stmt_default(n)

    eq("exprStmt", "lowered", exprstmt_lowered)

    def lower_destructuring(n: DecoratedNode, asg: DecoratedNode) -> Node:
        """(a, b, c) = f(...)  →  T __t = f(...); a = __t.f0; ... """
        from repro.codegen.ctypemap import tuple_struct

        ctx = n.inh("ctx")
        rc = getattr(ctx, "rc", None)
        rhs = asg.child(1)
        hs, rhs_low = rhs.att("lowpair")
        struct = tuple_struct(rhs.att("typerep"), ctx)
        tmp = ctx.gensym("tup")
        stmts: list[Node] = list(hs)
        stmts.append(mk.declInit(mk.tRaw(struct), tmp, rhs_low))
        targets = _expr_list_children(asg.child(0).child(0))
        for i, tgt in enumerate(targets):
            ths, tgt_low = tgt.att("lowpair")
            stmts.extend(ths)
            get = mk.call(f"__tget_{i}", mk.expr_list([mk.var(tmp)]))
            if rc is not None and rc.is_managed(tgt.att("typerep")):
                # The old referent loses a reference; the component's
                # reference moves out of the temp into the target.
                stmts.append(rc.dec_stmt(tgt_low))
            stmts.append(mk.exprStmt(mk.assign(tgt_low, get)))
        return finish_stmt(n, mk.seqStmt(mk.stmt_list(stmts)), [])

    def returnstmt_lowered(n: DecoratedNode):
        ctx = n.inh("ctx")
        rc = getattr(ctx, "rc", None)
        if rc is not None:
            return rc.lower_return(n)
        return rebuild_stmt_default(n)

    eq("returnStmt", "lowered", returnstmt_lowered)

    def returnvoid_lowered(n: DecoratedNode):
        ctx = n.inh("ctx")
        rc = getattr(ctx, "rc", None)
        if rc is not None:
            return rc.lower_return_void(n)
        return Node("returnVoid", [], n.span)

    eq("returnVoid", "lowered", returnvoid_lowered)

    def if_lowered(n: DecoratedNode):
        hs, cond = n.child(0).att("lowpair")
        kids = [cond] + [n.child(i).att("lowered") for i in range(1, len(n.node.children))]
        return finish_stmt(n, Node(n.prod, kids, n.span), hs)

    eq("ifStmt", "lowered", if_lowered)
    eq("ifElse", "lowered", if_lowered)

    def while_lowered(n: DecoratedNode):
        hs, cond = n.child(0).att("lowpair")
        if hs:
            raise LoweringError(
                f"{n.span.start}: loop condition hoists statements "
                f"(a with-loop in a while/for condition is not supported)"
            )
        return Node("whileStmt", [cond, n.child(1).att("lowered")], n.span)

    eq("whileStmt", "lowered", while_lowered)

    def dowhile_lowered(n: DecoratedNode):
        hs, cond = n.child(1).att("lowpair")
        if hs:
            raise LoweringError(
                f"{n.span.start}: loop condition hoists statements "
                f"(a with-loop in a do-while condition is not supported)"
            )
        return Node("doWhile", [n.child(0).att("lowered"), cond], n.span)

    eq("doWhile", "lowered", dowhile_lowered)

    def for_lowered(n: DecoratedNode):
        init = n.child(0)
        init_hoisted: list[Node] = []
        if init.prod == "forDecl":
            hs, low = init.child(2).att("lowpair")
            init_hoisted = hs
            init_low = Node("forDecl", [init.child(0).att("lowered"),
                                        init.node.children[1], low])
        else:
            hs, low = init.child(0).att("lowpair")
            init_hoisted = hs
            init_low = Node("forExpr", [low])
        chs, cond = n.child(1).att("lowpair")
        shs, step = n.child(2).att("lowpair")
        if chs or shs:
            raise LoweringError(
                f"{n.span.start}: loop condition hoists statements "
                f"(a with-loop in a while/for condition is not supported)"
            )
        stmt = Node("forStmt", [init_low, cond, step, n.child(3).att("lowered")], n.span)
        return finish_stmt(n, stmt, init_hoisted)

    eq("forStmt", "lowered", for_lowered)

    def block_lowered(n: DecoratedNode):
        ctx = n.inh("ctx")
        rc = getattr(ctx, "rc", None)
        if rc is None:
            return rebuild_generic(n)
        return rc.lower_block(n)

    eq("block", "lowered", block_lowered)

    def funcdef_lowered(n: DecoratedNode):
        ctx = n.inh("ctx")
        rc = getattr(ctx, "rc", None)
        if rc is not None:
            return rc.lower_funcdef(n)
        return rebuild_generic(n)

    eq("funcDef", "lowered", funcdef_lowered)

    def breakish_lowered(n: DecoratedNode):
        ctx = n.inh("ctx")
        rc = getattr(ctx, "rc", None)
        if rc is not None:
            return rc.lower_breakish(n)
        return Node(n.prod, [], n.span)

    eq("breakStmt", "lowered", breakish_lowered)
    eq("continueStmt", "lowered", breakish_lowered)
