"""Translation of matrix constructs down to plain (parallel) C (§III).

The shapes produced here mirror the paper's figures:

* Fig 1 -> Fig 3: a genarray with-loop becomes one for-loop per generator
  dimension writing elements in place; a nested fold becomes an
  accumulator loop; with assignment fusion on, the genarray writes
  straight into the assignment target (no temporary, no copy), and with
  slice elimination on, ``mat[i,j,:][k]`` collapses to ``mat[i,j,k]`` so
  no slice is materialized.
* §III-A.5 / §III-C: matrixMap (and auto-parallelized genarray loops)
  lift their bodies into new functions so pool worker threads "can get
  direct access" to them; the launch goes through the enhanced fork-join
  runtime (rt_pool_run).

All temps of matrix type are *owned* and registered with the refcount
hooks; statement-level drains keep the rc balance (tested in E-RC).
"""

from __future__ import annotations

from typing import Any

from repro.ag.eval import DecoratedNode
from repro.ag.tree import Node
from repro.cminus.absyn import cons_to_list, node_cons_to_list
from repro.cminus.grammar import mk
from repro.cminus.lower import LoweringError
from repro.cminus.types import TBool, TInt, Type
from repro.codegen.ctypemap import ctype_of
from repro.codegen.emit import LiftedFunc
from repro.exts.matrix.grammar import MATRIX_AG
from repro.exts.matrix.sema import index_selector_kinds
from repro.exts.matrix.types import TMatrix, allocator, getter, is_matrix, setter

ag = MATRIX_AG

LONG = "long"


# ---------------------------------------------------------------------------
# small node builders
# ---------------------------------------------------------------------------

def ilit(v: int) -> Node:
    return mk.intLit(v)


def lvar(name: str) -> Node:
    return mk.var(name)


def call_n(name: str, args: list[Node]) -> Node:
    return mk.call(name, mk.expr_list(args))


def ldecl(ctx, hint: str, init: Node, ctype: str = LONG) -> tuple[str, Node]:
    name = ctx.gensym(hint)
    _note_gensym_type(ctx, name, ctype)
    return name, mk.declInit(mk.tRaw(ctype), name, init)


def _note_gensym_type(ctx, name: str, ctype: str) -> None:
    if not hasattr(ctx, "gensym_types"):
        ctx.gensym_types = {}
    ctx.gensym_types[name] = ctype


def for_loop(var: str, lo: Node, hi: Node, body: list[Node]) -> Node:
    """``for (long var = lo; var < hi; var = var + 1) { body }``"""
    return mk.forStmt(
        Node("forDecl", [mk.tRaw(LONG), var, lo]),
        mk.binop("<", lvar(var), hi),
        mk.assign(lvar(var), mk.binop("+", lvar(var), ilit(1))),
        mk.block(mk.stmt_list(body)),
    )


def nest_loops(vars_lo_hi: list[tuple[str, Node, Node]], innermost: list[Node]) -> Node:
    """Build a loop nest, innermost statements at the core."""
    body = innermost
    for var, lo, hi in reversed(vars_lo_hi):
        body = [for_loop(var, lo, hi, body)]
    return body[0]


def rt_dim_n(m: Node, d: Node | int) -> Node:
    return call_n("rt_dim", [m, d if isinstance(d, Node) else ilit(d)])


def linear_index(m: Node, coords: list[Node], rank: int) -> Node:
    """Row-major linearization: ((c0*d1 + c1)*d2 + c2)..."""
    out = coords[0]
    for k in range(1, rank):
        out = mk.binop("+", mk.binop("*", out, rt_dim_n(m, k)), coords[k])
    return out


def get_elem(elem: Type, m: Node, idx: Node) -> Node:
    return call_n(getter(elem), [m, idx])


def set_elem(elem: Type, m: Node, idx: Node, v: Node) -> Node:
    return mk.exprStmt(call_n(setter(elem), [m, idx, v]))


def alloc_node(elem: Type, rank: int, dims: list[Node]) -> Node:
    padded = dims + [ilit(0)] * (4 - len(dims))
    if rank > 4:
        raise LoweringError("ranks above 4 not supported by the allocator shim")
    return call_n(allocator(elem), [ilit(rank)] + padded)


def as_var(ctx, hoisted: list[Node], expr: Node, hint: str, ctype: str) -> Node:
    """Bind ``expr`` to a fresh temp unless it already is a variable."""
    if expr.prod == "var":
        return expr
    name, decl = ldecl(ctx, hint, expr, ctype)
    hoisted.append(decl)
    return lvar(name)


def lower_owned(ctx, dn: DecoratedNode) -> tuple[list[Node], Node]:
    rc = getattr(ctx, "rc", None)
    if rc is not None:
        return rc.owned(dn)
    return dn.att("lowpair")


def note_matrix_temp(ctx, name: str) -> None:
    rc = getattr(ctx, "rc", None)
    if rc is not None:
        rc.note_temp(name)


def drain_marker(ctx) -> int:
    rc = getattr(ctx, "rc", None)
    return len(rc.stmt_temps) if rc is not None else 0


def drain_since(ctx, mark: int) -> list[Node]:
    """Per-iteration cleanup: decrement matrix temps created since mark."""
    rc = getattr(ctx, "rc", None)
    if rc is None:
        return []
    fresh = rc.stmt_temps[mark:]
    del rc.stmt_temps[mark:]
    return [rc.dec_stmt(lvar(t)) for t in fresh]


# ---------------------------------------------------------------------------
# `end` substitution (higher-order attribute use)
# ---------------------------------------------------------------------------

def substitute_end(tree: Node, base: Node, dim: int) -> Node:
    """Replace every ``endE`` in ``tree`` with ``rt_dim(base, dim) - 1``."""
    if tree.prod == "endE":
        return mk.binop("-", rt_dim_n(base, dim), ilit(1))
    changed = False
    kids: list[Any] = []
    for c in tree.children:
        if isinstance(c, Node):
            r = substitute_end(c, base, dim)
            changed = changed or r is not c
            kids.append(r)
        else:
            kids.append(c)
    return Node(tree.prod, kids, tree.span) if changed else tree


# ---------------------------------------------------------------------------
# free variables (for lifting loop bodies into pool functions)
# ---------------------------------------------------------------------------

def free_vars(tree: Node, bound: set[str] | None = None) -> list[str]:
    """Variables read by ``tree`` that it does not itself declare."""
    bound = set(bound or ())
    out: list[str] = []
    seen: set[str] = set()

    def walk(node: Node, local: set[str]) -> None:
        if node.prod == "var":
            name = node.children[0]
            if name not in local and name not in seen:
                seen.add(name)
                out.append(name)
            return
        if node.prod in ("decl", "declInit", "forDecl"):
            # children first (init may read), then the name becomes bound
            for c in node.children:
                if isinstance(c, Node):
                    walk(c, local)
            local.add(node.children[1])
            return
        if node.prod in ("block", "seqStmt", "forStmt"):
            inner = set(local)
            for c in node.children:
                if isinstance(c, Node):
                    walk(c, inner)
            return
        for c in node.children:
            if isinstance(c, Node):
                walk(c, local)

    walk(tree, set(bound))
    return out


def ctype_for_name(name: str, n: DecoratedNode, ctx) -> str:
    gt = getattr(ctx, "gensym_types", {})
    if name in gt:
        return gt[name]
    b = n.inh("env").lookup(name)
    if b is None:
        raise LoweringError(f"cannot determine C type of captured {name!r}")
    return ctype_of(b.type, ctx)


def parallelize_loop(loop: Node, n: DecoratedNode, ctx, hint: str = "wl") -> Node:
    """Lift ``loop`` (a canonical for-loop over [lo,hi)) into a pool-run
    worker function (paper §III-A.5/§III-C)."""
    init, cond, _step, body = loop.children
    var = init.children[1]
    lo = init.children[2]
    hi = cond.children[2]

    fname = ctx.gensym(f"{hint}_body")
    # chunk [lo+__lo, lo+__hi)
    chunk = for_loop(
        var,
        mk.binop("+", lo, lvar("__lo")),
        mk.binop("+", lo, lvar("__hi")),
        [body],
    )
    captures = []
    for name in free_vars(chunk, bound={var, "__lo", "__hi"}):
        captures.append((ctype_for_name(name, n, ctx), name))
    ctx.lift_function(LiftedFunc(fname, mk.block(mk.stmt_list([chunk])), captures))
    ctx.need("regions")
    total = mk.binop("-", hi, lo)
    args = [mk.strLit(fname), total] + [lvar(name) for _t, name in captures]
    return mk.exprStmt(call_n("__rt_pool_run", args))


# ---------------------------------------------------------------------------
# with-loops
# ---------------------------------------------------------------------------

def lower_generator(n: DecoratedNode, ctx) -> tuple[list[Node], list[str], list[Node], list[Node]]:
    """Lower a generator to (hoisted, ids, lo_temps, hi_temps) with the
    relational operators folded into half-open [lo, hi) bounds."""
    gen = n.child(0)
    hoisted: list[Node] = []
    los = cons_to_list(gen.child(0))
    his = cons_to_list(gen.child(4))
    rel1: str = gen.node.children[1]
    rel2: str = gen.node.children[3]
    ids: list[str] = gen.node.children[2]

    lo_vars: list[Node] = []
    hi_vars: list[Node] = []
    for lo in los:
        hs, low = lo.att("lowpair")
        hoisted.extend(hs)
        if rel1 == "<":  # lo < i  =>  start at lo+1
            low = mk.binop("+", low, ilit(1))
        lo_vars.append(as_var(ctx, hoisted, low, "lo", LONG))
    for hi in his:
        hs, low = hi.att("lowpair")
        hoisted.extend(hs)
        if rel2 == "<=":  # i <= hi  =>  stop before hi+1
            low = mk.binop("+", low, ilit(1))
        hi_vars.append(as_var(ctx, hoisted, low, "hi", LONG))
    return hoisted, ids, lo_vars, hi_vars


def with_lowpair(n: DecoratedNode):
    """Expression-position with-loop: hoist the loop nest, yield a temp."""
    op = n.child(1)
    if op.prod == "genarrayOp":
        return genarray_lowpair(n, target=None)
    return fold_lowpair(n)


def genarray_lowpair(n: DecoratedNode, target: Node | None):
    """Lower ``with (gen) genarray(shape, body)``.

    ``target``: write into this existing matrix variable (assignment
    fusion, §III-A.4) instead of allocating a temp.
    """
    ctx = n.inh("ctx")
    ctx.need("matrix")
    op = n.child(1)
    t: TMatrix = n.att("typerep")
    hoisted, ids, lo_vars, hi_vars = lower_generator(n, ctx)

    shape_vars: list[Node] = []
    for s in cons_to_list(op.child(0)):
        hs, low = s.att("lowpair")
        hoisted.extend(hs)
        shape_vars.append(as_var(ctx, hoisted, low, "dim", LONG))

    if target is None:
        result_name = ctx.gensym("wl")
        _note_gensym_type(ctx, result_name, "rt_mat *")
        hoisted.append(
            mk.declInit(mk.tRaw("rt_mat *"), result_name,
                        alloc_node(t.elem, t.rank, shape_vars))
        )
        result = lvar(result_name)
    else:
        result = target
        # Fused writes require the target to already have this shape.
        for k, s in enumerate(shape_vars):
            hoisted.append(mk.exprStmt(call_n(
                "rt_require_dim", [result, ilit(k), s])))

    # Runtime check: the generator must lie inside the shape (§III-A.4:
    # "the shape in the operation must be a superset of the indexes in the
    # generator, which is something that can be checked at runtime").
    for k in range(len(ids)):
        hoisted.append(mk.exprStmt(call_n(
            "rt_bounds_check",
            [lo_vars[k], hi_vars[k], rt_dim_n(result, k), mk.strLit("genarray")],
        )))

    mark = drain_marker(ctx)
    bhs, blow = op.child(1).att("lowpair")
    inner = list(bhs)
    inner.append(set_elem(
        t.elem, result,
        linear_index(result, [lvar(i) for i in ids], t.rank),
        blow,
    ))
    inner.extend(drain_since(ctx, mark))

    loop = nest_loops(
        [(ids[k], lo_vars[k], hi_vars[k]) for k in range(len(ids))], inner
    )
    loop = apply_transforms_or_parallel(n, loop, ctx, hint="genarray")
    hoisted.append(loop)

    if target is None:
        note_matrix_temp(ctx, result_name)
        return hoisted, lvar(result_name)
    return hoisted, result


def fold_lowpair(n: DecoratedNode):
    ctx = n.inh("ctx")
    ctx.need("matrix")
    op = n.child(1)
    fold_op: str = op.node.children[0]
    result_t = n.att("typerep")
    ctype = ctype_of(result_t, ctx)

    hoisted, ids, lo_vars, hi_vars = lower_generator(n, ctx)

    nhs, nlow = op.child(1).att("lowpair")
    hoisted.extend(nhs)
    acc, acc_decl = ldecl(ctx, "acc", nlow, ctype)
    hoisted.append(acc_decl)

    mark = drain_marker(ctx)
    bhs, blow = op.child(2).att("lowpair")
    inner = list(bhs)
    if fold_op in ("+", "*"):
        inner.append(mk.exprStmt(mk.assign(lvar(acc), mk.binop(fold_op, lvar(acc), blow))))
    else:  # max / min
        tmp, tmp_decl = ldecl(ctx, "v", blow, ctype)
        cmp_op = ">" if fold_op == "max" else "<"
        inner.append(tmp_decl)
        inner.append(mk.ifStmt(
            mk.binop(cmp_op, lvar(tmp), lvar(acc)),
            mk.exprStmt(mk.assign(lvar(acc), lvar(tmp))),
        ))
    inner.extend(drain_since(ctx, mark))

    loop = nest_loops(
        [(ids[k], lo_vars[k], hi_vars[k]) for k in range(len(ids))], inner
    )
    # Folds stay sequential (the reduction across chunks is not emitted by
    # this prototype — matching the paper's automatic path, which
    # parallelizes the data-parallel constructs).
    loop = apply_transforms_or_parallel(n, loop, ctx, hint="fold", allow_parallel=False)
    hoisted.append(loop)
    return hoisted, lvar(acc)


def apply_transforms_or_parallel(
    n: DecoratedNode, loop: Node, ctx, *, hint: str, allow_parallel: bool = True
) -> Node:
    """Apply an explicit transform clause list (§V) if present; otherwise
    auto-parallelize the outer loop when the option is on (§III-C)."""
    xform = n.child(2)
    if xform.prod != "noTransform":
        transformer = getattr(ctx, "loop_transformer", None)
        if transformer is None:
            raise LoweringError(
                f"{n.span.start}: transform clauses used but the transform "
                f"extension is not composed into this translator"
            )
        return transformer(loop, xform, n, ctx)
    if allow_parallel and ctx.options.parallelize:
        return parallelize_loop(loop, n, ctx, hint=hint)
    return loop


# ---------------------------------------------------------------------------
# indexing
# ---------------------------------------------------------------------------

def compose_index_chain(n: DecoratedNode) -> Node | None:
    """Slice elimination (§III-A.4): rewrite ``m[i,j,:][k]`` so the outer
    scalar indexes replace the inner kept dimensions — no slice temp.

    Applies when the base is itself an index over a matrix and every
    *outer* selector is a scalar or a range landing on an inner "all"
    or "range" selector.
    """
    base = n.node.children[0]
    if base.prod != "index":
        return None
    inner_base_t = n.child(0).child(0).att("typerep")
    if not isinstance(inner_base_t, TMatrix):
        return None
    inner_sels = node_cons_to_list(base.children[1])
    outer_sels = node_cons_to_list(n.node.children[1])

    composed: list[Node] = []
    oi = 0
    for sel in inner_sels:
        if sel.prod == "idxExpr" and _is_scalar_sel(n, sel):
            composed.append(sel)
            continue
        if oi >= len(outer_sels):
            return None
        outer = outer_sels[oi]
        oi += 1
        if sel.prod == "idxAll":
            composed.append(outer)
        elif sel.prod == "idxRange":
            # inner a:b with outer scalar k -> a+k ; outer c:d -> a+c : a+d
            a = sel.children[0]
            if outer.prod == "idxExpr" and _is_scalar_sel(n, outer):
                composed.append(Node("idxExpr", [mk.binop("+", a, outer.children[0])]))
            elif outer.prod == "idxRange":
                composed.append(Node("idxRange", [
                    mk.binop("+", a, outer.children[0]),
                    mk.binop("+", a, outer.children[1]),
                ]))
            else:
                return None
        else:
            return None  # logical/gather inner dims: materialize
    if oi != len(outer_sels):
        return None
    idx_list = mk.idx_list(composed)
    return Node("index", [base.children[0], idx_list], n.span)


def _is_scalar_sel(n: DecoratedNode, sel: Node) -> bool:
    # Structural check is enough here: ranges/alls/logical selectors are
    # distinct productions; an idxExpr of matrix type is a gather.
    if sel.prod != "idxExpr":
        return False
    inner = sel.children[0]
    return inner.prod not in ("rangeE",) and not _looks_matrix(n, inner)


def _looks_matrix(n: DecoratedNode, tree: Node) -> bool:
    # Decorate the candidate selector to ask its type (higher-order attr).
    try:
        return is_matrix(n.decorate(tree).att("typerep"))
    except Exception:
        return False


def index_lowpair(n: DecoratedNode):
    base_t = n.child(0).att("typerep")
    if not isinstance(base_t, TMatrix):
        return None  # host / other extension handles it
    ctx = n.inh("ctx")
    ctx.need("matrix")

    if ctx.options.eliminate_slices:
        composed = compose_index_chain(n)
        if composed is not None:
            return n.decorate(composed).att("lowpair")

    hoisted: list[Node] = []
    bhs, blow = n.child(0).att("lowpair")
    hoisted.extend(bhs)
    bvar = as_var(ctx, hoisted, blow, "m", "rt_mat *")

    kinds = index_selector_kinds(n)
    assert kinds is not None  # sema verified
    sels = _lower_selectors(n, kinds, bvar, ctx, hoisted)

    if all(s["kind"] == "scalar" for s in sels):
        coords = [s["expr"] for s in sels]
        return hoisted, get_elem(base_t.elem, bvar, linear_index(bvar, coords, base_t.rank))

    # Materialize the selected submatrix.
    result_t: TMatrix = n.att("typerep")
    kept = [s for s in sels if s["kind"] != "scalar"]
    result_name = ctx.gensym("sub")
    _note_gensym_type(ctx, result_name, "rt_mat *")
    hoisted.append(mk.declInit(
        mk.tRaw("rt_mat *"), result_name,
        alloc_node(result_t.elem, result_t.rank, [s["size"] for s in kept]),
    ))
    result = lvar(result_name)

    rvars = [ctx.gensym("r") for _ in kept]
    src_coords = []
    ri = 0
    for s in sels:
        if s["kind"] == "scalar":
            src_coords.append(s["expr"])
        else:
            src_coords.append(s["source"](lvar(rvars[ri])))
            ri += 1
    inner = [set_elem(
        result_t.elem, result,
        linear_index(result, [lvar(r) for r in rvars], result_t.rank),
        get_elem(base_t.elem, bvar, linear_index(bvar, src_coords, base_t.rank)),
    )]
    loop = nest_loops(
        [(rvars[k], ilit(0), kept[k]["size"]) for k in range(len(kept))], inner
    )
    hoisted.append(loop)
    note_matrix_temp(ctx, result_name)
    return hoisted, result


def _lower_selectors(n, kinds, bvar, ctx, hoisted):
    """Lower each index selector to {kind, expr/size/source} descriptors."""
    sels = []
    for dim, (kind, idx) in enumerate(kinds):
        if kind == "scalar":
            tree = substitute_end(idx.node.children[0], bvar, dim)
            hs, low = n.decorate(tree).att("lowpair")
            hoisted.extend(hs)
            sels.append({"kind": "scalar", "expr": low})
        elif kind == "range":
            a_tree = substitute_end(idx.node.children[0], bvar, dim)
            b_tree = substitute_end(idx.node.children[1], bvar, dim)
            ahs, alow = n.decorate(a_tree).att("lowpair")
            bhs, blow2 = n.decorate(b_tree).att("lowpair")
            hoisted.extend(ahs)
            hoisted.extend(bhs)
            avar = as_var(ctx, hoisted, alow, "a", LONG)
            # inclusive: size = b - a + 1   (paper §III-A.3: 0:4 -> 5)
            size = mk.binop("+", mk.binop("-", blow2, avar), ilit(1))
            svar = as_var(ctx, hoisted, size, "n", LONG)
            hoisted.append(mk.exprStmt(call_n(
                "rt_bounds_check",
                [avar, mk.binop("+", avar, svar), rt_dim_n(bvar, dim),
                 mk.strLit("range index")])))
            sels.append({
                "kind": "range", "size": svar,
                "source": (lambda r, a=avar: mk.binop("+", a, r)),
            })
        elif kind == "all":
            dvar = as_var(ctx, hoisted, rt_dim_n(bvar, dim), "d", LONG)
            sels.append({
                "kind": "all", "size": dvar, "source": (lambda r: r),
            })
        elif kind == "gather":
            sels.append(_lower_gather(n, idx, bvar, dim, ctx, hoisted))
        else:  # logical
            sels.append(_lower_logical(n, idx, bvar, dim, ctx, hoisted))
    return sels


def _lower_gather(n, idx, bvar, dim, ctx, hoisted):
    """Integer-vector selector: m[v, ...] picks rows v[0], v[1], ..."""
    inner = idx.node.children[0]
    # `a :: b` used directly as an index: iterate the range, never
    # materializing the index vector (structural shortcut).
    if inner.prod == "rangeE":
        a_tree = substitute_end(inner.children[0], bvar, dim)
        b_tree = substitute_end(inner.children[1], bvar, dim)
        ahs, alow = n.decorate(a_tree).att("lowpair")
        bhs, blow2 = n.decorate(b_tree).att("lowpair")
        hoisted.extend(ahs)
        hoisted.extend(bhs)
        avar = as_var(ctx, hoisted, alow, "a", LONG)
        size = mk.binop("+", mk.binop("-", blow2, avar), ilit(1))
        svar = as_var(ctx, hoisted, size, "n", LONG)
        hoisted.append(mk.exprStmt(call_n(
            "rt_bounds_check",
            [avar, mk.binop("+", avar, svar), rt_dim_n(bvar, dim),
             mk.strLit("range index")])))
        return {
            "kind": "range", "size": svar,
            "source": (lambda r, a=avar: mk.binop("+", a, r)),
        }
    mark = drain_marker(ctx)
    hs, vlow = idx.child(0).att("lowpair")
    hoisted.extend(hs)
    vvar = as_var(ctx, hoisted, vlow, "iv", "rt_mat *")
    svar = as_var(ctx, hoisted, call_n("rt_size", [vvar]), "n", LONG)
    sel = {
        "kind": "gather", "size": svar,
        "source": (lambda r, v=vvar: get_elem(TInt(), v, r)),
        "cleanup": drain_since(ctx, mark),
    }
    return sel


def _lower_logical(n, idx, bvar, dim, ctx, hoisted):
    """Boolean-vector selector: positions of true values (§III-A.3.d).

    Two passes over the mask: count the true entries (result dimension),
    then record their positions; the copy loop gathers through them.  The
    mask and position temps are owned and drained at statement end.
    """
    hs, vlow = idx.child(0).att("lowpair")
    hoisted.extend(hs)
    vvar = as_var(ctx, hoisted, vlow, "bv", "rt_mat *")
    # check the mask spans this dimension
    hoisted.append(mk.exprStmt(call_n(
        "rt_require_dim", [vvar, ilit(0), rt_dim_n(bvar, dim)])))

    cnt, cnt_decl = ldecl(ctx, "cnt", ilit(0))
    hoisted.append(cnt_decl)
    j = ctx.gensym("j")
    hoisted.append(for_loop(j, ilit(0), call_n("rt_size", [vvar]), [
        mk.ifStmt(
            get_elem(TBool(), vvar, lvar(j)),
            mk.exprStmt(mk.assign(lvar(cnt), mk.binop("+", lvar(cnt), ilit(1)))),
        ),
    ]))
    pos_name = ctx.gensym("pos")
    _note_gensym_type(ctx, pos_name, "rt_mat *")
    hoisted.append(mk.declInit(
        mk.tRaw("rt_mat *"), pos_name, alloc_node(TInt(), 1, [lvar(cnt)])
    ))
    k, k_decl = ldecl(ctx, "k", ilit(0))
    hoisted.append(k_decl)
    j2 = ctx.gensym("j")
    hoisted.append(for_loop(j2, ilit(0), call_n("rt_size", [vvar]), [
        mk.ifStmt(
            get_elem(TBool(), vvar, lvar(j2)),
            mk.block(mk.stmt_list([
                set_elem(TInt(), lvar(pos_name), lvar(k), lvar(j2)),
                mk.exprStmt(mk.assign(lvar(k), mk.binop("+", lvar(k), ilit(1)))),
            ])),
        ),
    ]))
    note_matrix_temp(ctx, pos_name)
    return {
        "kind": "logical", "size": lvar(cnt),
        "source": (lambda r, p=pos_name: get_elem(TInt(), lvar(p), r)),
    }
