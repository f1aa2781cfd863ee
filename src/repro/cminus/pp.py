"""Pretty-printer: fully lowered host trees -> plain C source text.

The printer only understands *host* productions — extension constructs
must have been lowered away (via forwarding / `lowered`) first; hitting
one is an internal error, which keeps the translator honest about §II's
promise that extensions translate down to plain C.

A few call names are printed specially because the interpreter and the C
backend need different spellings of the same structured operation:

* ``__tuple_<T>(a, b)``    -> C99 compound literal ``(<T>){a, b}``
* ``__tget_<i>(x)``        -> member access ``(x).f<i>``
* ``__rt_pool_run(fn, total, cap...)`` -> env-struct setup + pool launch
"""

from __future__ import annotations

from repro.ag.tree import Node
from repro.cminus.absyn import node_cons_to_list


class PPError(Exception):
    pass


_BINOP_C = {
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
    "<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==", "!=": "!=",
    "&&": "&&", "||": "||",
}

_TYPE_C = {
    "tInt": "int", "tFloat": "float", "tBool": "int", "tChar": "char",
    "tVoid": "void",
}


def pp_type(node: Node) -> str:
    if node.prod in _TYPE_C:
        return _TYPE_C[node.prod]
    if node.prod == "tPtr":
        return pp_type(node.children[0]) + " *"
    if node.prod == "tRaw":
        return node.children[0]
    raise PPError(f"unlowered type node {node.prod!r} reached the C printer")


def pp_expr(node: Node) -> str:
    p = node.prod
    ch = node.children
    if p == "intLit":
        return str(ch[0])
    if p == "floatLit":
        v = repr(float(ch[0]))
        return f"{v}f"
    if p == "boolLit":
        return "1" if ch[0] else "0"
    if p == "strLit":
        body = ch[0].replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{body}"'
    if p == "var":
        return ch[0]
    if p == "rawExpr":
        return ch[0]
    if p == "binop":
        op = _BINOP_C.get(ch[0])
        if op is None:
            raise PPError(f"unlowered operator {ch[0]!r} reached the C printer")
        return f"({pp_expr(ch[1])} {op} {pp_expr(ch[2])})"
    if p == "unop":
        return f"({ch[0]}{pp_expr(ch[1])})"
    if p == "assign":
        return f"{pp_expr(ch[0])} = {pp_expr(ch[1])}"
    if p == "castE":
        return f"(({pp_type(ch[0])}) {pp_expr(ch[1])})"
    if p == "call":
        return pp_call(node)
    raise PPError(f"unlowered expression node {p!r} reached the C printer")


def pp_call(node: Node) -> str:
    name = node.children[0]
    args = [pp_expr(a) for a in node_cons_to_list(node.children[1])]
    if name.startswith("__tuple_"):
        struct = name[len("__tuple_"):]
        return f"(({struct}){{{', '.join(args)}}})"
    if name.startswith("__tget_"):
        i = name[len("__tget_"):]
        return f"({args[0]}).f{i}"
    return f"{name}({', '.join(args)})"


def pp_stmt(node: Node, indent: int = 0) -> str:
    pad = "    " * indent
    p = node.prod
    ch = node.children
    if p == "block":
        inner = [pp_stmt(s, indent + 1) for s in node_cons_to_list(ch[0])]
        return pad + "{\n" + "\n".join(inner) + ("\n" if inner else "") + pad + "}"
    if p == "seqStmt":
        inner = [pp_stmt(s, indent) for s in node_cons_to_list(ch[0])]
        return "\n".join(inner)
    if p == "decl":
        return f"{pad}{pp_type(ch[0])} {ch[1]};"
    if p == "declInit":
        return f"{pad}{pp_type(ch[0])} {ch[1]} = {pp_expr(ch[2])};"
    if p == "exprStmt":
        if ch[0].prod == "call":
            callee = ch[0].children[0]
            if callee == "__rt_pool_run":
                return _pp_pool_run(ch[0], pad)
            if callee in ("__rt_spawn", "__rt_spawn_into"):
                return _pp_spawn(ch[0], pad)
        return f"{pad}{pp_expr(ch[0])};"
    if p == "ifStmt":
        return f"{pad}if ({pp_expr(ch[0])})\n{pp_stmt(ch[1], indent + 1)}"
    if p == "ifElse":
        return (
            f"{pad}if ({pp_expr(ch[0])})\n{pp_stmt(ch[1], indent + 1)}\n"
            f"{pad}else\n{pp_stmt(ch[2], indent + 1)}"
        )
    if p == "whileStmt":
        return f"{pad}while ({pp_expr(ch[0])})\n{pp_stmt(ch[1], indent + 1)}"
    if p == "doWhile":
        return (f"{pad}do\n{pp_stmt(ch[0], indent + 1)}\n"
                f"{pad}while ({pp_expr(ch[1])});")
    if p == "forStmt":
        # OpenMP's canonical loop form rejects extra parentheses around the
        # controlling predicate and increment; print them bare.
        init = pp_forinit(ch[0])
        return (
            f"{pad}for ({init}; {pp_expr_bare(ch[1])}; {pp_expr_bare(ch[2])})\n"
            f"{pp_stmt(ch[3], indent + 1)}"
        )
    if p == "returnStmt":
        return f"{pad}return {pp_expr(ch[0])};"
    if p == "returnVoid":
        return f"{pad}return;"
    if p == "breakStmt":
        return f"{pad}break;"
    if p == "continueStmt":
        return f"{pad}continue;"
    if p == "rawStmt":
        return pad + ch[0]
    raise PPError(f"unlowered statement node {p!r} reached the C printer")


def pp_expr_bare(node: Node) -> str:
    """An expression without its outermost parentheses (for-loop headers)."""
    if node.prod == "binop":
        op = _BINOP_C.get(node.children[0])
        if op is not None:
            return f"{pp_expr(node.children[1])} {op} {pp_expr(node.children[2])}"
    if node.prod == "assign":
        return f"{pp_expr(node.children[0])} = {pp_expr_bare(node.children[1])}"
    return pp_expr(node)


def pp_forinit(node: Node) -> str:
    if node.prod == "forDecl":
        return f"{pp_type(node.children[0])} {node.children[1]} = {pp_expr(node.children[2])}"
    if node.prod == "forExpr":
        return pp_expr(node.children[0])
    raise PPError(f"unlowered for-init {node.prod!r}")


def _pp_pool_run(call: Node, pad: str) -> str:
    """Expand __rt_pool_run(fnname, total, cap1, cap2, ...) into env-struct
    setup plus the runtime launch (see repro.codegen.runtime_c)."""
    args = node_cons_to_list(call.children[1])
    fn = args[0].children[0]  # strLit: lifted function name
    total = pp_expr(args[1])
    caps = [pp_expr(a) for a in args[2:]]
    lines = [
        f"{pad}{{",
        f"{pad}    struct {fn}_env __env = {{{', '.join(caps)}}};" if caps
        else f"{pad}    struct {fn}_env __env;",
        f"{pad}    rt_pool_run({fn}_wrap, &__env, {total});",
        f"{pad}}}",
    ]
    return "\n".join(lines)


def _pp_spawn(call: Node, pad: str) -> str:
    """Expand __rt_spawn[_into](taskfn, callee, [target,] args...) into the
    heap env-struct setup plus the task launch (repro.exts.cilk)."""
    args = node_cons_to_list(call.children[1])
    task = args[0].children[0]
    into = call.children[0] == "__rt_spawn_into"
    target = args[2].children[0] if into else None
    value_args = args[3:] if into else args[2:]
    lines = [
        f"{pad}{{",
        f"{pad}    struct {task}_env *__e = malloc(sizeof(struct {task}_env));",
    ]
    for i, a in enumerate(value_args):
        lines.append(f"{pad}    __e->a{i} = {pp_expr(a)};")
    if target is not None:
        lines.append(f"{pad}    __e->r = &{target};")
    lines.append(f"{pad}    rt_spawn({task}, __e);")
    lines.append(f"{pad}}}")
    return "\n".join(lines)


def pp_function(node: Node) -> str:
    """Print a funcDef node as a C function definition."""
    rett, name, params, body = node.children
    plist = []
    for prm in node_cons_to_list(params):
        plist.append(f"{pp_type(prm.children[0])} {prm.children[1]}")
    sig = f"{pp_type(rett)} {name}({', '.join(plist) or 'void'})"
    return f"{sig}\n{pp_stmt(body)}"


def pp_prototype(node: Node) -> str:
    rett, name, params, _body = node.children
    plist = [pp_type(prm.children[0]) for prm in node_cons_to_list(params)]
    return f"{pp_type(rett)} {name}({', '.join(plist) or 'void'});"
