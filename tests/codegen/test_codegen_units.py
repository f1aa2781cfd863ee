"""Unit tests for the codegen substrate: runtime feature selection,
C type mapping and lifted-function rendering."""

import subprocess

import pytest

from repro.api import compile_source
from repro.cexec import gcc_available
from repro.cminus.env import CompileContext
from repro.cminus.types import (
    BOOL, FLOAT, INT, STRING, TPointer, TTuple, VOID,
)
from repro.codegen.ctypemap import CTypeError, ctype_of, tuple_struct
from repro.codegen.emit import LiftedFunc
from repro.codegen.runtime_c import FEATURES, IMPLIES, runtime_source
from repro.programs import corpus_cases


class TestRuntimeSelection:
    def test_empty_feature_set_is_minimal(self):
        src = runtime_source(set())
        assert "rt_mat" not in src and "rt_pool" not in src

    def test_implications_close_transitively(self):
        src = runtime_source({"io"})
        # io -> matrix + refcount -> counters
        assert "readMatrix" in src
        assert "rt_alloc(" in src
        assert "rc_dec" in src
        assert "rt_alloc_count" in src

    def test_every_feature_set_compiles(self, tmp_path):
        if not gcc_available():
            pytest.skip("gcc not available")
        src = runtime_source(set(FEATURES)) + "\nint main(void){return 0;}\n"
        c = tmp_path / "all.c"
        c.write_text(src)
        r = subprocess.run(
            ["gcc", "-O2", "-Wall", "-o", str(tmp_path / "all"), str(c),
             "-lpthread", "-lm"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr

    def test_implies_keys_are_known_features(self):
        for feature, deps in IMPLIES.items():
            assert feature in FEATURES
            for d in deps:
                assert d in FEATURES


class TestCTypeMap:
    def setup_method(self):
        self.ctx = CompileContext()

    @pytest.mark.parametrize("t,want", [
        (INT, "int"), (BOOL, "int"), (FLOAT, "float"), (VOID, "void"),
        (STRING, "const char *"), (TPointer(INT), "int *"),
    ])
    def test_scalars(self, t, want):
        assert ctype_of(t, self.ctx) == want

    def test_tuple_registers_struct(self):
        t = TTuple((INT, FLOAT))
        name = ctype_of(t, self.ctx)
        assert name.startswith("tup_")
        assert self.ctx.tuple_structs[name] == ["int", "float"]

    def test_same_tuple_same_struct(self):
        t = TTuple((INT, FLOAT))
        assert tuple_struct(t, self.ctx) == tuple_struct(t, self.ctx)
        assert len(self.ctx.tuple_structs) == 1

    def test_distinct_tuples_distinct_structs(self):
        tuple_struct(TTuple((INT, FLOAT)), self.ctx)
        tuple_struct(TTuple((FLOAT, INT)), self.ctx)
        assert len(self.ctx.tuple_structs) == 2

    def test_matrix_needs_hook(self):
        from repro.exts.matrix.types import TMatrix

        with pytest.raises(CTypeError):
            ctype_of(TMatrix(FLOAT, 2), self.ctx)
        from repro.exts.matrix import _matrix_ctype_hook

        self.ctx.ctype_hooks = [_matrix_ctype_hook]
        assert ctype_of(TMatrix(FLOAT, 2), self.ctx) == "rt_mat *"


class TestLiftedFunc:
    def test_rendering(self):
        from repro.cminus.grammar import mk

        body = mk.block(mk.stmt_list([mk.exprStmt(
            mk.call("printInt", mk.expr_list([mk.var("x")])))]))
        lf = LiftedFunc("worker", body, [("int", "x"), ("rt_mat *", "m")])
        struct = lf.c_env_struct()
        assert "int x;" in struct and "rt_mat * m;" in struct
        defn = lf.c_definition()
        assert "static void worker(long __lo, long __hi, int x, rt_mat * m)" in defn
        wrap = lf.c_wrapper()
        assert "worker(__lo, __hi, __e->x, __e->m);" in wrap


@pytest.mark.skipif(not gcc_available(), reason="gcc not available")
class TestNoDeadRuntime:
    """Generated C carries only the runtime it calls: every corpus
    program compiles with unused static functions as errors."""

    @pytest.mark.parametrize("name,source,exts", [
        pytest.param(*c[:3], id=c[0]) for c in corpus_cases()])
    def test_no_unused_functions(self, name, source, exts, tmp_path):
        cr = compile_source(source, exts)
        assert cr.ok, cr.errors
        c = tmp_path / f"{name}.c"
        c.write_text(cr.c_source)
        r = subprocess.run(
            ["gcc", "-Wall", "-Werror=unused-function", "-c",
             "-o", str(tmp_path / f"{name}.o"), str(c)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
