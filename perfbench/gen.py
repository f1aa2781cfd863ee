"""Seeded program and input generator with independently computed answers.

Every program the benchmark sends to the translator comes from here, as
a variant of one of the five corpus programs (``repro.programs``):

* identifiers are alpha-renamed with seeded fresh names, so no two
  generated sources are the same text;
* the constants the corpus programs hard-code are seeded: fig4's
  threshold and date cutoff, fig9's split factor, the mandelbrot
  viewport and iteration budget;
* ``kernels > 1`` appends that many extra copies of the program's kernel
  (as separately renamed functions that ``main`` calls), so program size
  varies.

Known-bad variants carry the diagnostic they must produce.  Translator
errors (``BAD_COMPILE``) are what ``compile_source`` must report;
analysis errors (``BAD_ANALYSIS``) are modelled on ``examples/analysis``
and are what ``reproc check`` must report.

Reference outputs come from ``repro.eddy.reference`` (numpy oracles that
share no code with the translator or the VM) and from the escape-time
reference in this file; never from the system under test.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("fig1", "fig4", "fig8", "fig9", "mandelbrot")
EXTENSIONS = {
    "fig1": ["matrix"],
    "fig4": ["matrix"],
    "fig8": ["matrix"],
    "fig9": ["matrix", "transform"],
    "mandelbrot": ["matrix"],
}
OUTPUT = {
    "fig1": "means.data",
    "fig4": "eddyLabels.data",
    "fig8": "temporalScores.data",
    "fig9": "means.data",
    "mandelbrot": "mandel.data",
}

# Input shapes: "small" are the corpus_cases sizes.  "large" are sized so
# that execution dominates a job and the five families' job times stay
# apart (about 60/90/160/220/330 ms on 2 vCPUs): the median job is then
# always the middle family's, and a 15 s run holds enough jobs of the
# slowest family for the tail.
SHAPES = {
    "small": {"fig1": (6, 8, 12), "fig4": (8, 9, 5), "fig8": (5, 6, 32),
              "fig9": (6, 8, 10), "mandelbrot": (10, 12, 24)},
    "large": {"fig1": (64, 64, 64), "fig4": (20, 20, 8),
              "fig8": (6, 7, 64), "fig9": (16, 64, 64),
              "mandelbrot": (32, 48, 80)},
}


@dataclass
class Program:
    """One generated source plus everything needed to judge its result."""

    family: str
    source: str
    extensions: list[str]
    params: dict = field(default_factory=dict)
    # Known-bad variants: the diagnostic text that must appear, and the
    # 1-based source line it must point at.
    expect_error: str | None = None
    expect_line: int | None = None
    outputs: list[str] = field(default_factory=list)


class Names:
    """Fresh identifiers: 1-6 seeded letters, ``_`` and a counter, so
    they never collide with keywords, builtins or each other."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.n = 0

    def fresh(self) -> str:
        letters = string.ascii_lowercase
        while True:
            k = int(self.rng.integers(1, 7))
            stem = "".join(letters[int(c)] for c in self.rng.integers(0, 26, k))
            if stem not in ("rt", "rc"):
                break
        self.n += 1
        return f"{stem}_{self.n}"

    def table(self, keys: str) -> dict[str, str]:
        return {k: self.fresh() for k in keys.split()}


def _flt(v: float) -> str:
    """A float literal for value ``v``; negatives as ``(0.0 - x)``."""
    text = repr(float(abs(v)))
    return f"(0.0 - {text})" if v < 0 else text


# -- templates -----------------------------------------------------------------
#
# Each family is a main template (kernel 0, the corpus program itself)
# plus an extra-kernel function template and the call main makes to it.
# ``{x}`` placeholders are renamed identifiers or seeded constants.

FIG1_MAIN = """\
// Fig. 1 variant: temporal mean of sea-surface height.
{extra_fns}int main() {{
    Matrix float <3> {mat} = readMatrix("ssh.data");
    int {m} = dimSize({mat}, 0);
    int {n} = dimSize({mat}, 1);
    int {p} = dimSize({mat}, 2);
    Matrix float <2> {means} = init(Matrix float <2>, {m}, {n});
    {means} = with ([0,0] <= [{i},{j}] < [{m},{n}])
        genarray([{m},{n}],
            (with ([0] <= [{k}] < [{p}]) fold(+, 0.0, {mat}[{i},{j},:][{k}])) / {p});
    writeMatrix("means.data", {means});
{extra_calls}    return 0;
}}
"""
FIG1_NAMES = "mat m n p means i j k"
FIG1_FN = """\
Matrix float <2> {fn}(Matrix float <3> {mat}) {{
    int {m} = dimSize({mat}, 0);
    int {n} = dimSize({mat}, 1);
    int {p} = dimSize({mat}, 2);
    Matrix float <2> {means} = init(Matrix float <2>, {m}, {n});
    {means} = with ([0,0] <= [{i},{j}] < [{m},{n}])
        genarray([{m},{n}],
            (with ([0] <= [{k}] < [{p}]) fold(+, 0.0, {mat}[{i},{j},:][{k}])) / {p}){transform};
    return {means};
}}

"""
FIG1_FN_NAMES = "fn mat m n p means i j k jin jout"
FIG1_CALL = """\
    Matrix float <2> {res} = {fn}({arg});
    writeMatrix("{out}", {res});
"""

FIG9_MAIN = """\
// Fig. 9 variant: temporal mean with split/vectorize/parallelize.
{extra_fns}int main() {{
    Matrix float <3> {mat} = readMatrix("ssh.data");
    int {m} = dimSize({mat}, 0);
    int {n} = dimSize({mat}, 1);
    int {p} = dimSize({mat}, 2);
    Matrix float <2> {means} = init(Matrix float <2>, {m}, {n});
    {means} = with ([0,0] <= [{i},{j}] < [{m},{n}])
        genarray([{m},{n}],
            (with ([0] <= [{k}] < [{p}]) fold(+, 0.0, {mat}[{i},{j},:][{k}])) / {p})
        transform split {j} by {split}, {jin}, {jout}.
                  vectorize {jin}.
                  parallelize {i};
    writeMatrix("means.data", {means});
{extra_calls}    return 0;
}}
"""
FIG9_NAMES = "mat m n p means i j k jin jout"
FIG9_TRANSFORM = """
        transform split {j} by {split}, {jin}, {jout}.
                  vectorize {jin}.
                  parallelize {i}"""

FIG4_CONNCOMP = """\
Matrix int <2> {cc}(Matrix float <2> {ssh}) {{
    int {m} = dimSize({ssh}, 0);
    int {n} = dimSize({ssh}, 1);
    Matrix bool <2> {binary} = {ssh} < {thr};
    Matrix int <2> {labels} = init(Matrix int <2>, {m}, {n});
    for (int {i} = 0; {i} < {m}; {i} = {i} + 1) {{
        for (int {j} = 0; {j} < {n}; {j} = {j} + 1) {{
            if ({binary}[{i}, {j}])
                {labels}[{i}, {j}] = {i} * {n} + {j} + 1;
        }}
    }}
    bool {changed} = true;
    while ({changed}) {{
        {changed} = false;
        for (int {i} = 0; {i} < {m}; {i} = {i} + 1) {{
            for (int {j} = 0; {j} < {n}; {j} = {j} + 1) {{
                if ({labels}[{i}, {j}] > 0) {{
                    int {best} = {labels}[{i}, {j}];
                    if ({i} > 0 && {labels}[{i} - 1, {j}] > 0 && {labels}[{i} - 1, {j}] < {best})
                        {best} = {labels}[{i} - 1, {j}];
                    if ({j} > 0 && {labels}[{i}, {j} - 1] > 0 && {labels}[{i}, {j} - 1] < {best})
                        {best} = {labels}[{i}, {j} - 1];
                    if ({i} < {m} - 1 && {labels}[{i} + 1, {j}] > 0 && {labels}[{i} + 1, {j}] < {best})
                        {best} = {labels}[{i} + 1, {j}];
                    if ({j} < {n} - 1 && {labels}[{i}, {j} + 1] > 0 && {labels}[{i}, {j} + 1] < {best})
                        {best} = {labels}[{i}, {j} + 1];
                    if ({best} < {labels}[{i}, {j}]) {{
                        {labels}[{i}, {j}] = {best};
                        {changed} = true;
                    }}
                }}
            }}
        }}
    }}
    return {labels};
}}

"""
FIG4_CC_NAMES = "cc ssh m n binary labels i j changed best"
FIG4_MAIN = """\
// Fig. 4 variant: connected components mapped over time.
{extra_fns}int main() {{
    Matrix float <3> {ssh} = readMatrix("ssh.data");
    Matrix int <1> {dates} = readMatrix("dates.data");
    {ssh} = {ssh}[:, :, {dates} >= {cutoff}];
    Matrix int <3> {labels} = matrixMap({cc}, {ssh}, [0, 1]);
    writeMatrix("eddyLabels.data", {labels});
{extra_calls}    return 0;
}}
"""
FIG4_MAIN_NAMES = "ssh dates labels"
FIG4_CALL = """\
    Matrix int <3> {res} = matrixMap({fn}, {arg}, [0, 1]);
    writeMatrix("{out}", {res});
"""

FIG8_FNS = """\
(Matrix float <1>, int, int)
{getTrough}(Matrix float <1> {ts}, int {i}) {{
    int {beginning} = {i};
    int {n} = dimSize({ts}, 0);
    while ({i} + 1 < {n} && {ts}[{i}] >= {ts}[{i} + 1])
        {i} = {i} + 1;
    while ({i} + 1 < {n} && {ts}[{i}] < {ts}[{i} + 1])
        {i} = {i} + 1;
    return ({ts}[{beginning} : {i}], {beginning}, {i});
}}

Matrix float <1>
{computeArea}(Matrix float <1> {aoi}) {{
    float {y1} = {aoi}[0];
    float {y2} = {aoi}[end];
    int {x1} = 0;
    int {x2} = dimSize({aoi}, 0) - 1;
    float {mm} = ({y1} - {y2}) / ((float) ({x1} - {x2}));
    float {b} = {y1} - {mm} * {x1};
    Matrix float <1> {line} = ({x1} :: {x2}) * {mm} + {b};
    float {area} = with ([0] <= [{k}] < [dimSize({line}, 0)])
        fold(+, 0.0, {line}[{k}] - {aoi}[{k}]);
    return with ([0] <= [{k}] < [dimSize({line}, 0)])
        genarray([dimSize({line}, 0)], {area});
}}

Matrix float <1> {scoreTS}(Matrix float <1> {ts}) {{
    Matrix float <1> {scores} = init(Matrix float <1>, dimSize({ts}, 0));
    int {n} = dimSize({ts}, 0);
    int {i} = 0;
    while ({i} + 1 < {n} && {ts}[{i}] < {ts}[{i} + 1])
        {i} = {i} + 1;
    int {beginning} = 0;
    Matrix float <1> {trough};
    while ({i} < {n} - 1) {{
        ({trough}, {beginning}, {i}) = {getTrough}({ts}, {i});
        {scores}[{beginning} : {i}] = {computeArea}({trough});
    }}
    return {scores};
}}

"""
FIG8_FN_NAMES = ("getTrough computeArea scoreTS ts i beginning n aoi y1 y2 "
                 "x1 x2 mm b line area k scores trough")
FIG8_MAIN = """\
// Fig. 8 variant: ocean eddy scoring.
{extra_fns}int main() {{
    Matrix float <3> {data} = readMatrix("ssh.data");
    Matrix float <3> {scores} = matrixMap({scoreTS}, {data}, [2]);
    writeMatrix("temporalScores.data", {scores});
{extra_calls}    return 0;
}}
"""
FIG8_MAIN_NAMES = "data scores"
FIG8_CALL = """\
    Matrix float <3> {res} = matrixMap({fn}, {arg}, [2]);
    writeMatrix("{out}", {res});
"""

MANDEL_ESCAPE = """\
int {escape}(float {cr}, float {ci}, int {maxIter}) {{
    float {zr} = 0.0;
    float {zi} = 0.0;
    int {it} = 0;
    while ({it} < {maxIter} && {zr} * {zr} + {zi} * {zi} <= 4.0) {{
        float {t} = {zr} * {zr} - {zi} * {zi} + {cr};
        {zi} = 2.0 * {zr} * {zi} + {ci};
        {zr} = {t};
        {it} = {it} + 1;
    }}
    return {it};
}}

"""
MANDEL_ESC_NAMES = "escape cr ci maxIter zr zi it t"
MANDEL_RENDER = """\
Matrix int <2> {fn}(int {h}, int {w}, int {maxIter}) {{
    Matrix int <2> {counts} = init(Matrix int <2>, {h}, {w});
    for (int {i} = 0; {i} < {h}; {i} = {i} + 1) {{
        for (int {j} = 0; {j} < {w}; {j} = {j} + 1) {{
            float {cr} = 0.0 - {x0} + {xs} * (float) {j} / (float) {w};
            float {ci} = 0.0 - {y0} + {ys} * (float) {i} / (float) {h};
            {counts}[{i}, {j}] = {escape}({cr}, {ci}, {maxIter});
        }}
    }}
    return {counts};
}}

"""
MANDEL_RENDER_NAMES = "fn h w maxIter counts i j cr ci"
MANDEL_MAIN = """\
// Mandelbrot variant: escape-time over a seeded viewport.
{extra_fns}int main() {{
    int {h} = {H};
    int {w} = {W};
    int {maxIter} = {MAXITER};
    Matrix int <2> {counts} = init(Matrix int <2>, {h}, {w});
    for (int {i} = 0; {i} < {h}; {i} = {i} + 1) {{
        for (int {j} = 0; {j} < {w}; {j} = {j} + 1) {{
            float {cr} = 0.0 - {x0} + {xs} * (float) {j} / (float) {w};
            float {ci} = 0.0 - {y0} + {ys} * (float) {i} / (float) {h};
            {counts}[{i}, {j}] = {escape}({cr}, {ci}, {maxIter});
        }}
    }}
    int {total} = 0;
    for (int {i} = 0; {i} < {h}; {i} = {i} + 1) {{
        for (int {j} = 0; {j} < {w}; {j} = {j} + 1) {{
            {total} = {total} + {counts}[{i}, {j}];
        }}
    }}
    printInt({total});
    writeMatrix("mandel.data", {counts});
{extra_calls}    return 0;
}}
"""
MANDEL_MAIN_NAMES = "h w maxIter counts i j cr ci total"
MANDEL_CALL = """\
    Matrix int <2> {res} = {fn}({h}, {w}, {maxIter});
    writeMatrix("{out}", {res});
"""


def _params(family: str, rng: np.random.Generator, size: str) -> dict:
    """Seeded constants.  Ranges are narrow on purpose: a variant must do
    about the same work as the corpus program, whatever the seed (fig4's
    threshold moves the share of labelled cells by about 2 points per
    step; the mandelbrot viewport moves by less than a pixel)."""
    if family == "fig4":
        return {"thr": int(rng.integers(-1, 2)) / 32.0,
                "cutoff": 1012000 + 10 * int(rng.integers(-1, 2))}
    if family == "fig9":
        # The inner split loop is vectorized 4 wide: its trip count (the
        # split factor) must be a multiple of 4.
        return {"split": int(rng.choice([4, 8]))}
    if family == "mandelbrot":
        h, w, it = SHAPES[size]["mandelbrot"]
        return {"H": h, "W": w, "MAXITER": it + int(rng.integers(-1, 2)),
                "x0": 2.0 + int(rng.integers(-1, 2)) / 64.0,
                "xs": 3.0 + int(rng.integers(-1, 2)) / 64.0,
                "y0": 1.2 + int(rng.integers(-1, 2)) / 80.0,
                "ys": 2.4 + int(rng.integers(-1, 2)) / 40.0}
    return {}


def variant(family: str, rng: np.random.Generator, *, kernels: int = 1,
            size: str = "small") -> Program:
    """A fresh, correct variant of corpus program ``family``."""
    names = Names(rng)
    p = _params(family, rng, size)
    extra_fns, extra_calls, outputs = [], [], [OUTPUT[family]]

    def out(k: int) -> str:
        outputs.append(f"k{k}.data")
        return outputs[-1]

    if family in ("fig1", "fig9"):
        nm = names.table(FIG9_NAMES if family == "fig9" else FIG1_NAMES)
        for k in range(1, kernels):
            f = names.table(FIG1_FN_NAMES)
            xf = ""
            if family == "fig9":
                xf = FIG9_TRANSFORM.format(**f, split=p["split"])
            extra_fns.append(FIG1_FN.format(**f, transform=xf))
            extra_calls.append(FIG1_CALL.format(
                res=names.fresh(), fn=f["fn"], arg=nm["mat"], out=out(k)))
        tmpl = FIG9_MAIN if family == "fig9" else FIG1_MAIN
        src = tmpl.format(**nm, **p, extra_fns="".join(extra_fns),
                          extra_calls="".join(extra_calls))
    elif family == "fig4":
        nm = names.table(FIG4_MAIN_NAMES)
        cc = names.table(FIG4_CC_NAMES)
        fns = [FIG4_CONNCOMP.format(**cc, thr=_flt(p["thr"]))]
        for k in range(1, kernels):
            f = names.table(FIG4_CC_NAMES)
            fns.append(FIG4_CONNCOMP.format(**f, thr=_flt(p["thr"])))
            extra_calls.append(FIG4_CALL.format(
                res=names.fresh(), fn=f["cc"], arg=nm["ssh"], out=out(k)))
        src = FIG4_MAIN.format(**nm, cc=cc["cc"], cutoff=p["cutoff"],
                               extra_fns="".join(fns),
                               extra_calls="".join(extra_calls))
    elif family == "fig8":
        nm = names.table(FIG8_MAIN_NAMES)
        f0 = names.table(FIG8_FN_NAMES)
        fns = [FIG8_FNS.format(**f0)]
        for k in range(1, kernels):
            f = names.table(FIG8_FN_NAMES)
            fns.append(FIG8_FNS.format(**f))
            extra_calls.append(FIG8_CALL.format(
                res=names.fresh(), fn=f["scoreTS"], arg=nm["data"],
                out=out(k)))
        src = FIG8_MAIN.format(**nm, scoreTS=f0["scoreTS"],
                               extra_fns="".join(fns),
                               extra_calls="".join(extra_calls))
    elif family == "mandelbrot":
        nm = names.table(MANDEL_MAIN_NAMES)
        esc = names.table(MANDEL_ESC_NAMES)
        view = {k: _flt(p[k]) for k in ("x0", "xs", "y0", "ys")}
        fns = [MANDEL_ESCAPE.format(**esc)]
        for k in range(1, kernels):
            f = names.table(MANDEL_RENDER_NAMES)
            fns.append(MANDEL_RENDER.format(**f, **view,
                                            escape=esc["escape"]))
            extra_calls.append(MANDEL_CALL.format(
                res=names.fresh(), fn=f["fn"], h=nm["h"], w=nm["w"],
                maxIter=nm["maxIter"], out=out(k)))
        src = MANDEL_MAIN.format(**nm, **view, escape=esc["escape"],
                                 H=p["H"], W=p["W"], MAXITER=p["MAXITER"],
                                 extra_fns="".join(fns),
                                 extra_calls="".join(extra_calls))
    else:
        raise ValueError(f"unknown family {family!r}")
    return Program(family, src, list(EXTENSIONS[family]), p, outputs=outputs)


# -- known-bad variants --------------------------------------------------------

BAD_COMPILE = ("rank_mismatch", "undeclared", "index_arity")
BAD_ANALYSIS = ("shape_mismatch", "oob_index", "use_before_init")


def _insert_before_return(src: str, stmt: str) -> tuple[str, int]:
    """Insert ``stmt`` as the line before main's final ``return 0;``;
    returns the new source and the 1-based line of ``stmt``."""
    lines = src.split("\n")
    at = max(i for i, ln in enumerate(lines) if ln.strip() == "return 0;")
    lines.insert(at, "    " + stmt)
    return "\n".join(lines), at + 1


def bad_compile_variant(rng: np.random.Generator) -> Program:
    """A corpus variant with one injected translator error in ``main``,
    and the error message it must produce."""
    family = FAMILIES[int(rng.integers(0, len(FAMILIES)))]
    prog = variant(family, rng, kernels=int(rng.integers(1, 3)))
    names = Names(rng)
    names.n = 1000  # past every counter the variant used: no collisions
    a, b = names.fresh(), names.fresh()
    kind = BAD_COMPILE[int(rng.integers(0, len(BAD_COMPILE)))]
    if kind == "rank_mismatch":
        r = int(rng.integers(1, 3))
        stmt = (f"Matrix float <{r}> {a} = init(Matrix float <{r}>, "
                + ", ".join(["2"] * r) + f"); Matrix float <{r + 1}> {b} = {a};")
        msg = (f"cannot assign value of type Matrix float <{r}> "
               f"to Matrix float <{r + 1}>")
    elif kind == "undeclared":
        stmt = f"int {a} = {b} + 1;"
        msg = f"undeclared identifier '{b}'"
    else:
        stmt = (f"Matrix float <2> {a} = init(Matrix float <2>, 2, 2); "
                f"float {b} = {a}[0];")
        msg = "type Matrix float <2> is not indexable"
    src, line = _insert_before_return(prog.source, stmt)
    if kind == "index_arity":
        line = None  # the translator reports this one at 1:1 (see NOTES.md)
    prog.source, prog.expect_error, prog.expect_line = src, msg, line
    prog.params = dict(prog.params, bad=kind)
    return prog


def bad_analysis_variant(rng: np.random.Generator) -> Program:
    """A program modelled on ``examples/analysis`` that translates but
    that ``reproc check`` must reject, with the diagnostic it must give.
    Sizes and names are seeded."""
    names = Names(rng)
    a, b, c = names.fresh(), names.fresh(), names.fresh()
    kind = BAD_ANALYSIS[int(rng.integers(0, len(BAD_ANALYSIS)))]
    r1, c1 = (int(v) for v in rng.integers(2, 6, 2))
    if kind == "shape_mismatch":
        r2, c2 = r1 + int(rng.integers(1, 3)), c1
        body = [f"Matrix float <2> {a} = init(Matrix float <2>, {r1}, {c1});",
                f"Matrix float <2> {b} = init(Matrix float <2>, {r2}, {c2});",
                f"Matrix float <2> {c} = {a} + {b};",
                f'writeMatrix("c.data", {c});']
        at = 2
        msg = (f"elementwise + on shapes ({r1}, {c1}) and ({r2}, {c2}) "
               "that never match")
    elif kind == "oob_index":
        row = r1 + int(rng.integers(0, 4))
        body = [f"Matrix float <2> {a} = init(Matrix float <2>, {r1}, {c1});",
                f"float {b} = {a}[{row}, 0];",
                f"printFloat({b});"]
        at = 1
        msg = (f"matrix index {row * c1} is out of bounds for ({r1}, {c1}) "
               f"(size {r1 * c1})")
    else:
        body = [f"int {a};", f"int {b} = {a} + {r1};", f"printInt({b});"]
        at = 1
        msg = f"variable '{a}' is read before it is initialized"
    src = "// generated analysis negative\nint main() {\n" + "".join(
        f"    {s}\n" for s in body) + "    return 0;\n}\n"
    # Line 1 is the comment, line 2 opens main.
    return Program(kind, src, ["matrix"], {"bad": kind},
                   expect_error=msg, expect_line=3 + at)


# -- inputs ---------------------------------------------------------------------

def inputs_for(prog: Program, rng: np.random.Generator,
               size: str = "small") -> dict[str, np.ndarray]:
    """Fresh seeded RMAT inputs for one execution of ``prog``."""
    shape = SHAPES[size][prog.family]
    if prog.family in ("fig1", "fig9"):
        return {"ssh.data": rng.normal(0, 0.5, shape).astype(np.float32)}
    if prog.family == "fig4":
        t = shape[2]
        # One date falls before the cutoff: t - 1 frames are kept.
        start = prog.params["cutoff"] - 10
        dates = (start + 10 * np.arange(t)).astype(np.int32)
        ssh = rng.normal(0.2, 0.5, shape).astype(np.float32)
        return {"ssh.data": ssh, "dates.data": dates}
    if prog.family == "fig8":
        from repro.eddy import synthetic_ssh

        return {"ssh.data": synthetic_ssh(
            shape, n_eddies=2, seed=int(rng.integers(1 << 31))).cube}
    return {}


# -- references -----------------------------------------------------------------

def mandelbrot_reference(p: dict) -> np.ndarray:
    """Escape counts for the mandelbrot variant with constants ``p``.

    Mirrors the VM's scalar semantics without sharing its code: float
    literals and ``(float)`` casts narrow through float32, arithmetic is
    IEEE double.  Vectorized over pixels; each pixel's operation order is
    the program's."""
    f32 = lambda v: float(np.float32(v))  # noqa: E731
    h, w, max_iter = p["H"], p["W"], p["MAXITER"]
    x0, xs, y0, ys = (f32(p[k]) for k in ("x0", "xs", "y0", "ys"))
    jj, ii = np.meshgrid(np.arange(w, dtype=np.float64),
                         np.arange(h, dtype=np.float64))
    cr = (0.0 - x0) + xs * jj / float(w)
    ci = (0.0 - y0) + ys * ii / float(h)
    zr = np.zeros_like(cr)
    zi = np.zeros_like(ci)
    it = np.zeros(cr.shape, dtype=np.int64)
    live = np.ones(cr.shape, dtype=bool)
    for _ in range(max_iter):
        live &= zr * zr + zi * zi <= 4.0
        if not live.any():
            break
        t = zr * zr - zi * zi + cr
        zi = np.where(live, 2.0 * zr * zi + ci, zi)
        zr = np.where(live, t, zr)
        it += live
    return it.astype(np.int32)


def reference(prog: Program, inputs: dict[str, np.ndarray]) -> dict:
    """Expected outputs of ``prog`` (kernel 0) on ``inputs``."""
    from repro.eddy import conn_comp, temporal_mean, temporal_scores

    out = OUTPUT[prog.family]
    if prog.family in ("fig1", "fig9"):
        return {out: temporal_mean(inputs["ssh.data"])}
    if prog.family == "fig4":
        keep = inputs["dates.data"] >= prog.params["cutoff"]
        frames = inputs["ssh.data"][:, :, keep]
        thr = float(np.float32(prog.params["thr"]))
        labels = np.stack([conn_comp(frames[:, :, t], thr)
                           for t in range(frames.shape[2])], axis=2)
        return {out: labels}
    if prog.family == "fig8":
        return {out: temporal_scores(inputs["ssh.data"])}
    counts = mandelbrot_reference(prog.params)
    return {out: counts, "stdout": [str(int(counts.sum()))]}


# Tolerances fixed from the dtype before any run: float32 sums of up to
# 64 terms (fig1/fig9) and trough areas (fig8, as in the integration
# tests); integer outputs must match exactly.
_ATOL = {"fig1": 1e-5, "fig9": 1e-5, "fig8": 1e-3}


def outputs_match(prog: Program, got: dict, want: dict) -> str | None:
    """None when ``got`` matches the reference, else a one-line reason."""
    out = OUTPUT[prog.family]
    if out not in got:
        return f"{prog.family}: output {out} missing"
    g, w = np.asarray(got[out]), np.asarray(want[out])
    if g.shape != w.shape:
        return f"{prog.family}: shape {g.shape} != reference {w.shape}"
    atol = _ATOL.get(prog.family)
    ok = (np.allclose(g, w, atol=atol) if atol is not None
          else np.array_equal(g.astype(np.int64), w.astype(np.int64)))
    if not ok:
        return f"{prog.family}: output differs from reference"
    if "stdout" in want and list(got.get("stdout", [])) != want["stdout"]:
        return f"{prog.family}: stdout {got.get('stdout')} != {want['stdout']}"
    return None
