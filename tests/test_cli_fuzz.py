"""Property test of the command line: any argv exits 0, 1 or 2 with no traceback.

Each example picks one of the 16 subcommands and fills its options from
pools of valid, malformed and out-of-range values; an option may be left
out and a stray token added.  Accepted sizes stay small (stages up to 64,
a few samples, coarse grids), so no example runs much longer than a
second; the oversized values (2 * 10^6 stages, 10^7 samples, and counts
written with 4300 digits) must be refused before any work starts. Literals
at the interpreter's print limit, and lengths out of double range, must be
accepted or refused by the workbench's own message, never by the
interpreter's. A report that is printed is strict JSON: no Infinity or NaN.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from sci_workbench.cli import _HANDLERS, main

#: Literals at the interpreter's default print limit, 4300 digits: the largest power of ten
#: that prints, the smallest that does not, one beyond the exponent bound, an exponent in
#: Arabic-Indic digits, and integers written out with 4300 and 4301 digits.
AT_THE_BOUND = ["1e4299", "1e4300", "1e4301", "1e\u0664\u0663\u0660\u0660", "9" * 4300, "1" + "0" * 4300]
INTEGERS_AT_THE_BOUND = AT_THE_BOUND[-2:]

RATIONAL = st.sampled_from(
    ["0", "1", "1/2", "1/3", "3/4", "2", "5/2", "-1", "-3/4", "x", "", "1/0", "1.5", "nan", "inf", "1e40", "1e400",
     "1e-400", *AT_THE_BOUND]
)
STAGE = st.sampled_from(["-1", "0", "1", "3", "16", "64", "2000000", "9" * 4300, "x", "1.5", ""])
OUTER = st.sampled_from(["-2", "0", "1", "3", "12", "x"])
SAMPLES = st.sampled_from(["-1", "0", "1", "3", "8", "10000000", "9" * 4300, "x"])
FUNCTION = st.sampled_from(
    ["poly:0,1", "poly:", "poly:1/2,-1/3", "poly:x", "sine:1.0,1.0", "sine:inf,1", "sine:1,0",
     "sine:1", "bump:1/4,3/4", "bump:3/4,1/4", "bump:1", "foo:1", "",
     *(f"poly:{v}" for v in AT_THE_BOUND), *(f"bump:0,{v}" for v in AT_THE_BOUND)]
)
DIAGONAL = st.sampled_from(
    ["const:2", "const:1/2", "const:5", "const:x", "list:0,1/4|1/4", "list:|1", "list:1",
     "harmonic:1/2,1/2", "harmonic:0,0", "enum:0,1", "enum:1,0", "enum:0", "x:1", "",
     *(f"const:{v}" for v in AT_THE_BOUND), *(f"list:{v}|1" for v in AT_THE_BOUND)]
)
INTERVAL = st.tuples(RATIONAL, RATIONAL)

OPTIONS = {
    ("integrate", "tower"): {"--interval": INTERVAL, "--function": FUNCTION, "--n": STAGE},
    ("integrate", "adversary"): {
        "--points": st.sampled_from(["", "1/2", "1/2,1/4", "0,1", "2", ",,", "x"]),
    },
    ("integrate", "reduce"): {"--interval": INTERVAL, "--samples": SAMPLES},
    ("spectral", "decide"): {
        "--diagonal": DIAGONAL, "--z": RATIONAL, "--domain": INTERVAL, "--n2": OUTER, "--n1": STAGE,
    },
    ("spectral", "stabilize"): {
        "--diagonal": DIAGONAL, "--z": RATIONAL, "--domain": INTERVAL, "--stabilizer": DIAGONAL,
    },
    ("spectral", "reduce"): {"--stabilizer": DIAGONAL, "--samples": SAMPLES},
    ("koopman", "finite"): {
        "--map": st.sampled_from(
            ["2,1", "1", "3,1,2", "1,1,1", "0", "5,1", "x", "", "1,,2", *(f"{v},1" for v in AT_THE_BOUND)]
        ),
        "--weights": st.sampled_from(
            ["1,1", "1", "1/2,2", "0,1", "-1,1", "x", "1/0,1", "1e400,1", "", *(f"{v},1" for v in AT_THE_BOUND)]
        ),
        "--target": st.sampled_from(["ap", "apeps", "x"]),
        "--epsilon": st.sampled_from(["0.1", "0.5", "1", "0", "-1", "nan", "inf", "x"]),
        "--grid": st.tuples(
            *[st.sampled_from(["-1.5", "1.5", "0", "nan", "inf", "x"])] * 4,
            st.sampled_from(["0.25", "0.5", "1e-4", "0", "-0.5", "nan", "inf", "x"]),
        ),
    },
    ("family", "classify"): {
        "--heights": st.sampled_from(["0,2", "1", "0,1,2,3", "", ",", "x", "-1", *(f"0,{v}" for v in AT_THE_BOUND)]),
        "--k": st.sampled_from(["0", "1", "2", "-5", "x"]),
    },
    ("certify", "package"): {
        "--family": st.sampled_from(["integration", "spectral", "x"]), "--samples": SAMPLES,
    },
    ("certify", "saturate"): {"--samples": SAMPLES},
    ("degrees", "join"): {"--samples": SAMPLES},
    ("degrees", "meet"): {"--samples": SAMPLES},
    ("degrees", "counterexample"): {"--class": st.sampled_from(["cont", "bor", "id", "x"])},
    ("reduce", "verify"): {
        "--spec": st.sampled_from(
            ['{"rule": "integration_affine", "params": {"target": ["0", "2"]}}',
             '{"rule": "integration_affine", "params": {"target": ["2", "0"]}}',
             '{"rule": "integration_affine", "params": {"target": ["0", "0"]}}',
             '{"rule": "identity", "params": {"problem": 5}}',
             '{"rule": "bespoke"}', "[]", "{", "", "/nonexistent/spec.json", ".",
             *(f'{{"rule": "integration_affine", "params": {{"target": ["0", "{v}"]}}}}' for v in AT_THE_BOUND),
             *(f'{{"rule": "integration_affine", "params": {{"target": [0, {v}]}}}}' for v in INTEGERS_AT_THE_BOUND)]
        ),
        "--samples": SAMPLES,
    },
    ("reduce", "compose"): {
        "--intervals": st.sampled_from(
            ["0,1;0,2;0,4", "0,1;0,1;0,1", "0,1", "0,1;0,x;0,4", "0,1;1,0;0,4", "", ";;",
             "0,1;0,2,3;0,4"]
        ),
        "--samples": SAMPLES,
    },
    ("reduce", "pullback"): {"--interval": INTERVAL, "--n": STAGE, "--function": FUNCTION},
}
assert set(OPTIONS) == set(_HANDLERS)

PRESENT = st.sampled_from([True, True, True, False])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = []
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 0:
        argv += ["--catalog", draw(st.sampled_from(["/nonexistent/catalog.json", "."]))]
    argv += list(command)
    for option, values in OPTIONS[command].items():
        if draw(PRESENT):
            value = draw(values)
            argv += [option, *(value if isinstance(value, tuple) else (value,))]
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--n", "-x", "extra", "--"])))
    return argv


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_any_argv_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue() + out.getvalue()
    # the interpreter's own words for an int too long to convert or a quotient out of double range
    for leak in ("Exceeds the limit", "integer division result too large"):
        assert leak not in err.getvalue()
    if code in (0, 1) and "--json" in argv:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
