import math
from pathlib import Path

import numpy as np
import pytest

from omxsim import dsl, protocols
from omxsim.dsl import (
    CircuitAst,
    DslSemanticError,
    ElementDecl,
    MeasureDecl,
    ModeDecl,
    ParseError,
    SetDecl,
    compile_source,
    parse,
    pretty_print,
)
from omxsim.plans import MagnonDecl, PhotonDecl

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"

MINIMAL = """\
set protocol = teleport
set alpha = 0.6
set beta = 0.8
mode photon A init=single_v
mode photon B
mode magnon mA init=thermal
mode magnon mB init=thermal
mode photon c init=qubit
apply bs50(A.V, B.V)
apply stokes(A.V, A.H, mA)
apply stokes(B.V, B.H, mB)
apply hwp(A, 0.25pi)
apply pbs(A, B)
measure bell(B, c)
"""


# ---------------------------------------------------------------------------
# parsing

def test_parse_shipped_teleport_layout():
    ast = parse((CIRCUITS / "teleport.omx").read_text())
    kinds = [type(d).__name__ for d in ast.decls]
    assert kinds.count("ModeDecl") == 5
    assert kinds.count("SetDecl") == 7
    assert kinds.count("ElementDecl") == 5
    assert kinds.count("MeasureDecl") == 1
    measure = [d for d in ast.decls if isinstance(d, MeasureDecl)][0]
    assert measure.paths == ("B", "c")


def test_parse_records_one_based_positions():
    ast = parse("mode photon A\n\n# comment\napply hwp(A, pi)\nmeasure bell(A, A)\n")
    mode = ast.decls[0]
    assert (mode.span.line, mode.span.column) == (1, 1)
    elem = ast.decls[1]
    assert elem.span.line == 4
    assert isinstance(elem, ElementDecl)


def test_parse_angle_forms():
    ast = parse("apply hwp(A, 0.25pi)\napply hwp(A, pi)\napply hwp(A, 0.125)\n")
    args = [d.args[1].value for d in ast.decls]
    assert args[0] == 0.25 * math.pi
    assert args[1] == math.pi
    assert args[2] == 0.125


def test_parse_refuses_an_overflowing_number_at_its_column():
    for text, found in [("apply hwp(A, 1e400)", "1e400"), ("apply hwp(A, 1e308pi)", "1e308pi"),
                        ("apply pdc(p.H, m, -1e400)", "-1e400")]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.column == text.index(found) + 1
        assert err.value.expected.startswith("a finite ")
        assert err.value.found == repr(found)


def test_parse_arity_error_points_at_closing_paren():
    with pytest.raises(ParseError) as err:
        parse("apply bs50(pA.H)")
    assert err.value.line == 1
    assert err.value.column == len("apply bs50(pA.H")+ 1
    assert "second mode argument" in err.value.expected
    assert err.value.found == "')'"


def test_parse_rejects_unknown_element_at_its_name():
    with pytest.raises(ParseError) as err:
        parse("apply laser(A.H, B.H)")
    assert err.value.column == len("apply ") + 1
    assert "known element" in err.value.expected


def test_parse_error_catalogue():
    bad_inputs = [
        "mode nonsense x",             # bad mode kind
        "mode photon",                 # missing name
        "set alpha 0.6",               # missing '='
        "set alpha =",                 # missing value
        "apply hwp(A, )",              # missing angle
        "apply hwp(A.H, 0.1)",         # path argument must be bare
        "apply pdc(p.H, m, )",         # missing number
        "apply bs50(A.H, B.H) extra",  # trailing tokens
        "measure bell(A)",             # missing second path
        "measure teleport(A, B)",      # bad measure kind
        "teleport now",                # unknown keyword
        "apply hwp(A, 0.1) @",         # stray character
        "apply bs50(A.X, B.H)",        # bad polarization
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError) as err:
            parse(text)
        lines = text.splitlines()
        assert 1 <= err.value.line <= len(lines)
        assert 1 <= err.value.column <= len(lines[err.value.line - 1]) + 1


def test_parse_stops_at_first_error():
    with pytest.raises(ParseError) as err:
        parse("mode photon A\napply nope(A.H)\napply gibberish(")
    assert err.value.line == 2


# ---------------------------------------------------------------------------
# pretty printing

def test_pretty_print_round_trip_is_fixed_point():
    for name in ("teleport.omx", "swap.omx"):
        src = (CIRCUITS / name).read_text()
        once = pretty_print(parse(src))
        twice = pretty_print(parse(once))
        assert once == twice


def test_pretty_print_preserves_semantics():
    plan_a = compile_source(MINIMAL)
    plan_b = compile_source(pretty_print(parse(MINIMAL)))
    assert plan_a == plan_b


# ---------------------------------------------------------------------------
# compilation

def test_compile_shipped_teleport_matches_builtin_plan():
    plan = compile_source((CIRCUITS / "teleport.omx").read_text())
    assert plan.settings.protocol == "teleport"
    assert plan.settings.n_bar == 0.2
    assert plan.settings.alpha == 0.6 + 0j
    assert [type(d) for d in plan.decls] == [PhotonDecl, PhotonDecl, MagnonDecl,
                                             MagnonDecl, PhotonDecl]
    assert plan.measure.path1 == "B" and plan.measure.path2 == "c"


def test_compiled_report_equals_builtin_teleport():
    plan = compile_source((CIRCUITS / "teleport.omx").read_text())
    from_dsl = protocols.execute_plan(plan)
    builtin = protocols.teleport(protocols.InputQubit(0.6, 0.8),
                                 protocols.ThermalConfig(0.2))
    assert from_dsl.to_json() == builtin.to_json()
    assert abs(from_dsl.aggregate_fidelity - builtin.aggregate_fidelity) < 1e-12


def test_compiled_report_equals_builtin_swap():
    plan = compile_source((CIRCUITS / "swap.omx").read_text())
    from_dsl = protocols.execute_plan(plan)
    builtin = protocols.entanglement_swap(protocols.ThermalConfig(0.2))
    assert from_dsl.to_json() == builtin.to_json()


def test_compile_reports_all_semantic_errors():
    source = "\n".join([
        "set wavelength = 1550",        # unknown key
        "set n_bar = -2",               # bad value
        "mode photon A",
        "mode photon A",                # duplicate
        "apply bs50(A.V, Z.V)",         # undeclared path Z
        "apply phase(mQ, pi)",          # undeclared magnon
        "measure bell(A, Z)",           # Z not declared
        "measure bell(A, A)",           # second block + same path
    ])
    with pytest.raises(DslSemanticError) as err:
        compile_source(source)
    messages = "\n".join(str(i) for i in err.value.issues)
    assert "wavelength" in messages
    assert "n_bar" in messages
    assert "duplicate" in messages
    assert "'Z'" in messages
    assert "'mQ'" in messages
    assert "multiple measurement blocks" in messages
    assert len(err.value.issues) >= 6


def test_compile_requires_one_measurement():
    with pytest.raises(DslSemanticError) as err:
        compile_source("")
    assert any("no measurement block" in str(i) for i in err.value.issues)


def test_compile_checks_magnon_count_for_protocol():
    source = MINIMAL.replace("mode magnon mB init=thermal\n", "")
    with pytest.raises(DslSemanticError) as err:
        compile_source(source)
    assert any("2 magnon modes" in str(i) for i in err.value.issues)


def test_compile_rejects_bad_mode_options():
    with pytest.raises(DslSemanticError) as err:
        compile_source("mode photon A init=lit\nmode magnon m color=red\n"
                       + MINIMAL.replace("mode photon A init=single_v\n", ""))
    messages = str(err.value)
    assert "bad init" in messages
    assert "unknown mode option" in messages


def test_compile_semantic_errors_carry_spans():
    source = "mode photon A\napply bs50(A.V, Z.V)\nmeasure bell(A, A)\n"
    with pytest.raises(DslSemanticError) as err:
        compile_source(source)
    spans = [(i.line, i.column) for i in err.value.issues]
    assert (2, 17) in spans      # the undeclared Z.V reference


def test_settings_defaults_without_sets():
    plan = compile_source(
        "mode photon A init=single_v\nmode photon B\n"
        "mode magnon mA\nmode magnon mB\nmode photon c init=qubit\n"
        "apply bs50(A.V, B.V)\nmeasure bell(B, c)\n")
    s = plan.settings
    assert s.protocol == "teleport"
    assert s.n_bar == 0.0
    assert s.thermal_cutoff == 2
    assert s.renormalize is True
    assert s.alpha == 1.0 + 0j


def test_compile_rejects_oversized_registry():
    lines = ["set photon_cutoff = 40", "set protocol = teleport"]
    for i in range(8):
        lines.append(f"mode photon P{i}")
    lines += ["mode magnon mA", "mode magnon mB", "measure bell(P0, P1)"]
    with pytest.raises(DslSemanticError) as err:
        compile_source("\n".join(lines))
    assert any("hard limit" in str(i) for i in err.value.issues)


# ---------------------------------------------------------------------------
# refusals: the exact message of each form

def _issues(source: str) -> list[str]:
    with pytest.raises(DslSemanticError) as err:
        compile_source(source)
    return [str(i) for i in err.value.issues]


def test_unknown_setting_lists_every_key_in_order():
    assert _issues("set wavelength = 1550\n" + MINIMAL) == [
        "line 1, column 1: unknown setting 'wavelength' (expected one of protocol, "
        "n_bar, thermal_cutoff, renormalize, model, alpha, beta, photon_cutoff)"]


@pytest.mark.parametrize("key, value, expected", [
    ("protocol", "teleports", "teleport or swap"),
    ("n_bar", "-2", "a number >= 0"),
    ("n_bar", "x", "a number >= 0"),
    ("thermal_cutoff", "0", "an integer >= 1"),
    ("thermal_cutoff", "2.0", "an integer >= 1"),
    ("renormalize", "yes", "true or false"),
    ("model", "Paper", "paper or bosonic"),
    ("alpha", "one", "a complex number"),
    ("beta", "1e", "a complex number"),
    ("photon_cutoff", "0", "an integer >= 1"),
])
def test_bad_setting_value_names_what_the_key_takes(key, value, expected):
    # MINIMAL has 14 lines, and a later `set` of a key replaces an earlier one
    assert _issues(MINIMAL + f"set {key} = {value}\n") == [
        f"line 15, column 1: bad value {value!r} for {key} (expected {expected})"]


def test_flag_settings_ignore_case():
    assert compile_source(MINIMAL + "set renormalize = TRUE\n").settings.renormalize is True
    assert compile_source(MINIMAL + "set renormalize = False\n").settings.renormalize is False


def test_bad_setting_values_are_reported_in_key_order():
    assert _issues(MINIMAL + "set photon_cutoff = 0\nset n_bar = -1\n") == [
        "line 16, column 1: bad value '-1' for n_bar (expected a number >= 0)",
        "line 15, column 1: bad value '0' for photon_cutoff (expected an integer >= 1)"]


@pytest.mark.parametrize("text, message", [
    ("apply bs50(A.V B.V)", "line 1, column 16: expected second mode argument, found 'B'"),
    ("apply bs50(A.V",
     "line 1, column 15: expected ',' before the second mode argument, found end of line"),
    ("apply bs50(A.V, B.V", "line 1, column 20: expected ')', found end of line"),
    ("apply bs50(A.V, B.V B", "line 1, column 21: expected ')', found 'B'"),
    ("apply hwp(A, )", "line 1, column 14: expected second angle argument, found ')'"),
    ("apply hwp(A )", "line 1, column 13: expected second angle argument, found ')'"),
    ("apply bs50()", "line 1, column 12: expected first mode argument, found ')'"),
    ("measure bell(B c)", "line 1, column 16: expected second photon path, found 'c'"),
    ("measure bell(B", "line 1, column 15: expected ',', found end of line"),
    ("measure bell(B, c", "line 1, column 18: expected ')', found end of line"),
    ("measure bell(B, c c)", "line 1, column 19: expected ')', found 'c'"),
    ("measure bell(B, )", "line 1, column 17: expected second photon path, found ')'"),
])
def test_separator_and_closing_refusals(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


@pytest.mark.parametrize("old, new, issues", [
    ("apply pbs(A, B)", "apply pbs(A, Z)",
     ["line 13, column 14: undeclared photon path 'Z'"]),
    ("apply bs50(A.V, B.V)", "apply bs50(A.V, Z.V)",
     ["line 9, column 17: undeclared photon path 'Z'"]),
    ("stokes(B.V, B.H, mB)", "stokes(B.V, B.H, mQ)",
     ["line 11, column 24: undeclared magnon mode 'mQ'"]),
    ("mode photon B\n", "mode photon B init=lit\n",
     ["line 5, column 1: bad init 'lit' for a photon mode "
      "(expected one of vacuum, single_h, single_v, qubit)"]),
    ("mode magnon mB init=thermal", "mode magnon mB init=hot",
     ["line 7, column 1: bad init 'hot' for a magnon mode (expected one of ground, thermal)"]),
    ("mode photon B\n", "mode photon B color=red init=vacuum\n",
     ["line 5, column 1: unknown mode option 'color'"]),
    ("measure bell(B, c)\n", "measure bell(B, c)\nmode photon A\nmode magnon mA\n",
     ["line 15, column 1: duplicate photon mode 'A'",
      "line 16, column 1: duplicate magnon mode 'mA'"]),
    ("mode magnon mB init=thermal\n", "",
     ["line 10, column 24: undeclared magnon mode 'mB'",
      "line 1, column 1: protocol 'teleport' expects 2 magnon modes, found 1"]),
    ("set protocol = teleport", "set protocol = swap",
     ["line 1, column 1: protocol 'swap' expects 4 magnon modes, found 2"]),
])
def test_declaration_refusals(old, new, issues):
    assert _issues(MINIMAL.replace(old, new)) == issues
