"""Line-oriented circuit description language (`.omx`) for interferometer
layouts, compiled into executable simulation plans.

The language is deliberately flat: mode declarations, settings, element
applications, and exactly one measurement line describe one fixed topology.
Parsing fails fast on the first syntax error (positions are 1-based);
semantic analysis batches every error it finds.  The grammar is documented
in docs/dsl.md.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

from .fock import OmxError, RegistryError
from .elements import ScatterModel
from .plans import (
    ELEMENTS,
    MAGNON_INITS,
    PHOTON_INITS,
    PROTOCOL_MAGNONS,
    PROTOCOLS,
    BellMeasure,
    CircuitPlan,
    ElementStep,
    MagnonDecl,
    ModeRef,
    PhotonDecl,
    PlanSettings,
    build_registry,
    sides,
)


class ParseError(OmxError):
    """Syntax error with a 1-based source position."""

    def __init__(self, line: int, column: int, expected: str, found: str):
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(f"line {line}, column {column}: expected {expected}, "
                         f"found {found}")


@dataclass(frozen=True)
class SemanticIssue:
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class DslSemanticError(OmxError):
    """All semantic errors found in one compilation pass."""

    def __init__(self, issues: list[SemanticIssue]):
        self.issues = issues
        super().__init__("; ".join(str(i) for i in issues))


# ---------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Span:
    line: int
    column: int


@dataclass(frozen=True)
class ModeRefArg:
    name: str
    pol: str | None
    span: Span

    def pretty(self) -> str:
        return self.name if self.pol is None else f"{self.name}.{self.pol}"


@dataclass(frozen=True)
class NumberArg:
    value: float
    raw: str
    span: Span

    def pretty(self) -> str:
        return self.raw


@dataclass(frozen=True)
class ModeDecl:
    kind: str                 # "photon" | "magnon"
    name: str
    options: tuple            # ((key, value), ...) in source order
    span: Span


@dataclass(frozen=True)
class SetDecl:
    key: str
    raw_value: str
    span: Span


@dataclass(frozen=True)
class ElementDecl:
    name: str
    args: tuple
    span: Span


@dataclass(frozen=True)
class MeasureDecl:
    paths: tuple[str, str]
    span: Span


@dataclass(frozen=True)
class CircuitAst:
    decls: tuple
    source: str


_ORDINALS = ("first", "second", "third", "fourth", "fifth")


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>\#.*)"
    r"|(?P<angle>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?pi\b)"
    r"|(?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[().,=])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    column: int       # 1-based


def _lex_line(text: str, line_no: int) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line_no, pos + 1, "a token", repr(text[pos]))
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token], line_no: int, raw: str):
        self.tokens = tokens
        self.line = line_no
        self.raw = raw
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self, expected: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, len(self.raw) + 1, expected, "end of line")
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None, expected: str,
               at_end: str | None = None) -> _Token:
        """Next token, of `kind` (and `text`); `at_end` names the expectation at line end."""
        tok = self.next(at_end or expected)
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ParseError(self.line, tok.column, expected, repr(tok.text))
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(self.line, tok.column, "end of line", repr(tok.text))


# ---------------------------------------------------------------------------
# parser

def parse(source: str) -> CircuitAst:
    """Parse `.omx` text; raises ParseError at the first syntax error."""
    decls = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        tokens = _lex_line(raw, line_no)
        if not tokens:
            continue
        parse_decl = _DECLARATIONS.get(tokens[0].text)    # only a word can match
        if parse_decl is None:
            raise ParseError(line_no, tokens[0].column,
                             "mode, set, apply, or measure", repr(tokens[0].text))
        decls.append(parse_decl(_Cursor(tokens, line_no, raw)))
    return CircuitAst(tuple(decls), source)


def _parse_mode(cur: _Cursor) -> ModeDecl:
    start = cur.next("mode")
    kind = cur.expect("word", None, "photon or magnon")
    if kind.text not in ("photon", "magnon"):
        raise ParseError(cur.line, kind.column, "photon or magnon", repr(kind.text))
    name = cur.expect("word", None, "a mode name")
    options = []
    while cur.peek() is not None:
        key = cur.expect("word", None, "an option key")
        cur.expect("punct", "=", "'=' after option key")
        val = cur.next("an option value")
        if val.kind not in ("word", "number", "angle"):
            raise ParseError(cur.line, val.column, "an option value", repr(val.text))
        options.append((key.text, val.text))
    return ModeDecl(kind.text, name.text, tuple(options), Span(cur.line, start.column))


def _parse_set(cur: _Cursor) -> SetDecl:
    start = cur.next("set")
    key = cur.expect("word", None, "a setting key")
    eq = cur.expect("punct", "=", "'=' after setting key")
    # the value is the raw remainder of the line (complex literals welcome)
    eq_pos = cur.raw.index("=", eq.column - 1)
    rest = cur.raw[eq_pos + 1:].split("#", 1)[0].strip()
    if not rest:
        raise ParseError(cur.line, eq.column + 1, "a setting value", "end of line")
    return SetDecl(key.text, rest, Span(cur.line, start.column))


def _parse_apply(cur: _Cursor) -> ElementDecl:
    start = cur.next("apply")
    name = cur.expect("word", None, "an element name")
    if name.text not in ELEMENTS:
        raise ParseError(cur.line, name.column,
                         "a known element name (" + ", ".join(sorted(ELEMENTS)) + ")",
                         repr(name.text))
    _, signature, _ = ELEMENTS[name.text]
    cur.expect("punct", "(", "'('")
    args = []
    for pos, kind in enumerate(signature):
        expected = f"{_ORDINALS[pos]} {kind} argument"
        if pos > 0:
            cur.expect("punct", ",", expected, f"',' before the {expected}")
        args.append(_parse_arg(cur, cur.next(expected), kind, expected))
    cur.expect("punct", ")", "')'")
    cur.done()
    return ElementDecl(name.text, tuple(args), Span(cur.line, start.column))


def _parse_arg(cur: _Cursor, tok: _Token, kind: str, expected: str):
    if kind in ("angle", "number"):
        if tok.kind == "angle":
            value = float(tok.text[:-2]) * math.pi
        elif tok.kind == "number":
            value = float(tok.text)
        elif tok.kind == "word" and tok.text == "pi":
            value = math.pi
        else:
            raise ParseError(cur.line, tok.column, expected, repr(tok.text))
        if not math.isfinite(value):                # 1e400, or 1e308pi
            raise ParseError(cur.line, tok.column, f"a finite {expected}",
                             repr(tok.text))
        return NumberArg(value, tok.text, Span(cur.line, tok.column))
    if tok.kind != "word":
        raise ParseError(cur.line, tok.column, expected, repr(tok.text))
    pol = None
    nxt = cur.peek()
    if nxt is not None and nxt.kind == "punct" and nxt.text == ".":
        if kind == "path":
            raise ParseError(cur.line, nxt.column, expected + " (no polarization)", "'.'")
        cur.next("polarization")
        pol_tok = cur.expect("word", None, "H or V")
        if pol_tok.text not in ("H", "V"):
            raise ParseError(cur.line, pol_tok.column, "H or V", repr(pol_tok.text))
        pol = pol_tok.text
    return ModeRefArg(tok.text, pol, Span(cur.line, tok.column))


def _parse_measure(cur: _Cursor) -> MeasureDecl:
    start = cur.next("measure")
    cur.expect("word", "bell", "'bell'")
    cur.expect("punct", "(", "'('")
    p1 = cur.expect("word", None, "first photon path")
    cur.expect("punct", ",", "second photon path", "','")
    p2 = cur.expect("word", None, "second photon path")
    cur.expect("punct", ")", "')'")
    cur.done()
    return MeasureDecl((p1.text, p2.text), Span(cur.line, start.column))


_DECLARATIONS = {"mode": _parse_mode, "set": _parse_set, "apply": _parse_apply,
                 "measure": _parse_measure}


# ---------------------------------------------------------------------------
# semantic analysis / compilation

def _flag(text: str) -> bool:
    return {"true": True, "false": False}[text.lower()]


def _checked(convert, ok=cmath.isfinite):
    """`convert`, refusing with ValueError a value that `ok` does not accept."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(text)
        return value
    return parse


# `set` key -> (value parser, which raises KeyError or ValueError; the
# values it takes), in the order bad values are reported.  An unset key
# keeps its PlanSettings default.
_SETTINGS = {
    "protocol": (_checked(str, lambda value: value in PROTOCOLS), " or ".join(PROTOCOLS)),
    "n_bar": (_checked(float, lambda value: 0 <= value < math.inf), "a number >= 0"),
    "thermal_cutoff": (_checked(int, lambda value: value >= 1), "an integer >= 1"),
    "renormalize": (_flag, "true or false"),
    "model": (ScatterModel, "paper or bosonic"),
    "alpha": (_checked(complex), "a complex number"),
    "beta": (_checked(complex), "a complex number"),
    "photon_cutoff": (_checked(int, lambda value: value >= 1), "an integer >= 1"),
}


def compile(ast: CircuitAst) -> CircuitPlan:  # noqa: A001 - spec'd operation name
    """Resolve an AST into an executable plan; batches all semantic errors."""
    issues: list[SemanticIssue] = []
    photon_paths: dict[str, ModeDecl] = {}
    magnons: dict[str, ModeDecl] = {}
    settings_raw: dict[str, tuple[str, Span]] = {}
    plan_decls = []
    steps = []
    measures = []

    def issue(span: Span, message: str):
        issues.append(SemanticIssue(span.line, span.column, message))

    for decl in ast.decls:
        if isinstance(decl, ModeDecl):
            table, make, allowed = ((photon_paths, PhotonDecl, PHOTON_INITS)
                                    if decl.kind == "photon"
                                    else (magnons, MagnonDecl, MAGNON_INITS))
            if decl.name in table:
                issue(decl.span, f"duplicate {decl.kind} mode {decl.name!r}")
                continue
            init = {}                   # unset: the declaration's default
            for key, value in decl.options:
                if key != "init":
                    issue(decl.span, f"unknown mode option {key!r}")
                elif value not in allowed:
                    issue(decl.span, f"bad init {value!r} for a {decl.kind} mode "
                          f"(expected one of {', '.join(allowed)})")
                else:
                    init = {"init": value}
            table[decl.name] = decl
            plan_decls.append(make(decl.name, **init))
        elif isinstance(decl, SetDecl):
            if decl.key not in _SETTINGS:
                issue(decl.span, f"unknown setting {decl.key!r} "
                      f"(expected one of {', '.join(_SETTINGS)})")
                continue
            settings_raw[decl.key] = (decl.raw_value, decl.span)
        elif isinstance(decl, MeasureDecl):
            measures.append(decl)
        elif isinstance(decl, ElementDecl):
            resolved = _resolve_element(decl, photon_paths, magnons, issue)
            if resolved is not None:
                steps.append(resolved)

    settings = _build_settings(settings_raw, issue)

    if not measures:
        issues.append(SemanticIssue(1, 1, "no measurement block"))
    for extra in measures[1:]:
        issue(extra.span, "multiple measurement blocks (exactly one allowed)")
    measure = None
    if measures:
        m = measures[0]
        for path in m.paths:
            if path not in photon_paths:
                issue(m.span, f"measured path {path!r} is not a declared photon path")
        if m.paths[0] == m.paths[1]:
            issue(m.span, "measurement needs two distinct photon paths")
        measure = BellMeasure(*m.paths)

    if settings is not None:
        need = PROTOCOL_MAGNONS[settings.protocol]
        if len(magnons) != need:
            issues.append(SemanticIssue(
                1, 1, f"protocol {settings.protocol!r} expects {need} magnon modes, "
                f"found {len(magnons)}"))

    if issues:
        raise DslSemanticError(issues)

    plan = CircuitPlan(tuple(plan_decls), tuple(steps), measure, settings)
    try:
        # the executor builds one registry per side of the Bell analyzer
        for side in sides(plan):
            build_registry(settings, side.decls)
    except RegistryError as exc:
        raise DslSemanticError([SemanticIssue(1, 1, str(exc))]) from exc
    return plan


def _resolve_element(decl: ElementDecl, photon_paths, magnons, issue):
    _, signature, _ = ELEMENTS[decl.name]
    args = []
    ok = True
    for kind, arg in zip(signature, decl.args):
        if kind in ("angle", "number"):
            args.append(arg.value)
            continue
        mode_kind, noun, declared = (("photon", "photon path", photon_paths)
                                     if kind == "path" or arg.pol is not None
                                     else ("magnon", "magnon mode", magnons))
        if arg.name not in declared:
            issue(arg.span, f"undeclared {noun} {arg.name!r}")
            ok = False
        args.append(arg.name if kind == "path" else ModeRef(mode_kind, arg.name, arg.pol))
    return ElementStep(decl.name, tuple(args)) if ok else None


def _build_settings(raw: dict, issue) -> PlanSettings | None:
    values = {}
    for key, (convert, takes) in _SETTINGS.items():
        if key in raw:
            text, span = raw[key]
            try:
                values[key] = convert(text)
            except (KeyError, ValueError):
                issue(span, f"bad value {text!r} for {key} (expected {takes})")
    # `raw` holds known keys only, so a key missing from `values` was refused
    return PlanSettings(**values) if len(values) == len(raw) else None


# ---------------------------------------------------------------------------
# pretty printer

def pretty_print(ast: CircuitAst) -> str:
    """Canonical source form; parse(pretty_print(parse(s))) is a fixed point."""
    lines = []
    for decl in ast.decls:
        if isinstance(decl, SetDecl):
            lines.append(f"set {decl.key} = {decl.raw_value}")
        elif isinstance(decl, ModeDecl):
            opts = "".join(f" {k}={v}" for k, v in decl.options)
            lines.append(f"mode {decl.kind} {decl.name}{opts}")
        elif isinstance(decl, ElementDecl):
            args = ", ".join(a.pretty() for a in decl.args)
            lines.append(f"apply {decl.name}({args})")
        elif isinstance(decl, MeasureDecl):
            lines.append(f"measure bell({decl.paths[0]}, {decl.paths[1]})")
    return "\n".join(lines) + "\n"


def compile_source(source: str) -> CircuitPlan:
    return compile(parse(source))
