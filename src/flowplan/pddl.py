"""Parser for the supported PDDL 2.1 numeric fragment.

Accepted: typed parameters/objects, positive (STRIPS) propositional
conditions, numeric conditions over linear expressions with
{<=, <, =, >, >=}, and numeric effects {increase, decrease, assign}
with linear magnitudes. Everything else (durative actions, conditional
effects, quantifiers, negative preconditions, scale-up/scale-down,
derived predicates, plan metrics) is rejected with an error naming the
construct. The full grammar is documented in the README.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    MissingInitialValueError,
    ParseError,
    UnsupportedConstructError,
    ValidationError,
)

COMPARISON_OPS = ("<=", "<", "=", ">", ">=")
NUMERIC_EFFECT_OPS = {"increase": "increase", "decrease": "decrease", "assign": "assign"}
REJECTED_EFFECT_OPS = {"scale-up": "*=", "scale-down": "/="}
REJECTED_REQUIREMENTS = {
    ":durative-actions",
    ":duration-inequalities",
    ":continuous-effects",
    ":adl",
    ":conditional-effects",
    ":derived-predicates",
    ":quantified-preconditions",
    ":disjunctive-preconditions",
    ":timed-initial-literals",
}


# ---------------------------------------------------------------------------
# S-expression reading


@dataclass(frozen=True)
class Token:
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "()":
            tokens.append(Token(ch, line, col))
            col += 1
            i += 1
            continue
        start_i, start_col = i, col
        while i < n and not text[i].isspace() and text[i] not in "();":
            i += 1
            col += 1
        tokens.append(Token(text[start_i:i].lower(), line, start_col))
    return tokens


class _EmptyForm(list):
    """`()`, which has no atom to give its position: it keeps its '('s."""

    def __init__(self, line: int, column: int):
        super().__init__()
        self.line = line
        self.column = column


class _Reader:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def read(self):
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("", 1, 1)
            raise ParseError("unexpected end of input", last.line, last.column)
        self.pos += 1
        if tok.text == "(":
            items = []
            while True:
                nxt = self._peek()
                if nxt is None:
                    raise ParseError("unclosed parenthesis", tok.line, tok.column, expected="')'")
                if nxt.text == ")":
                    self.pos += 1
                    return items or _EmptyForm(tok.line, tok.column)
                items.append(self.read())
        if tok.text == ")":
            raise ParseError("unexpected ')'", tok.line, tok.column, expected="atom or '('")
        return tok

    def read_top(self):
        tree = self.read()
        extra = self._peek()
        if extra is not None:
            raise ParseError("trailing input after top-level form", extra.line, extra.column)
        return tree


def _atom(node) -> str:
    if isinstance(node, Token):
        return node.text
    raise ParseError("expected an atom, found a list", _pos(node)[0], _pos(node)[1])


def _pos(node) -> tuple[int, int]:
    """Where a node starts: an atom's position, or that of a form's first
    atom; an empty form's '('."""
    while isinstance(node, list):
        if not node:
            return (node.line, node.column)
        node = node[0]
    return (node.line, node.column)


def _item(form: list, index: int, expected: str):
    """`form[index]` of a form whose head was read, or a ParseError at the
    form naming what is missing."""
    if index >= len(form):
        line, col = _pos(form)
        raise ParseError(f"'{_head(form)}' is missing its {expected}", line, col,
                         expected=expected)
    return form[index]


def _head(node) -> str:
    if not isinstance(node, list) or not node:
        line, col = _pos(node)
        raise ParseError("expected a parenthesised form", line, col)
    return _atom(node[0])


def _number(text: str) -> Fraction | None:
    """The value of a numeric literal, or None if `text` is not one."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def _number_node(node) -> Fraction:
    value = _number(_atom(node))
    if value is None:
        raise ParseError(f"expected a number, found '{node.text}'", node.line, node.column,
                         expected="number")
    return value


# ---------------------------------------------------------------------------
# AST types


@dataclass(frozen=True)
class Atom:
    """A (possibly lifted) predicate application."""

    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return "(" + " ".join((self.predicate,) + self.args) + ")"


@dataclass(frozen=True)
class FluentRef:
    """A (possibly lifted) function application."""

    function: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return "(" + " ".join((self.function,) + self.args) + ")"


@dataclass(frozen=True)
class NumExpr:
    """Arithmetic expression tree: leaf (constant or fluent) or operator node."""

    op: str  # "const" | "fluent" | "+" | "-" | "*" | "/"
    value: Fraction | None = None
    fluent: FluentRef | None = None
    children: tuple["NumExpr", ...] = ()


@dataclass(frozen=True)
class ComparisonAST:
    op: str
    left: NumExpr
    right: NumExpr


@dataclass(frozen=True)
class NumericEffectAST:
    op: str  # increase | decrease | assign
    fluent: FluentRef
    magnitude: NumExpr


@dataclass(frozen=True)
class ActionAST:
    name: str
    parameters: tuple[tuple[str, str], ...]  # (variable, type)
    pre_atoms: tuple[Atom, ...]
    pre_comparisons: tuple[ComparisonAST, ...]
    add_effects: tuple[Atom, ...]
    del_effects: tuple[Atom, ...]
    numeric_effects: tuple[NumericEffectAST, ...]


@dataclass(frozen=True)
class DomainAST:
    name: str
    types: dict[str, str]  # type -> parent
    constants: tuple[tuple[str, str], ...]  # (object, type)
    predicates: dict[str, tuple[str, ...]]  # name -> parameter types
    functions: dict[str, tuple[str, ...]]
    actions: tuple[ActionAST, ...]


@dataclass(frozen=True)
class ProblemAST:
    name: str
    domain_name: str
    objects: tuple[tuple[str, str], ...]
    init_atoms: tuple[Atom, ...]
    init_values: dict[FluentRef, Fraction]
    goal_atoms: tuple[Atom, ...]
    goal_comparisons: tuple[ComparisonAST, ...]


# ---------------------------------------------------------------------------
# Shared sub-parsers


def _parse_typed_list(items: list) -> list[tuple[str, str]]:
    """Parse `a b - t c - u d` into [(a,t),(b,t),(c,u),(d,object)]."""
    if not isinstance(items, list):
        line, col = _pos(items)
        raise ParseError("expected a list of typed names", line, col, expected="'('")
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        text = _atom(items[i])
        if text == "-":
            if i + 1 >= len(items):
                line, col = _pos(items[i])
                raise ParseError("dangling '-' in typed list", line, col, expected="type name")
            typ = _atom(items[i + 1])
            out.extend((name, typ) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(text)
            i += 1
    out.extend((name, "object") for name in pending)
    return out


def _parse_num_expr(node) -> NumExpr:
    if isinstance(node, Token):
        value = _number(node.text)
        if value is not None:
            return NumExpr("const", value=value)
        # bare fluent name without parentheses is not part of the fragment
        raise ParseError(f"expected a number, found '{node.text}'", node.line, node.column,
                         expected="number or (fluent ...)")
    head = _head(node)
    if head in ("+", "-", "*", "/"):
        children = tuple(_parse_num_expr(child) for child in node[1:])
        if not children:
            line, col = _pos(node)
            raise ParseError(f"'{head}' needs at least one operand", line, col)
        if head in ("*", "/") and len(children) != 2:
            line, col = _pos(node)
            raise ParseError(f"'{head}' takes exactly two operands", line, col)
        return NumExpr(head, children=children)
    return NumExpr("fluent", fluent=FluentRef(head, tuple(_atom(a) for a in node[1:])))


def _parse_condition(node, pre_atoms: list[Atom], pre_comparisons: list[ComparisonAST]) -> None:
    head = _head(node)
    if head == "and":
        for child in node[1:]:
            _parse_condition(child, pre_atoms, pre_comparisons)
        return
    if head in COMPARISON_OPS:
        if len(node) != 3:
            line, col = _pos(node)
            raise ParseError(f"comparison '{head}' takes two operands", line, col)
        pre_comparisons.append(
            ComparisonAST(head, _parse_num_expr(node[1]), _parse_num_expr(node[2]))
        )
        return
    if head in ("or", "imply", "exists", "forall", "when"):
        raise UnsupportedConstructError(head, "only conjunctive conditions are supported")
    if head == "not":
        raise UnsupportedConstructError("negative precondition", str(node and node[0].text))
    pre_atoms.append(Atom(head, tuple(_atom(a) for a in node[1:])))


def _parse_effect(node, adds: list[Atom], dels: list[Atom], numeric: list[NumericEffectAST]) -> None:
    head = _head(node)
    if head == "and":
        for child in node[1:]:
            _parse_effect(child, adds, dels, numeric)
        return
    if head == "not":
        if len(node) != 2 or not isinstance(node[1], list):
            line, col = _pos(node)
            raise ParseError("'not' in effects must wrap a single atom", line, col)
        inner = node[1]
        dels.append(Atom(_head(inner), tuple(_atom(a) for a in inner[1:])))
        return
    if head in NUMERIC_EFFECT_OPS:
        if len(node) != 3 or not isinstance(node[1], list):
            line, col = _pos(node)
            raise ParseError(f"'{head}' takes a fluent and a magnitude", line, col)
        fluent = FluentRef(_head(node[1]), tuple(_atom(a) for a in node[1][1:]))
        numeric.append(NumericEffectAST(head, fluent, _parse_num_expr(node[2])))
        return
    if head in REJECTED_EFFECT_OPS:
        raise UnsupportedConstructError(head, f"{REJECTED_EFFECT_OPS[head]} effects are not supported")
    if head in ("when", "forall"):
        raise UnsupportedConstructError(head, "conditional/quantified effects are not supported")
    adds.append(Atom(head, tuple(_atom(a) for a in node[1:])))


# ---------------------------------------------------------------------------
# Domain


def parse_domain(text: str) -> DomainAST:
    """Parse domain text into a DomainAST, rejecting unsupported constructs."""
    tree = _Reader(text).read_top()
    if _head(tree) != "define":
        line, col = _pos(tree)
        raise ParseError("domain file must start with (define ...)", line, col, expected="define")
    name_form = _item(tree, 1, "(domain NAME)")
    if _head(name_form) != "domain":
        line, col = _pos(name_form)
        raise ParseError("expected (domain NAME)", line, col, expected="domain")
    name = _atom(_item(name_form, 1, "name"))

    types: dict[str, str] = {"object": "object"}
    constants: list[tuple[str, str]] = []
    predicates: dict[str, tuple[str, ...]] = {}
    functions: dict[str, tuple[str, ...]] = {}
    actions: list[ActionAST] = []

    for section in tree[2:]:
        head = _head(section)
        if head == ":requirements":
            for req in section[1:]:
                req_text = _atom(req)
                if req_text in REJECTED_REQUIREMENTS:
                    raise UnsupportedConstructError(req_text)
        elif head == ":types":
            for typ, parent in _parse_typed_list(section[1:]):
                types[typ] = parent
                types.setdefault(parent, "object")
        elif head == ":constants":
            constants.extend(_parse_typed_list(section[1:]))
        elif head == ":predicates":
            for decl in section[1:]:
                predicate = _head(decl)
                predicates[predicate] = tuple(t for _, t in _parse_typed_list(decl[1:]))
        elif head == ":functions":
            # strip optional "- number" return-type annotations between declarations
            decls = [item for item in section[1:] if isinstance(item, list)]
            for decl in decls:
                function = _head(decl)
                functions[function] = tuple(t for _, t in _parse_typed_list(decl[1:]))
        elif head == ":action":
            actions.append(_parse_action(section, types))
        elif head in (":durative-action", ":derived", ":constraints"):
            raise UnsupportedConstructError(head)
        else:
            line, col = _pos(section)
            raise ParseError(f"unknown domain section '{head}'", line, col)

    for typ, parent in types.items():
        if parent not in types:
            types[parent] = "object"
    return DomainAST(name, types, tuple(constants), predicates, functions, tuple(actions))


def _parse_action(section: list, types: dict[str, str]) -> ActionAST:
    name = _atom(_item(section, 1, "name"))
    parameters: tuple[tuple[str, str], ...] = ()
    pre_atoms: list[Atom] = []
    pre_comparisons: list[ComparisonAST] = []
    adds: list[Atom] = []
    dels: list[Atom] = []
    numeric: list[NumericEffectAST] = []
    i = 2
    while i < len(section):
        key = _atom(section[i])
        if key in (":parameters", ":precondition", ":effect"):
            if i + 1 >= len(section):
                line, col = _pos(section[i])
                raise ParseError(f"'{key}' has no value", line, col, expected="'('")
        if key == ":parameters":
            parameters = tuple(_parse_typed_list(section[i + 1]))
        elif key == ":precondition":
            body = section[i + 1]
            if body != []:  # () means an empty precondition
                _parse_condition(body, pre_atoms, pre_comparisons)
        elif key == ":effect":
            body = section[i + 1]
            if body != []:
                _parse_effect(body, adds, dels, numeric)
        elif key == ":duration":
            raise UnsupportedConstructError(":duration", "durative actions are not supported")
        else:
            line, col = _pos(section[i])
            raise ParseError(f"unknown action keyword '{key}'", line, col)
        i += 2
    for var, typ in parameters:
        if typ not in types:
            raise ValidationError(f"action {name}: parameter {var} has undeclared type {typ}")
    return ActionAST(name, parameters, tuple(pre_atoms), tuple(pre_comparisons),
                     tuple(adds), tuple(dels), tuple(numeric))


# ---------------------------------------------------------------------------
# Problem


def parse_problem(text: str, domain: DomainAST) -> ProblemAST:
    """Parse problem text and validate it against the domain declarations."""
    tree = _Reader(text).read_top()
    if _head(tree) != "define" or _head(_item(tree, 1, "(problem NAME)")) != "problem":
        line, col = _pos(tree)
        raise ParseError("problem file must start with (define (problem NAME) ...)", line, col)
    name = _atom(_item(tree[1], 1, "name"))

    domain_name = ""
    objects: list[tuple[str, str]] = list(domain.constants)
    init_atoms: list[Atom] = []
    init_values: dict[FluentRef, Fraction] = {}
    goal_atoms: list[Atom] = []
    goal_comparisons: list[ComparisonAST] = []

    for section in tree[2:]:
        head = _head(section)
        if head == ":domain":
            domain_name = _atom(_item(section, 1, "domain name"))
        elif head == ":objects":
            objects.extend(_parse_typed_list(section[1:]))
        elif head == ":init":
            for entry in section[1:]:
                entry_head = _head(entry)
                if entry_head == "=":
                    fluent_node = _item(entry, 1, "fluent")
                    fluent = FluentRef(_head(fluent_node),
                                       tuple(_atom(a) for a in fluent_node[1:]))
                    init_values[fluent] = _number_node(_item(entry, 2, "value"))
                else:
                    init_atoms.append(Atom(entry_head, tuple(_atom(a) for a in entry[1:])))
        elif head == ":goal":
            body = _item(section, 1, "condition")
            if body != []:
                _parse_condition(body, goal_atoms, goal_comparisons)
        elif head == ":metric":
            raise UnsupportedConstructError(":metric", "plan metrics are not supported")
        else:
            line, col = _pos(section)
            raise ParseError(f"unknown problem section '{head}'", line, col)

    problem = ProblemAST(name, domain_name, tuple(objects), tuple(init_atoms),
                         init_values, tuple(goal_atoms), tuple(goal_comparisons))
    _validate_problem(problem, domain)
    return problem


def _validate_problem(problem: ProblemAST, domain: DomainAST) -> None:
    object_types = dict(problem.objects)
    for typ in object_types.values():
        if typ not in domain.types:
            raise ValidationError(f"object declared with undeclared type {typ}")

    def check_atom(atom: Atom, where: str) -> None:
        if atom.predicate not in domain.predicates:
            raise ValidationError(f"undeclared predicate {atom.predicate} in {where}")
        if len(atom.args) != len(domain.predicates[atom.predicate]):
            raise ValidationError(f"arity mismatch for {atom} in {where}")
        for arg in atom.args:
            if arg not in object_types:
                raise ValidationError(f"undeclared object {arg} in {where}")

    def check_fluent(fluent: FluentRef, where: str) -> None:
        if fluent.function not in domain.functions:
            raise ValidationError(f"undeclared function {fluent.function} in {where}")
        if len(fluent.args) != len(domain.functions[fluent.function]):
            raise ValidationError(f"arity mismatch for {fluent} in {where}")
        for arg in fluent.args:
            if arg not in object_types:
                raise ValidationError(f"undeclared object {arg} in {where}")

    for atom in problem.init_atoms:
        check_atom(atom, "init")
    for fluent in problem.init_values:
        check_fluent(fluent, "init")
    for atom in problem.goal_atoms:
        check_atom(atom, "goal")

    def fluents_of(expr: NumExpr):
        if expr.op == "fluent":
            yield expr.fluent
        for child in expr.children:
            yield from child_fluents(child)

    def child_fluents(expr: NumExpr):
        yield from fluents_of(expr)

    for comparison in problem.goal_comparisons:
        for fluent in fluents_of(comparison.left):
            check_fluent(fluent, "goal")
            if fluent not in problem.init_values:
                raise MissingInitialValueError(str(fluent))
        for fluent in fluents_of(comparison.right):
            check_fluent(fluent, "goal")
            if fluent not in problem.init_values:
                raise MissingInitialValueError(str(fluent))

    # Nullary functions referenced by any action must be initialised; instances
    # of parameterised functions are checked during grounding once bindings exist.
    used_nullary: set[str] = set()

    def collect_expr(expr: NumExpr) -> None:
        if expr.op == "fluent" and not expr.fluent.args:
            used_nullary.add(expr.fluent.function)
        for child in expr.children:
            collect_expr(child)

    for action in domain.actions:
        for comparison in action.pre_comparisons:
            collect_expr(comparison.left)
            collect_expr(comparison.right)
        for effect in action.numeric_effects:
            if not effect.fluent.args:
                used_nullary.add(effect.fluent.function)
            collect_expr(effect.magnitude)
    initialised = {fluent.function for fluent in problem.init_values if not fluent.args}
    for function in sorted(used_nullary):
        if function in domain.functions and not domain.functions[function] and function not in initialised:
            raise MissingInitialValueError(f"({function})")
