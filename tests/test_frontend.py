import re
from pathlib import Path

import pytest

from oracles import AND_SYM, ITE_SYM, LESSTHAN_SYM, free_vars
from unrealizer import frontend as fe
from unrealizer import grammar as gr
from unrealizer import logic as lg

PROBLEMS = Path(__file__).parent / "problems"

MINIMAL = """
(set-logic LIA)
(synth-fun f ((x Int)) Int
  ((Start Int ((+ x x x Start) 0))))
(constraint (= (f x) (+ x x)))
(check-synth)
"""


def test_parse_minimal():
    p = fe.parse_problem(MINIMAL)
    assert p.name == "f"
    assert p.variables == ("x",)
    assert p.logic_name == "LIA"
    assert p.grammar.start == "Start"
    assert [n for n, _ in p.grammar.nonterminals] == ["Start"]
    assert len(p.grammar.productions) == 2
    assert free_vars(p.spec) == {"x", "%out"}


def test_parse_accepts_bytes_and_comments():
    text = b"; leading comment\n" + MINIMAL.encode()
    p = fe.parse_problem(text)
    assert p.name == "f"


def test_parse_fixture_files():
    for fname in ("g1.sy", "g2.sy", "gconst.sy", "parity.sy"):
        p = fe.parse_problem((PROBLEMS / fname).read_text())
        assert p.grammar.start == "Start"
        assert gr.validate(p.grammar) == []


def test_parse_clia_constructs():
    text = (PROBLEMS / "g2.sy").read_text()
    p = fe.parse_problem(text)
    kinds = {pr.symbol.kind for pr in p.grammar.productions
             if pr.symbol is not None}
    assert ITE_SYM.kind in kinds
    assert LESSTHAN_SYM.kind in kinds
    assert AND_SYM.kind in kinds
    sorts = p.grammar.sorts
    assert sorts["BExp"] == gr.BOOL
    assert sorts["Start"] == gr.INT


@pytest.mark.parametrize("text,fragment", [
    ("(synth-fun f ((x Int)) Int ((S Int (0))))", "set-logic"),
    ("(set-logic LIA)\n(check-synth)", "synth-fun"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((S Int (0))))",
     "check-synth"),
    ("(set-logic LIA)\n(set-logic LIA)", "duplicate set-logic"),
    # format_problem could not print a list value back as it was read
    ("(set-logic LIA)\n(set-option :foo (a b))", "atom value"),
    ("(set-logic QF_BV)", "unsupported logic"),
    ("(set-logic LIA)\n(constraint true)", "constraint before synth-fun"),
    (MINIMAL + "(constraint true)", "nothing may follow"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((S^a Int (0))))",
     "'^' is reserved"),
    ("(set-logic LIA)\n(synth-fun f ((x Int) (x Int)) Int ((S Int (0))))",
     "duplicate argument"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((S Int (y))))",
     "unknown symbol"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((S Int ((+ x)))))",
     "'+' needs at least two"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Int ((S Int ((shl x x)))))",
     "unknown grammar operator"),
    ("(set-logic LIA)\n(synth-fun f ((x Int)) Bool ((S Int (0))))",
     "must match the return sort"),
    ("((", "unclosed"),
    ("())", "unbalanced"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(fe.ParseError) as exc:
        fe.parse_problem(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_position():
    with pytest.raises(fe.ParseError) as exc:
        fe.parse_problem("(set-logic LIA)\n(bogus)")
    assert exc.value.line == 2


def test_lia_rejects_conditionals():
    text = """
(set-logic LIA)
(synth-fun f ((x Int)) Int
  ((Start Int ((ite B Start Start) 0 1)) (B Bool ((< x 1)))))
(constraint (= (f x) 0))
(check-synth)
"""
    with pytest.raises(fe.ParseError) as exc:
        fe.parse_problem(text)
    assert "CLIA" in str(exc.value)
    assert fe.parse_problem(text.replace("set-logic LIA", "set-logic CLIA"))


def test_set_option_collected():
    text = MINIMAL.replace("(check-synth)",
                           "(set-option :seed 7)\n(check-synth)")
    p = fe.parse_problem(text)
    assert p.options["seed"] == 7
    assert p.options["logic"] == "LIA"


def test_constraint_operators():
    text = """
(set-logic LIA)
(synth-fun f ((x Int)) Int ((S Int (x 0))))
(constraint (and (>= (f x) 0) (not (= (f x) (- x 1)))))
(constraint (or (< (f x) 10) (<= x (* 2 (f x)))))
(check-synth)
"""
    p = fe.parse_problem(text)
    # the constraints conjoin, and the first one's own "and" flattens in
    assert p.spec.op == "and"
    assert len(p.spec.args) == 3
    assert lg.evaluate(lg.substitute(p.spec, {"%out": lg.lin(const=3)}),
                       {"x": 1})


def test_specialize_builds_per_example_formulas():
    p = fe.parse_problem(MINIMAL)
    e = gr.ExampleSet(("x",), ((1,), (5,)))
    ps = fe.specialize(p.spec, e)
    assert len(ps.formulas) == 2
    assert free_vars(ps.formulas[0]) == {"o1"}
    assert free_vars(ps.formulas[1]) == {"o2"}
    # f(1)=2 and f(5)=10 satisfy the spec; anything else fails
    assert ps.evaluate((2, 10))
    assert not ps.evaluate((2, 11))
    assert lg.evaluate(ps.conjunction(), {"o1": 2, "o2": 10})


def test_specialize_zero_arity():
    text = """
(set-logic LIA)
(synth-fun f () Int ((S Int (1 (+ S 1)))))
(constraint (= (f) 3))
(check-synth)
"""
    p = fe.parse_problem(text)
    e = gr.ExampleSet((), ((),))
    ps = fe.specialize(p.spec, e)
    assert len(ps.formulas) == 1
    assert ps.evaluate((3,))
    assert not ps.evaluate((4,))


# every relation and connective a specification may use; true and false
# survive parsing only under a negation
EVERY_CONNECTIVE = """(set-logic LIA)
(synth-fun f ((x Int) (y Int)) Int ((Start Int (x y (+ Start Start)))))
(constraint (distinct (f x y) x))
(constraint (or (< (f x y) y) (not (>= (f x y) 10)) (not false)))
(constraint (or (<= (f x y) 5) (> (f x y) (+ x 7)) (not true)))
(constraint (not (and (= (f x y) (* 2 y)) (< x y))))
(check-synth)
"""

NEGATIVE = """(set-logic LIA)
(synth-fun f ((x Int)) Int ((Start Int (x -3 (+ Start Start) (+ Start -4)))))
(constraint (= (f x) (- (- 0 (* 2 x)) 5)))
(check-synth)
"""


def test_format_round_trip():
    texts = [(PROBLEMS / f).read_text()
             for f in ("g1.sy", "g2.sy", "gconst.sy", "parity.sy")]
    for text in texts + [NEGATIVE, EVERY_CONNECTIVE]:
        p = fe.parse_problem(text)
        q = fe.parse_problem(fe.format_problem(p))
        assert q.name == p.name
        assert q.variables == p.variables
        assert q.grammar == p.grammar
        assert q.spec == p.spec
        assert q.logic_name == p.logic_name
        # a second round trip is byte-stable
        assert fe.format_problem(q) == fe.format_problem(p)
    # negative numbers are written as SMT-LIB numerals, in the grammar as
    # in the specification: a reader takes -3 for a symbol
    p = fe.parse_problem(NEGATIVE)
    text = fe.format_problem(p)
    assert "(Start Int (x (- 3) (+ Start Start) (+ Start (- 4))))" in text
    assert not re.search(r"-\d", text)
    assert gr.num(-3) in [q.symbol for q in p.grammar.productions]
    assert "(constraint (= (f x) (+ (* (- 2) x) (- 5))))" in text
    # each constraint prints as it was written, != as distinct
    text = fe.format_problem(fe.parse_problem(EVERY_CONNECTIVE))
    assert text.splitlines()[5:9] == EVERY_CONNECTIVE.splitlines()[2:6]
