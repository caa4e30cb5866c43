import pytest

from oracles import (
    AND_SYM, DOUBLE_SYM, INC_SYM, ITE_SYM, LESSTHAN_SYM, MINUS_SYM, NOT_SYM,
    enumerate_trees, example_set, height, proj_z, reachable_values,
)
from unrealizer import grammar as gr
from unrealizer.grammar import (
    BOOL, INT, ExampleSet, Production, Rtg, Term, check, eval_term,
    expand_nary, leaf, num, plus, validate, var,
)


def g1_surface():
    """Start ::= Plus(Var x, Var x, Var x, Start) | Num 0, with a 4-ary Plus."""
    return Rtg(
        (("Start", INT),),
        "Start",
        (Production("Start", plus(4), (leaf(var("x")), leaf(var("x")), leaf(var("x")), "Start")),
         Production("Start", num(0), ())),
    )


def g1_expanded():
    return expand_nary(g1_surface())


def ex(*points):
    return example_set([{"x": v} for v in points])


def test_symbol_ranks_and_sorts():
    assert num(3).rank == 0 and num(3).sort == INT
    assert var("x").rank == 0
    assert MINUS_SYM.rank == 2 and MINUS_SYM.sort == INT
    assert ITE_SYM.rank == 3 and ITE_SYM.arg_sorts == (BOOL, INT, INT)
    assert LESSTHAN_SYM.sort == BOOL and LESSTHAN_SYM.arg_sorts == (INT, INT)
    assert NOT_SYM.rank == 1 and AND_SYM.rank == 2
    assert plus(4).rank == 4 and plus().rank == 2


def test_term_arity_checked():
    with pytest.raises(gr.GrammarError):
        Term(plus(2), (leaf(num(1)),))


def test_eval_componentwise():
    t = Term(plus(2), (leaf(var("x")), leaf(num(3))))
    assert eval_term(t, ex(1, 2)) == (4, 5)
    t2 = Term(MINUS_SYM, (leaf(num(0)), leaf(var("x"))))
    assert eval_term(t2, ex(5)) == (-5,)
    assert eval_term(leaf(gr.negvar("x")), ex(5, -2)) == (-5, 2)


def test_eval_nary_plus_term():
    t = Term(plus(3), (leaf(var("x")), leaf(var("x")),
                       Term(plus(3), (leaf(var("x")), leaf(var("x")), leaf(num(0))))))
    assert eval_term(t, ex(1)) == (4,)


def test_eval_ite_selects_per_coordinate():
    guard = Term(LESSTHAN_SYM, (leaf(var("x")), leaf(num(2))))
    t = Term(ITE_SYM, (guard, leaf(num(10)), leaf(var("x"))))
    assert eval_term(t, ex(1, 5)) == (10, 5)


def test_eval_ite_agrees_with_projection_sum():
    from unrealizer.booldom import neg
    guard = Term(LESSTHAN_SYM, (leaf(num(0)), leaf(var("x"))))
    a = Term(plus(2), (leaf(var("x")), leaf(var("x"))))
    b = leaf(num(7))
    t = Term(ITE_SYM, (guard, a, b))
    e = ex(-1, 0, 3)
    bvec = eval_term(guard, e)
    direct = eval_term(t, e)
    summed = tuple(p + q for p, q in zip(proj_z(eval_term(a, e), bvec),
                                         proj_z(eval_term(b, e), neg(bvec))))
    assert direct == summed


def test_eval_bool_ops():
    lt = Term(LESSTHAN_SYM, (leaf(var("x")), leaf(num(2))))
    assert eval_term(lt, ex(1, 2)) == (True, False)
    nt = Term(NOT_SYM, (lt,))
    assert eval_term(nt, ex(1, 2)) == (False, True)
    an = Term(AND_SYM, (lt, lt))
    assert eval_term(an, ex(1, 2)) == (True, False)


def test_unbound_variable_rejected():
    with pytest.raises(gr.GrammarError):
        eval_term(leaf(var("y")), ex(1))


def test_validate_clean_grammar():
    assert validate(check(g1_expanded())) == []


def test_validate_sort_mismatch():
    g = Rtg((("Start", INT),), "Start",
            (Production("Start", AND_SYM, ("Start", "Start")),))
    errors = validate(g)
    assert errors == ["Start ::= And(Start, Start): And produces Bool, "
                      "lhs has sort Int",
                      "Start ::= And(Start, Start): argument of sort Int "
                      "where Bool expected",
                      "Start ::= And(Start, Start): argument of sort Int "
                      "where Bool expected"]
    with pytest.raises(gr.GrammarError) as exc:
        check(g)
    assert str(exc.value) == "; ".join(errors)


def test_validate_unproductive_is_not_an_error():
    # X derives no finite tree: its language is empty, which is no fault
    g = Rtg((("X", INT),), "X", (Production("X", plus(2), ("X", "X")),))
    assert validate(g) == []
    assert check(g) is g


def test_validate_undeclared():
    g = Rtg((("X", INT),), "X", (Production("X", plus(2), ("X", "Y")),))
    assert validate(g) == [
        "X ::= Plus(X, Y) references undeclared nonterminal 'Y'"]


def test_expand_nary_g1_matches_hand_expansion():
    g = g1_expanded()
    assert dict(g.nonterminals) == {"Start": INT, "S1": INT, "S2": INT, "S3": INT}
    by_lhs = {}
    for p in g.productions:
        by_lhs.setdefault(p.lhs, []).append(p)
    assert str(by_lhs["S3"][0]) == "S3 ::= Var x"
    assert str(by_lhs["S2"][0]) == "S2 ::= Plus(S3, Var x)"
    assert str(by_lhs["S1"][0]) == "S1 ::= Plus(S2, Var x)"
    assert {str(p) for p in by_lhs["Start"]} == {"Start ::= Plus(S1, Start)",
                                                 "Start ::= Num 0"}


def test_expand_nary_binary_unchanged():
    g = g1_expanded()
    assert expand_nary(g) is g


def test_expand_nary_arity_two_production_untouched():
    g = Rtg((("A", INT),), "A",
            (Production("A", plus(2), (leaf(num(1)), "A")),
             Production("A", num(0), ())))
    assert expand_nary(g) is g


def test_expand_nary_nonterminal_first_argument():
    g = Rtg((("A", INT), ("B", INT)), "A",
            (Production("A", plus(3), ("B", "B", "A")),
             Production("A", num(0), ()),
             Production("B", var("x"), ())))
    e = expand_nary(g)
    assert dict(e.nonterminals) == {"A": INT, "B": INT, "S1": INT}
    strs = {str(p) for p in e.productions}
    assert "A ::= Plus(S1, A)" in strs
    assert "S1 ::= Plus(B, B)" in strs


def test_expand_nary_language_preserved():
    surface, expanded = g1_surface(), g1_expanded()
    e = ex(1, 2)
    for d in range(1, 5):
        vals_s = set(reachable_values(surface, "Start", d, e))
        vals_e = set(reachable_values(expanded, "Start", 3 * d, e))
        assert vals_s <= vals_e, f"surface depth {d} missing from expansion"
    for d in range(1, 8):
        vals_e = set(reachable_values(expanded, "Start", d, e))
        vals_s = set(reachable_values(surface, "Start", d, e))
        assert vals_e <= vals_s, f"expansion depth {d} invents values"


def test_enumerate_trees_g1_small_depths():
    g = g1_expanded()
    assert [str(t) for t in enumerate_trees(g, "Start", 1)] == ["Num 0"]
    assert [str(t) for t in enumerate_trees(g, "S3", 1)] == ["Var x"]
    d5 = list(enumerate_trees(g, "Start", 5))
    # chain unrolls: Num 0 (height 1), one Plus layer (height 4), two (height 5)
    assert [height(t) for t in d5] == [1, 4, 5]
    assert str(d5[1]) == "Plus(Plus(Plus(Var x, Var x), Var x), Num 0)"
    assert len(set(d5)) == len(d5)


def test_enumerate_trees_monotone_in_depth():
    g = g1_expanded()
    prev: set = set()
    for d in range(1, 7):
        cur = set(enumerate_trees(g, "Start", d))
        assert prev <= cur
        for t in cur:
            assert height(t) <= d
        prev = cur


def test_alias_productions():
    g = Rtg((("A", INT), ("B", INT)), "A",
            (Production("A", None, ("B",)),
             Production("A", plus(2), ("A", "B")),
             Production("B", num(1), ())))
    check(g)
    vals = reachable_values(g, "A", 4, ex(0))
    assert (1,) in vals and (2,) in vals and (3,) in vals
    trees = list(enumerate_trees(g, "A", 2))
    assert leaf(num(1)) in trees  # alias adds no node


def test_alias_sort_mismatch_rejected():
    g = Rtg((("A", INT), ("B", BOOL)), "A",
            (Production("A", None, ("B",)),
             Production("B", LESSTHAN_SYM, (leaf(num(0)), leaf(num(1)))),))
    assert validate(g) == ["A ::= B: alias target has sort Bool, lhs has Int"]


def test_reachable_values_agrees_with_tree_enumeration():
    g = g1_expanded()
    e = ex(1, 2)
    for d in range(1, 6):
        from_trees = {eval_term(t, e) for t in enumerate_trees(g, "Start", d)}
        from_values = set(reachable_values(g, "Start", d, e))
        assert from_trees == from_values


def test_reachable_values_representatives_evaluate_back():
    g = g1_expanded()
    e = ex(1, 2)
    for v, t in reachable_values(g, "Start", 6, e).items():
        assert eval_term(t, e) == v
        assert height(t) <= 6


def test_example_set_basics():
    e = example_set([{"x": 1, "y": 5}, {"x": 2, "y": 6}])
    assert e.dimension == 2
    assert e.var_vector("x") == (1, 2)
    assert e.var_vector("y") == (5, 6)
    assert e.rows[1] == (2, 6)
    with pytest.raises(gr.GrammarError):
        example_set([])


def test_zero_arity_example_set():
    e = ExampleSet((), ((), ()))
    assert e.dimension == 2
    assert eval_term(leaf(num(5)), e) == (5, 5)


def test_double_and_inc():
    t = Term(DOUBLE_SYM, (Term(INC_SYM, (leaf(num(1)),)),))
    assert eval_term(t, ex(0)) == (4,)
