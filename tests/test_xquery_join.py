"""Differential tests (hypothesis) for the evaluator's hash equi-join.

A two-``for`` FLWOR whose ``where`` is one general ``=`` between an
``$a``-only and a ``$b``-only side runs as a hash join.  Adding
``and true()`` to the ``where`` clause keeps the meaning but leaves the
join's shape, so that query runs the nested loop; both must produce
byte-identical serialized results, or raise the same error.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import XQueryError, XQueryTypeError
from repro.xmlcore import element, serialize
from repro.xquery import DynamicContext, Evaluator, evaluate_query, parse_query
from repro.xquery.runtime import is_node

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Few distinct values, so keys collide; " 1" is not "1" under string `=`.
key_values = st.sampled_from(["1", "2", "3", " 1", "z"])


@st.composite
def join_documents(draw, tag):
    """Rows with duplicate, repeated (multi-valued) and missing ``k`` keys.

    Some rows sit one level deeper, inside a ``g`` group, so ``//row``
    spans several depths.
    """
    rows = draw(st.lists(st.lists(key_values, max_size=3), max_size=6))
    root = element(tag)
    for index, keys in enumerate(rows):
        row = element(
            "row", element("name", f"{tag}{index}"), *(element("k", v) for v in keys)
        )
        root.append(element("g", row) if draw(st.booleans()) else row)
    return root


def outcome(source, d, e):
    """``("ok", serialized items)`` or ``("error", class, message)``."""
    try:
        items = evaluate_query(source, variables={"d": [d], "e": [e]})
    except XQueryError as exc:
        return ("error", type(exc), str(exc))
    return ("ok", [serialize(i) if is_node(i) else repr(i) for i in items])


def join_side(source):
    """The evaluator's shape verdict for the query body: True/False/None."""
    return Evaluator._join_side(parse_query(source).body, DynamicContext())


def both_ways(head, where, tail):
    """The join form of a query and its nested-loop twin."""
    return (
        f"{head} where {where} {tail}",
        f"{head} where {where} and true() {tail}",
    )


HEAD = "for $a in $d//row, $b in $e//row"
RETURN_PAIR = "return <p>{$a/name/text()}-{$b/name/text()}</p>"
ORIENTED = ["$a/k = $b/k", "$b/k = $a/k"]

# ---------------------------------------------------------------------------
# Join == nested loop
# ---------------------------------------------------------------------------


class TestHashJoinDifferential:
    @given(join_documents("d"), join_documents("e"), st.sampled_from(ORIENTED))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_join_matches_nested_loop(self, d, e, where):
        fast, slow = both_ways(HEAD, where, RETURN_PAIR)
        assert outcome(fast, d, e) == outcome(slow, d, e)

    @given(join_documents("d"), join_documents("e"), st.sampled_from(ORIENTED))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_order_by_and_node_results(self, d, e, where):
        fast, slow = both_ways(
            HEAD, where, "order by $b/name descending return ($b/name, $a/k)"
        )
        assert outcome(fast, d, e) == outcome(slow, d, e)

    @given(join_documents("d"), join_documents("e"))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_typed_key_falls_back(self, d, e):
        # number() yields a typed double (or raises on a multi-valued key)
        for where in ("number($a/k) = $b/k", "$b/k = number($a/k)"):
            fast, slow = both_ways(HEAD, where, RETURN_PAIR)
            assert join_side(fast) is not None
            assert outcome(fast, d, e) == outcome(slow, d, e)

    @given(join_documents("d"), join_documents("e"), st.sampled_from(ORIENTED))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_atomic_outer_items_raise_like_nested_loop(self, d, e, where):
        fast, slow = both_ways(
            "for $a in ($d//row, 'x'), $b in $e//row", where, RETURN_PAIR
        )
        expected = outcome(slow, d, e)
        assert outcome(fast, d, e) == expected
        if e.element_children:  # a non-empty inner source reaches 'x'/k
            assert expected[:2] == ("error", XQueryTypeError)

    @given(join_documents("d"), join_documents("e"))
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    def test_first_error_is_the_nested_loops(self, d, e):
        # the $b key divides by zero on a "z" key, the $a key fails on 'x':
        # whichever the nested loop reaches first must be the one raised
        b_key = "$b/k[. != 'z' or 1 idiv 0]"
        for where in (f"$a/k = {b_key}", f"{b_key} = $a/k"):
            fast, slow = both_ways(
                "for $a in ($d//row, 'x'), $b in $e//row", where, RETURN_PAIR
            )
            assert outcome(fast, d, e) == outcome(slow, d, e)

    @given(join_documents("d"), join_documents("e"))
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_non_qualifying_shapes_still_agree(self, d, e):
        for head in (
            "for $a in $d//row, $b in ($e//row, $a)",
            "for $a in $d//row, $b at $i in $e//row",
        ):
            fast, slow = both_ways(head, "$a/k = $b/k", RETURN_PAIR)
            assert join_side(fast) is None
            assert outcome(fast, d, e) == outcome(slow, d, e)


# ---------------------------------------------------------------------------
# Which FLWORs qualify
# ---------------------------------------------------------------------------


class TestJoinShape:
    @pytest.mark.parametrize(
        "source, side",
        [
            (f"{HEAD} where $a/k = $b/k return $a", True),
            (f"{HEAD} where $b/k = $a/k return $a", False),
            (f"{HEAD} where $a/k = $b/k and true() return $a", None),
            (f"{HEAD} where $a/k eq $b/k return $a", None),
            (f"{HEAD} where $a/k != $b/k return $a", None),
            (f"{HEAD} where $a/k = ($b/k, $a/k) return $a", None),
            (f"{HEAD} where $a/k = 1 return $a", None),
            ("for $a in $d//row, $b in $a/k where $a/k = $b return $a", None),
            ("for $a at $i in $d//row, $b in $e//row where $a/k = $b/k return $a", None),
            ("for $a in $d//row, $a in $e//row where $a/k = $a/k return $a", None),
            ("for $a in $d//row let $b := $e//row where $a/k = $b/k return $a", None),
            (f"{HEAD}, $c in $e//row where $a/k = $b/k return $a", None),
        ],
    )
    def test_shape(self, source, side):
        assert join_side(source) is side

    def test_empty_outer_never_evaluates_inner(self):
        # the nested loop never touches the inner source when the outer one
        # is empty, so neither may the join (the inner source would fail)
        query = "for $a in (), $b in (1 idiv 0) where $a/k = $b/k return $a"
        assert evaluate_query(query) == []

    def test_ascending_b_order_per_a(self):
        d = element("d", element("row", element("k", "1"), element("k", "2")))
        e = element(
            "e", *(element("row", element("name", n), element("k", k))
                   for n, k in (("p", "2"), ("q", "1"), ("r", "2")))
        )
        query = f"{HEAD} where $a/k = $b/k return $b/name/string()"
        assert evaluate_query(query, variables={"d": [d], "e": [e]}) == [
            "p", "q", "r"
        ]
