"""Workload inputs and their expected outputs, computed apart from the program.

This module imports nothing from ``repro``.  It takes the targets the
library's ``scaled_recovery_workload`` builds, as plain facts, and
derives from that family's construction what the program must answer:

* ``Chase^{-1}(Sigma, J)`` in closed form: ``E`` for each ``F`` fact,
  ``G`` for each ``K``-bundle, and ``A`` or ``B`` for each ``D`` fact,
  i.e. exactly ``2**ambiguous_facts`` recoveries, compared up to a
  renaming of labelled nulls;
* the certain answers of the source-projected path query, by naive
  evaluation over the benchmark's own copy of the edge set, keeping
  only null-free tuples.

Terms are plain strings in the program's text syntax: constants as
their name (``c12``), labelled nulls with a leading ``?`` (``?n3``).
A fact is ``(relation, (term, ...))``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Iterable

Fact = tuple[str, tuple[str, ...]]


def is_null(term: str) -> bool:
    return term.startswith("?")


def instance_text(facts: Iterable[Fact]) -> str:
    """Facts in the program's instance syntax, in a fixed order."""
    return "\n".join(f"{rel}({', '.join(args)})" for rel, args in sorted(facts))


def parse_fact(text: str) -> Fact:
    """A fact as the program renders it, e.g. ``E(c1, ?n2)``."""
    rel, _, rest = text.partition("(")
    return rel.strip(), tuple(t.strip() for t in rest.rstrip(")").split(","))


def expected_recoveries(target: Iterable[Fact]) -> list[frozenset]:
    """``Chase^{-1}(Sigma, J)`` read off the construction of ``J``.

    ``J`` is a ``scaled_recovery_workload`` target: every ``F`` fact is
    covered only by its ``E`` fact, every ``K``-bundle only by one ``G``
    fact (read off its ``K0`` member), and every ``D`` fact by an ``A``
    or a ``B`` fact.
    """
    base: set = set()
    d_facts: list = []
    for rel, args in target:
        if rel == "F":
            base.add(("E", args))
        elif rel == "K0":
            base.add(("G", args))
        elif rel == "D":
            d_facts.append(args)
    out = []
    for choice in product("AB", repeat=len(d_facts)):
        facts = set(base)
        facts.update(zip(choice, d_facts))
        out.append(frozenset(facts))
    return out


def path_sources(edges: Iterable[tuple], length: int = 3) -> set:
    """``q(x0) :- E(x0,x1), ..., E(x_{len-1},x_len)``, null-free answers.

    Naive evaluation: the vertices with an outgoing path of ``length``
    edges, labelled nulls joining only with themselves.
    """
    edges = list(edges)
    reach = {x for x, _ in edges}
    for _ in range(length - 1):
        reach = {x for x, y in edges if y in reach}
    return {(x,) for x in reach if not is_null(x)}


def path_query_text(length: int = 3) -> str:
    body = ", ".join(f"E(p{i}, p{i + 1})" for i in range(length))
    return f"q(p0) :- {body}"


# -- comparison up to renaming of labelled nulls --------------------------------


def _pattern(fact: Fact) -> tuple:
    rel, args = fact
    return (rel, tuple(None if is_null(t) else t for t in args))


def isomorphic(left: frozenset, right: frozenset) -> bool:
    """Whether a bijective renaming of nulls maps ``left`` onto ``right``."""
    if left == right:
        return True
    if len(left) != len(right):
        return False
    left_nulled = [f for f in left if any(is_null(t) for t in f[1])]
    right_nulled = [f for f in right if any(is_null(t) for t in f[1])]
    if left.difference(left_nulled) != right.difference(right_nulled):
        return False
    if Counter(map(_pattern, left_nulled)) != Counter(map(_pattern, right_nulled)):
        return False
    candidates: dict = {}
    for fact in right_nulled:
        candidates.setdefault(_pattern(fact), []).append(fact)
    # Visit facts that share nulls one after another, so a wrong choice
    # fails close to where it was made.
    order: list = []
    seen: set = set()
    by_null: dict = {}
    for fact in left_nulled:
        for t in fact[1]:
            if is_null(t):
                by_null.setdefault(t, []).append(fact)
    for start in sorted(left_nulled):
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            fact = queue.pop()
            order.append(fact)
            for t in fact[1]:
                for other in by_null.get(t, ()):
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
    forward: dict = {}
    backward: dict = {}
    used: set = set()

    def pool_for(index: int) -> list:
        fact = order[index]
        pool = candidates[_pattern(fact)]
        # The identical fact first: renamings are usually the identity.
        return [fact] + [f for f in pool if f != fact] if fact in pool else pool

    # Each frame: [index, its candidate list, next position, the
    # bindings its parent's choice made (undone when it is popped)].
    stack: list = [[0, pool_for(0) if order else [], 0, []]]
    while stack:
        frame = stack[-1]
        index, pool, pos, _ = frame
        if index == len(order):
            return True
        fact = order[index]
        while pos < len(pool):
            image = pool[pos]
            pos += 1
            if image in used:
                continue
            made = []
            for a, b in zip(fact[1], image[1]):
                if not is_null(a):
                    continue
                bound = forward.get(a)
                if bound is None and b not in backward:
                    forward[a] = b
                    backward[b] = a
                    made.append(a)
                elif bound != b:
                    break
            else:
                used.add(image)
                frame[2] = pos
                nxt = index + 1
                stack.append(
                    [nxt, pool_for(nxt) if nxt < len(order) else [], 0, (made, image)]
                )
                break
            for a in made:
                del backward[forward.pop(a)]
        else:
            stack.pop()
            if frame[3]:
                made, image = frame[3]
                used.discard(image)
                for a in made:
                    del backward[forward.pop(a)]
    return False


def same_recoveries(expected: list, actual: list) -> bool:
    """Whether two recovery lists agree as sets up to null renaming."""
    if len(expected) != len(actual):
        return False
    remaining = list(actual)
    for want in expected:
        for i, got in enumerate(remaining):
            if isomorphic(want, got):
                del remaining[i]
                break
        else:
            return False
    return True
