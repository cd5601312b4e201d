"""The three workloads: closed loop, one client, whole rounds of operations.

Every workload measures the same four operation kinds, each the way its
users meet it (see README.md):

* ``recover``: Chase^-1 of a freshly built target;
* ``certain``: the first certain answer on a freshly built target;
* ``update``: a single-fact insert or delete, then the certain answer on
  the changed target;
* ``repeat`` (churn only): an identical repeat of the last ``/certain``.

Each round makes the same operations whatever the seed, so the share of
failed operations cannot depend on the run.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random

import oracle
from recorder import Recorder

from repro.core.certain import certain_answer
from repro.core.inverse_chase import inverse_chase
from repro.data.atoms import Atom
from repro.data.terms import Constant, Null
from repro.logic.parser import parse_query
from repro.service import ServiceConfig, running_server
from repro.workloads.generators import scaled_recovery_workload

#: ``scaled_recovery_workload`` parameters of each workload's targets.
BULK = {"facts": 1500, "domain_size": 1500 // 16}
FANOUT = {"facts": 150, "head_width": 3, "null_density": 0.1, "ambiguous_facts": 4}
CHURN = {"facts": 2000}
#: The mapping ``scaled_recovery_workload`` builds for ``CHURN``.
CHURN_TGDS = "E(x0, x1) -> F(x0, x1)"
#: churn: single-fact deltas on the long-lived view per round, rounds
#: one long-lived view lasts before the round's fresh view replaces it,
#: and identical repeats of the ``/certain`` read after each delta.
CHURN_DELTAS = 3
LIVE_ROUNDS = 8
CHURN_REPEATS = 6
QUERY = oracle.path_query_text(3)


def _term(text: str):
    return Null(text[1:]) if oracle.is_null(text) else Constant(text)


def _atom(fact) -> Atom:
    rel, args = fact
    return Atom(rel, [_term(t) for t in args])


def _plain(instance) -> frozenset:
    return frozenset((a.relation, tuple(str(t) for t in a.args)) for a in instance.facts)


def _answers(answers) -> set:
    return {tuple(str(t) for t in row) for row in answers}


def _mismatch(what: str, want, got) -> str:
    want, got = set(want), set(got)
    return (
        f"{what}: {len(want - got)} expected answers missing, "
        f"{len(got - want)} unexpected"
    )


def _fresh_edge(rng: random.Random, edges: set, tried: set, domain: int) -> tuple:
    """An F edge over existing vertices that was never in the target."""
    while True:
        edge = (f"c{rng.randrange(domain)}", f"c{rng.randrange(domain)}")
        if edge not in edges and edge not in tried:
            tried.add(edge)
            return edge


def _domain(shape: dict) -> int:
    return shape.get("domain_size") or max(16, shape["facts"] // 8)


def library(rec: Recorder, seed: int, shape: dict) -> None:
    """``bulk`` and ``fanout``: direct library calls with default options.

    Round ``r`` works on the target of seed ``1000 * seed + r``: a run's
    central value then averages over a dozen targets, so it depends less
    on which targets one seed happens to draw.
    """
    mapping = scaled_recovery_workload(seed, **shape)[0]
    query = parse_query(QUERY)
    domain = _domain(shape)
    rng = random.Random(seed)

    def answer_check(edges):
        want = oracle.path_sources(edges)

        def check(answers) -> str:
            got = _answers(answers)
            return "" if got == want else _mismatch("certain", want, got)

        return check

    while rec.more():
        round_seed = 1000 * seed + rec.rounds
        target = _plain(scaled_recovery_workload(round_seed, **shape)[1])
        want_recoveries = oracle.expected_recoveries(target)

        def fresh_instance():
            return rec.timed_setup(
                lambda: scaled_recovery_workload(round_seed, **shape)[1]
            )

        def check_recoveries(recoveries) -> str:
            got = [_plain(r) for r in recoveries]
            if not oracle.same_recoveries(want_recoveries, got):
                return (
                    f"{len(got)} recoveries differ from the "
                    f"{len(want_recoveries)} closed-form recoveries"
                )
            return ""

        originals = sorted(args for rel, args in target if rel == "F")
        edges = set(originals)
        rec.calibrate()
        instance = fresh_instance()
        rec.op("recover", lambda: inverse_chase(mapping, instance), check_recoveries, cold=True)
        rec.calibrate()
        instance = fresh_instance()
        rec.op(
            "certain",
            lambda: certain_answer(query, mapping, instance),
            answer_check(edges),
            cold=True,
        )
        # The update follows on the same instance, as a library user
        # would evolve the target they just queried.
        rec.calibrate()
        if rec.rounds % 2 == 0:
            edge = _fresh_edge(rng, edges, set(), domain)
            change = {"add": [_atom(("F", edge))]}
            edges.add(edge)
        else:
            edge = originals[rng.randrange(len(originals))]
            change = {"remove": [_atom(("F", edge))]}
            edges.discard(edge)
        rec.op(
            "update",
            lambda: certain_answer(query, mapping, instance.evolve(**change)),
            answer_check(edges),
        )
        rec.rounds += 1


class _Client:
    """A closed-loop HTTP client: one connection per request."""

    def __init__(self, base: str):
        host, port = base.rsplit("//", 1)[1].split(":")
        self.host, self.port = host, int(port)

    def post(self, path: str, body: dict) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            connection.request(
                "POST", path, json.dumps(body), {"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        if response.status != 200 and response.status != 201:
            raise RuntimeError(f"HTTP {response.status}: {payload.get('error')}")
        return payload


def churn(rec: Recorder, seed: int) -> None:
    """``churn``: fact deltas beside reads, through the loopback service.

    Round ``r`` boots a server, materializes a fresh view of the target
    of seed ``1000 * seed + r`` and asks its first ``/certain``, for the
    same reason as in :func:`library`.  Then it applies ``CHURN_DELTAS``
    deltas to the long-lived view: the fresh view of every
    ``LIVE_ROUNDS``-th round, kept (with its server) until the next one
    replaces it, so each view carries a chain of
    ``CHURN_DELTAS * LIVE_ROUNDS`` deltas whatever the run length.
    """
    domain = _domain(CHURN)
    rng = random.Random(seed)
    certain_body = {"mapping": "m", "query": QUERY}
    recover_body = {"mapping": "m"}

    def read_check(want, cached: bool):
        def check(payload) -> str:
            if payload.get("cached") is not cached:
                return f"cached={payload.get('cached')}, expected {cached}"
            got = {tuple(row) for row in payload["result"]["answers"]}
            return "" if got == want else _mismatch("certain", want, got)

        return check

    def view_check(facts: int):
        def check(payload) -> str:
            view = payload["view"]
            if not view["valid"] or view["facts"] != facts:
                return f"view {view}, expected {facts} facts and valid"
            return ""

        return check

    def recover_check(edges):
        want = oracle.expected_recoveries(("F", e) for e in edges)

        def check(payload) -> str:
            got = [
                frozenset(map(oracle.parse_fact, facts))
                for facts in payload["result"]["recoveries"]
            ]
            if not oracle.same_recoveries(want, got):
                return f"{len(got)} view recoveries differ from the closed form"
            return ""

        return check

    live = None  # (server stack, client, edge set, original edges, tried)
    try:
        while rec.more():
            target = _plain(scaled_recovery_workload(1000 * seed + rec.rounds, **CHURN)[1])
            edges = {args for _, args in target}
            rec.calibrate()
            stack = contextlib.ExitStack()

            def boot():
                _, base = stack.enter_context(running_server(ServiceConfig(port=0)))
                client = _Client(base)
                client.post("/mappings", {"tgds": CHURN_TGDS, "name": "m"})
                return client, oracle.instance_text(target)

            client, text = rec.timed_setup(boot)
            rec.op(
                "recover",
                lambda: client.post("/mappings/m/facts", {"target": text}),
                view_check(len(edges)),
                cold=True,
            )
            rec.op(
                "certain",
                lambda: client.post("/certain", certain_body),
                read_check(oracle.path_sources(edges), False),
            )
            if rec.rounds % LIVE_ROUNDS == 0:
                if live is not None:
                    live[0].close()
                live = (stack, client, edges, sorted(edges), set(edges))
            else:
                stack.close()
            _, client, edges, originals, tried = live
            for k in range(CHURN_DELTAS):
                if (rec.rounds * CHURN_DELTAS + k) % 2 == 0:
                    edge = _fresh_edge(rng, edges, tried, domain)
                    body = {"add": oracle.instance_text([("F", edge)])}
                    edges.add(edge)
                else:
                    present = [e for e in originals if e in edges]
                    edge = present[rng.randrange(len(present))]
                    body = {"remove": oracle.instance_text([("F", edge)])}
                    edges.discard(edge)
                want = oracle.path_sources(edges)
                applied_check = view_check(len(edges))
                rec.calibrate(1)

                def update():
                    problem = applied_check(client.post("/mappings/m/facts", body))
                    if problem:
                        raise RuntimeError(problem)
                    return client.post("/certain", certain_body)

                rec.op("update", update, read_check(want, False))
                for _ in range(CHURN_REPEATS):
                    rec.op(
                        "repeat",
                        lambda: client.post("/certain", certain_body),
                        read_check(want, True),
                    )
            # The maintained recovery itself, after this round's deltas.
            rec.op("audit", lambda: client.post("/recover", recover_body), recover_check(edges))
            rec.rounds += 1
    finally:
        if live is not None:
            live[0].close()
