"""Tests for the repro.lint static-analysis subsystem.

Three groups:

- **rule fixtures** — good/bad source snippets asserting each Layer-1
  rule fires exactly where expected (and nowhere on the good variant);
- **invariant analyzer** — hand-built topologies with deliberately
  invalid routing tables (valleys, route leaks, malformed equal-best
  sets) that Layer 2 must catch, and engine-computed tables it must not
  complain about;
- **gates** — Layer 1 over the real source tree and Layer 2 over the
  golden small world must stay clean, so the analyzers guard every PR.
"""

from __future__ import annotations

import json
import re
import textwrap
from pathlib import Path

from repro.geo.atlas import load_default_atlas
from repro.lint import (
    analyze_world,
    check_catchments,
    check_registry,
    check_table,
    default_target,
    lint_paths,
    lint_source,
)
from repro.lint.findings import RULES
from repro.measurement.engine import ServiceRegistry
from repro.netaddr.ipv4 import IPv4Address, IPv4Prefix
from repro.routing.engine import RoutingEngine, RoutingTable
from repro.routing.route import Announcement, OriginSpec, PrefTier, Route, RouteChoice
from repro.topology.asys import (
    AutonomousSystem,
    Interconnect,
    Link,
    LinkKind,
    PoP,
    Tier,
)
from repro.topology.graph import Topology

ATLAS = load_default_atlas()
PREFIX = IPv4Prefix.parse("198.18.0.0/24")


def lint(snippet: str) -> list:
    return lint_source(textwrap.dedent(snippet), "snippet.py")


def fired(snippet: str) -> list[tuple[str, int]]:
    return [(f.rule, f.line) for f in lint(snippet)]


# ======================================================================
# Layer 1: rule fixtures
# ======================================================================
class TestUnseededRandom:
    def test_global_module_call(self):
        assert fired(
            """\
            import random

            def jitter():
                return random.random()
            """
        ) == [("unseeded-random", 4)]

    def test_aliased_import(self):
        assert fired(
            """\
            import random as rnd

            rnd.shuffle([1, 2])
            """
        ) == [("unseeded-random", 3)]

    def test_from_import_function(self):
        assert fired(
            """\
            from random import choice

            pick = choice([1, 2])
            """
        ) == [("unseeded-random", 3)]

    def test_numpy_global(self):
        assert fired(
            """\
            import numpy as np

            noise = np.random.normal(0.0, 1.0)
            """
        ) == [("unseeded-random", 3)]

    def test_unseeded_constructor(self):
        assert fired(
            """\
            import random

            rng = random.Random()
            """
        ) == [("unseeded-random", 3)]

    def test_seeded_instances_are_clean(self):
        assert fired(
            """\
            import random
            import numpy as np

            rng = random.Random(42)
            npr = np.random.default_rng(7)
            x = rng.random()
            y = npr.normal(0.0, 1.0)
            """
        ) == []

    def test_unrelated_module_named_random_attr(self):
        # A local object's .random() method is not the global RNG.
        assert fired(
            """\
            class Box:
                def random(self):
                    return 4

            value = Box().random()
            """
        ) == []


class TestFloatEquality:
    def test_float_literal_comparison(self):
        assert fired("ok = x == 0.3\n") == [("float-equality", 1)]

    def test_not_equal_and_division(self):
        assert fired("bad = total != parts / 3\n") == [("float-equality", 1)]

    def test_float_cast(self):
        assert fired("flag = float(x) == y\n") == [("float-equality", 1)]

    def test_clean_comparisons(self):
        assert fired(
            """\
            a = x == 3
            b = x <= 1.0
            c = abs(x - y) < 1e-9
            """
        ) == []


class TestMutableDefault:
    def test_list_and_dict_defaults(self):
        assert fired(
            """\
            def f(x, acc=[]):
                return acc

            def g(m={}):
                return m
            """
        ) == [("mutable-default", 1), ("mutable-default", 4)]

    def test_constructor_call_default(self):
        assert fired("def f(s=set()):\n    return s\n") == [
            ("mutable-default", 1)
        ]

    def test_lambda_default(self):
        assert fired("f = lambda x, s=[]: s\n") == [("mutable-default", 1)]

    def test_clean_defaults(self):
        assert fired(
            """\
            def f(x, acc=None, pair=(), name="x", n=3):
                return acc
            """
        ) == []


class TestSetIteration:
    def test_for_over_set_literal(self):
        assert fired(
            """\
            for x in {1, 2, 3}:
                print(x)
            """
        ) == [("set-iteration", 1)]

    def test_comprehension_over_set_call(self):
        assert fired("ys = [y for y in set(xs)]\n") == [("set-iteration", 1)]

    def test_list_of_set(self):
        assert fired("ys = list({a, b})\n") == [("set-iteration", 1)]

    def test_join_of_set(self):
        assert fired('text = ",".join(set(names))\n') == [
            ("set-iteration", 1)
        ]

    def test_set_algebra(self):
        assert fired("ys = list(set(a) - set(b))\n") == [("set-iteration", 1)]

    def test_sorted_and_order_insensitive_uses_are_clean(self):
        assert fired(
            """\
            for x in sorted(set(xs)):
                print(x)
            ok = 3 in {1, 2, 3}
            n = len(set(xs))
            m = max(set(xs))
            """
        ) == []


class TestBareExcept:
    def test_bare_except(self):
        assert fired(
            """\
            try:
                work()
            except:
                pass
            """
        ) == [("bare-except", 3)]

    def test_typed_except_is_clean(self):
        assert fired(
            """\
            try:
                work()
            except Exception:
                pass
            """
        ) == []


class TestAllDrift:
    def test_missing_name(self):
        findings = lint(
            """\
            __all__ = ["present", "missing"]

            def present():
                return 1
            """
        )
        assert [(f.rule, f.line) for f in findings] == [("all-drift", 1)]
        assert "missing" in findings[0].message

    def test_defined_names_including_imports_and_branches(self):
        assert fired(
            """\
            __all__ = ["present", "os", "maybe", "fallback"]

            import os

            def present():
                return 1

            if os.name == "posix":
                maybe = 1
            else:
                maybe = 2

            try:
                from os import path as fallback
            except ImportError:
                fallback = None
            """
        ) == []


class TestGlobalMutableState:
    def test_write_to_imported_module_fires(self):
        assert fired(
            """\
            import repro.par.cache as cache
            from repro import obs

            def poke():
                cache._ENGINE_FP = None
                obs.recorder._CURRENT = None
            """
        ) == [("global-mutable-state", 5), ("global-mutable-state", 6)]

    def test_augmented_annotated_and_del_fire(self):
        assert fired(
            """\
            import config

            def poke():
                config.LIMIT += 1
                config.NAME: str = "x"
                del config.OLD
            """
        ) == [
            ("global-mutable-state", 4),
            ("global-mutable-state", 5),
            ("global-mutable-state", 6),
        ]

    def test_tuple_target_and_local_import_fire(self):
        assert fired(
            """\
            def poke():
                from repro.topology import flat

                flat.A, x = 1, 2
            """
        ) == [("global-mutable-state", 4)]

    def test_own_and_local_state_is_clean(self):
        assert fired(
            """\
            import config

            _MEMO = {}

            class Box:
                def __init__(self):
                    self.value = config.LIMIT

            def fill(box, key):
                box.value = 1
                _MEMO[key] = config.LIMIT
            """
        ) == []


class TestCaptureStateLeak:
    _PAIR = """\
        _CURRENT = None
        _OTHER = 0


        def install(obj):
            global _CURRENT
            _CURRENT = obj


        def uninstall():
            global _CURRENT
            _CURRENT = None


        def capturing(obj):
            global _CURRENT
            _CURRENT = obj
        """

    def test_sanctioned_pattern_is_clean(self):
        assert fired(self._PAIR) == []

    def test_unsanctioned_rebind_fires(self):
        assert fired(self._PAIR + """\


        def hijack(obj):
            global _CURRENT, _OTHER
            _OTHER += 1
            _CURRENT = obj
        """) == [("capture-state-leak", 23)]

    def test_method_and_nested_writers_fire(self):
        assert fired(self._PAIR + """\


        class Session:
            def start(self, obj):
                global _CURRENT
                _CURRENT = obj


        def install_later(obj):
            def inner():
                global _CURRENT
                del _CURRENT
            return inner
        """) == [("capture-state-leak", 23), ("capture-state-leak", 29)]

    def test_module_without_uninstall_is_not_checked(self):
        assert fired(
            """\
            _CURRENT = None


            def install(obj):
                global _CURRENT
                _CURRENT = obj


            def hijack(obj):
                global _CURRENT
                _CURRENT = obj
            """
        ) == []


class TestObsSpanLiteral:
    def test_fstring_span_name_fires(self):
        assert fired(
            """\
            from repro import obs

            def run(name, world):
                with obs.span(f"experiment.{name}"):
                    return world
            """
        ) == [("obs-span-literal", 4)]

    def test_literal_span_name_is_clean(self):
        assert fired(
            """\
            from repro import obs

            with obs.span("routing.compute", prefix="x"):
                pass
            """
        ) == []

    def test_variable_span_name_fires(self):
        assert fired(
            """\
            from repro import obs

            label = "a" + "b"
            with obs.span(label):
                pass
            """
        ) == [("obs-span-literal", 4)]

    def test_non_dotted_literal_fires(self):
        findings = lint(
            """\
            from repro import obs

            with obs.span("has spaces!"):
                pass
            """
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("obs-span-literal", 3)
        ]
        assert "has spaces!" in findings[0].message

    def test_direct_span_import_fires(self):
        assert fired(
            """\
            from repro.obs import span

            def timed(stage):
                with span("stage." + stage):
                    pass
            """
        ) == [("obs-span-literal", 4)]

    def test_unrelated_span_function_is_ignored(self):
        assert fired(
            """\
            class Doc:
                def span(self, text):
                    return text

            Doc().span(f"free-form {1}")
            """
        ) == []

    def test_disable_comment_suppresses(self):
        assert fired(
            """\
            from repro import obs

            def run(name):
                with obs.span(f"experiment.{name}"):  # repro-lint: disable=obs-span-literal -- fixture
                    pass
            """
        ) == []


class TestObsWorkerSpanLiteral:
    """``obs-span-literal`` inside par worker entrypoints.

    A worker's spans cross the process boundary into the parent's
    trace, so a dynamic name there must be reported like any other.
    """

    def test_dynamic_span_in_worker_fires(self):
        assert fired(
            """\
            from repro import obs
            from repro.par import obsbuf

            def _work_chunk(task):
                obsbuf.start_capture(True, chunk_index=task[1])
                with obs.span(f"work.{task[0]}"):
                    return task
            """
        ) == [("obs-span-literal", 6)]

    def test_direct_start_capture_import_fires(self):
        assert fired(
            """\
            from repro import obs
            from repro.par.obsbuf import start_capture

            def _work_chunk(task):
                start_capture(True)
                with obs.span("bad name!"):
                    return task
            """
        ) == [("obs-span-literal", 6)]

    def test_literal_span_in_worker_is_clean(self):
        assert fired(
            """\
            from repro import obs
            from repro.par import obsbuf

            def _work_chunk(task):
                obsbuf.start_capture(True)
                with obs.span("routing.compute", key=task):
                    return task
            """
        ) == []

    def test_dynamic_span_outside_worker_fires_base_rule_only(self):
        assert fired(
            """\
            from repro import obs
            from repro.par import obsbuf

            def _work_chunk(task):
                obsbuf.start_capture(True)
                return task

            def elsewhere(name):
                with obs.span(f"free.{name}"):
                    pass
            """
        ) == [("obs-span-literal", 9)]

    def test_nested_function_inside_worker_fires(self):
        assert fired(
            """\
            from repro import obs
            from repro.par import obsbuf

            def _work_chunk(task):
                obsbuf.start_capture(True)
                def inner(name):
                    with obs.span("x" + name):
                        pass
                return inner(task)
            """
        ) == [("obs-span-literal", 7)]

    def test_unrelated_start_capture_is_ignored(self):
        assert fired(
            """\
            from repro import obs

            class Cam:
                def start_capture(self):
                    pass

            def shoot(cam, name):
                cam.start_capture()
                with obs.span(f"photo.{name}"):
                    pass
            """
        ) == [("obs-span-literal", 9)]


class TestExplainEventLiteral:
    def test_literal_event_name_is_clean(self):
        assert fired(
            """\
            from repro.explain import provenance

            provenance.emit("routing.table-computed", routed=12)
            """
        ) == []

    def test_fstring_event_name_fires(self):
        assert fired(
            """\
            from repro.explain import provenance

            def done(prefix):
                provenance.emit(f"routing.{prefix}")
            """
        ) == [("explain-event-literal", 4)]

    def test_non_dotted_literal_fires(self):
        findings = lint(
            """\
            from repro.explain import provenance

            provenance.emit("free text name")
            """
        )
        assert [(f.rule, f.line) for f in findings] == [
            ("explain-event-literal", 3)
        ]
        assert "free text name" in findings[0].message

    def test_bare_emit_import_fires(self):
        assert fired(
            """\
            from repro.explain.provenance import emit

            def done(n):
                emit("routing." + str(n))
            """
        ) == [("explain-event-literal", 4)]

    def test_aliased_module_import_fires(self):
        assert fired(
            """\
            import repro.explain.provenance as prov

            label = "a" + "b"
            prov.emit(label)
            """
        ) == [("explain-event-literal", 4)]

    def test_unrelated_emit_attribute_is_ignored(self):
        # Arbitrary .emit attributes (loggers, signal buses) take free-
        # form payloads; only the provenance facade is checked.
        assert fired(
            """\
            class Bus:
                def emit(self, payload):
                    return payload

            Bus().emit(f"free-form {1}")
            """
        ) == []

    def test_disable_comment_suppresses(self):
        assert fired(
            """\
            from repro.explain import provenance

            def done(name):
                provenance.emit(f"x.{name}")  # repro-lint: disable=explain-event-literal -- fixture
            """
        ) == []


class TestDisableComments:
    def test_disable_suppresses_named_rule(self):
        assert fired(
            """\
            import random

            x = random.random()  # repro-lint: disable=unseeded-random -- fixture
            """
        ) == []

    def test_disable_all(self):
        assert fired(
            """\
            import random

            x = random.random()  # repro-lint: disable=all
            """
        ) == []

    def test_disable_is_line_scoped(self):
        assert fired(
            """\
            import random

            x = random.random()  # repro-lint: disable=unseeded-random
            y = random.random()
            """
        ) == [("unseeded-random", 4)]

    def test_disable_other_rule_does_not_suppress(self):
        assert fired(
            """\
            import random

            x = random.random()  # repro-lint: disable=bare-except
            """
        ) == [("unseeded-random", 3)]

    def test_multi_rule_disable_line(self):
        # One comment naming several rules suppresses each of them on
        # that line.
        source = textwrap.dedent("""\
            import random

            def f(x=[]):  # repro-lint: disable=mutable-default, unseeded-random -- both
                x.append(random.random())
                return x
        """)
        findings = lint_source(source)
        assert not [f for f in findings if f.line == 3]
        # The rules still fire on lines the comment does not cover.
        assert any(f.rule == "unseeded-random" and f.line == 4
                   for f in findings)

    def test_unknown_rule_id_is_reported(self):
        findings = lint("x = 1  # repro-lint: disable=bogus-rule\n")
        assert [(f.rule, f.line) for f in findings] == [("parse-error", 1)]
        assert "bogus-rule" in findings[0].message

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert [f.rule for f in findings] == ["parse-error"]

    def test_syntax_error_reported_by_lint_paths(self, tmp_path):
        # One unparsable file is reported and the rest of the tree is
        # still linted.
        (tmp_path / "broken.py").write_text("x = 1\ndef broken(:\n",
                                            encoding="utf-8")
        (tmp_path / "bad.py").write_text(
            "import random\nx = random.random()\n", encoding="utf-8")
        findings = lint_paths([tmp_path])
        assert [(Path(f.path).name, f.line, f.rule) for f in findings] == [
            ("bad.py", 2, "unseeded-random"),
            ("broken.py", 2, "parse-error"),
        ]

    def test_every_rule_id_valid_in_disable_comment(self):
        for rule_id in RULES:
            source = f"x = 1  # repro-lint: disable={rule_id} -- fixture\n"
            assert lint(source) == [], rule_id

    def test_every_finding_cites_a_registered_rule(self):
        findings = lint(
            """\
            import random
            x = random.random()
            try:
                pass
            except:
                pass
            """
        )
        assert findings
        assert all(f.rule in RULES for f in findings)
        assert all(f.hint for f in findings)


# ======================================================================
# Layer 2: invariant analyzer on hand-built topologies
# ======================================================================
class Net:
    """Terse topology construction (mirrors tests/test_routing.py)."""

    def __init__(self):
        self.topo = Topology()
        self._addr = 167772160  # 10.0.0.0

    def node(self, nid, iata="FRA", tier=Tier.TRANSIT):
        self.topo.add_node(
            AutonomousSystem(
                node_id=nid, asn=nid, name=f"as{nid}", tier=tier,
                home_country=ATLAS.get(iata).country,
                pops=(PoP(city=ATLAS.get(iata)),),
            )
        )
        return nid

    def _ic(self, iata):
        a = IPv4Address(self._addr)
        b = IPv4Address(self._addr + 1)
        self._addr += 2
        return Interconnect(city=ATLAS.get(iata), addr_a=a, addr_b=b)

    def transit(self, customer, provider, iata="FRA"):
        self.topo.add_link(Link(a=customer, b=provider, kind=LinkKind.TRANSIT,
                                interconnects=(self._ic(iata),)))

    def peer(self, a, b, iata="FRA"):
        self.topo.add_link(Link(a=a, b=b, kind=LinkKind.PEER_PRIVATE,
                                interconnects=(self._ic(iata),)))


def route(path, tier):
    return Route(prefix=PREFIX, origin=path[-1], path=tuple(path), tier=tier)


def table(topo, best, origins=(1,)):
    ann = Announcement(
        prefix=PREFIX, origins=tuple(OriginSpec(site_node=o) for o in origins)
    )
    choices = {n: RouteChoice(routes=tuple(rs)) for n, rs in best.items()}
    return RoutingTable.from_rows(ann, topo.version, topo.num_nodes, (
        (n, int(c.tier), [r.path for r in c.routes]) for n, c in choices.items()
    ))


def forged_choice(routes):
    """Bypass RouteChoice validation — the analyzer must not trust it."""
    choice = object.__new__(RouteChoice)
    object.__setattr__(choice, "routes", tuple(routes))
    return choice


class TestInvariantViolations:
    def test_valley_violating_route_is_named(self):
        # 1 (origin) --customer--> 2;  2 ~peer~ 3;  3 ~peer~ 4.
        # A route at 4 crossed two peering edges: not valley-free.
        net = Net()
        for nid in (1, 2, 3, 4):
            net.node(nid)
        net.transit(1, 2)
        net.peer(2, 3)
        net.peer(3, 4)
        t = table(net.topo, {
            1: [route((1,), PrefTier.ORIGIN)],
            2: [route((2, 1), PrefTier.CUSTOMER)],
            3: [route((3, 2, 1), PrefTier.PEER)],
            4: [route((4, 3, 2, 1), PrefTier.PEER)],
        })
        findings = check_table(net.topo, t)
        valley = [f for f in findings if f.check == "valley-free"]
        assert valley, findings
        assert "4<-3<-2<-1" in valley[0].subject
        # The same route is also a leak: 3 re-exported a peer route.
        assert any(
            f.check == "export-rules" and "leak" in f.message
            for f in findings
        )

    def test_provider_to_peer_route_leak_is_named(self):
        # 3 learned the route from its provider 2 and leaked it to peer 4.
        net = Net()
        for nid in (1, 2, 3, 4):
            net.node(nid)
        net.transit(1, 2)
        net.transit(3, 2)
        net.peer(3, 4)
        t = table(net.topo, {
            1: [route((1,), PrefTier.ORIGIN)],
            2: [route((2, 1), PrefTier.CUSTOMER)],
            3: [route((3, 2, 1), PrefTier.PROVIDER)],
            4: [route((4, 3, 2, 1), PrefTier.PEER)],
        })
        findings = check_table(net.topo, t)
        leaks = [
            f for f in findings
            if f.check == "export-rules" and "leak" in f.message
        ]
        assert leaks, findings
        assert "PROVIDER" in leaks[0].message
        assert "4<-3<-2<-1" in leaks[0].subject

    def test_tier_relationship_mismatch(self):
        # Node 2 is node 1's provider, yet the route claims PEER tier.
        net = Net()
        net.node(1)
        net.node(2)
        net.transit(1, 2)
        t = table(net.topo, {
            2: [route((2,), PrefTier.ORIGIN)],
            1: [route((1, 2), PrefTier.PEER)],
        }, origins=(2,))
        findings = check_table(net.topo, t)
        assert any(
            f.check == "export-rules" and "does not match" in f.message
            for f in findings
        )

    def test_origin_restriction_violation(self):
        net = Net()
        net.node(1)
        net.node(2)
        net.transit(1, 2)
        ann = Announcement(
            prefix=PREFIX,
            origins=(OriginSpec(site_node=1, neighbors=frozenset()),),
        )
        t = RoutingTable.from_rows(ann, net.topo.version, net.topo.num_nodes, [
            (1, PrefTier.ORIGIN, [(1,)]),
            (2, PrefTier.CUSTOMER, [(2, 1)]),
        ])
        findings = check_table(net.topo, t)
        assert any(
            f.check == "export-rules" and "restriction" in f.message
            for f in findings
        )

    def test_malformed_equal_best_set(self):
        net = Net()
        for nid in (1, 2, 3):
            net.node(nid)
        net.transit(1, 2)
        net.transit(1, 3)
        net.transit(2, 3)
        mixed = forged_choice([
            route((2, 1), PrefTier.CUSTOMER),
            route((2, 3, 1), PrefTier.PEER),
        ])
        t = table(net.topo, {
            1: [route((1,), PrefTier.ORIGIN)],
            3: [route((3, 1), PrefTier.CUSTOMER)],
        })
        # The packed view is read-only and holds one tier per node, so
        # the forged set rides in a plain mapping over the table's rows.
        t.best = {**t.best, 2: mixed}
        findings = check_table(net.topo, t)
        assert any(
            f.check == "equal-best" and "mixes" in f.message for f in findings
        )

    def test_primary_not_hot_potato_minimum(self):
        # Node 4 (FRA) holds two equal peer routes; the one crossing in
        # Singapore is listed first — not the hot-potato primary.
        net = Net()
        net.node(1, iata="FRA")
        net.node(2, iata="SIN")
        net.node(3, iata="FRA")
        net.node(4, iata="FRA")
        net.transit(1, 2, iata="SIN")
        net.transit(1, 3, iata="FRA")
        net.peer(4, 2, iata="SIN")
        net.peer(4, 3, iata="FRA")
        t = table(net.topo, {
            1: [route((1,), PrefTier.ORIGIN)],
            2: [route((2, 1), PrefTier.CUSTOMER)],
            3: [route((3, 1), PrefTier.CUSTOMER)],
            4: [route((4, 2, 1), PrefTier.PEER),
                route((4, 3, 1), PrefTier.PEER)],
        })
        findings = check_table(net.topo, t)
        assert any(
            f.check == "equal-best" and "hot-potato" in f.message
            for f in findings
        )

    def test_catchment_incompleteness(self):
        net = Net()
        for nid in (1, 2, 3):
            net.node(nid)
        net.transit(1, 2)
        net.transit(3, 2)
        t = table(net.topo, {
            1: [route((1,), PrefTier.ORIGIN)],
            2: [route((2, 1), PrefTier.CUSTOMER)],
            # node 3 deliberately has no route
        })
        findings = check_catchments(net.topo, t)
        assert any(
            f.check == "catchment" and "node 3" in f.subject for f in findings
        )
        assert check_catchments(
            net.topo, t, require_full_reachability=False
        ) == []

    def test_registry_shadowed_service_address(self):
        registry = ServiceRegistry()
        coarse = Announcement(
            prefix=IPv4Prefix.parse("10.0.0.0/8"),
            origins=(OriginSpec(site_node=1),),
        )
        fine = Announcement(
            prefix=IPv4Prefix.parse("10.0.0.0/16"),
            origins=(OriginSpec(site_node=2),),
        )
        registry.register(coarse)
        # register() itself guards the canonical address, so forge the
        # shadowing prefix straight into the trie — the analyzer must
        # not trust the registration path to have been used.
        registry._trie_insert(fine)
        findings = check_registry(registry)
        assert any(
            f.check == "registry-lpm" and "10.0.0.0/8" in f.subject
            for f in findings
        )


class TestInvariantsHoldOnComputedTables:
    def test_engine_tables_are_clean_on_tiny_topology(self, tiny_topology):
        origin = min(
            n.node_id for n in tiny_topology.nodes() if n.tier is Tier.STUB
        )
        ann = Announcement.from_sites(PREFIX, [origin])
        t = RoutingEngine(tiny_topology).compute(ann)
        assert check_table(tiny_topology, t) == []
        assert check_catchments(tiny_topology, t) == []


# ======================================================================
# Gates: the shipped tree and the golden world must stay clean
# ======================================================================
class TestShippedTreeGates:
    def test_layer1_clean_on_source_tree(self):
        findings = lint_paths([default_target()])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_layer2_clean_on_golden_small_world(self, small_world):
        findings = analyze_world(small_world)
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCli:
    def _run(self, *argv):
        import repro.cli as cli

        return cli.main(list(argv))

    def test_layer1_json_written(self, tmp_path):
        out = tmp_path / "l1.json"
        target = tmp_path / "bad.py"
        target.write_text("import random\nx = random.random()\n",
                          encoding="utf-8")
        assert self._run("lint", str(target), "--json", str(out)) == 1
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["findings"][0]["rule"] == "unseeded-random"

    def test_lint_exit_codes(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main(["lint", str(good)]) == 0
        assert main(["lint", str(bad)]) == 1
        assert main(["lint", str(tmp_path / "typo.py")]) == 2

    def test_lint_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out


class TestJsonOutput:
    def _document(self, tmp_path) -> tuple[Path, dict]:
        """A file with two findings and its ``repro lint --json`` document."""
        from repro.cli import main

        target = tmp_path / "bad.py"
        target.write_text(
            "import random\nimport config\n"
            "x = random.random()\nconfig.LIMIT = 5\n",
            encoding="utf-8",
        )
        out = tmp_path / "findings.json"
        assert main(["lint", str(target), "--json", str(out)]) == 1
        return target, json.loads(out.read_text(encoding="utf-8"))

    def test_document_shape(self, tmp_path, capsys):
        _, document = self._document(tmp_path)
        assert document["schema"] == 1
        assert document["generated_by"] == "repro lint"
        assert len(document["findings"]) == 2
        for finding in document["findings"]:
            assert set(finding) == {"path", "line", "rule", "message", "hint"}

    def test_render_lint_section(self, tmp_path, capsys):
        from repro.obs.report import render_lint_section

        target, document = self._document(tmp_path)
        text = render_lint_section(document)
        assert "unseeded-random" in text and "global-mutable-state" in text
        assert f"{target}:3: [unseeded-random]" in text
        assert render_lint_section({"findings": []}) == "no findings"


class TestDocs:
    def test_every_rule_has_a_row_in_the_rule_table(self):
        """docs/static-analysis.md's Layer-1 table names every rule id."""
        doc = Path(__file__).resolve().parent.parent / "docs" / \
            "static-analysis.md"
        rows = set(re.findall(r"^\| `([a-z-]+)` \|",
                              doc.read_text(encoding="utf-8"), re.M))
        assert sorted(set(RULES) - rows) == []
